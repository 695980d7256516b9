"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side only, around the public calls
into each gsp module: timing proxies stand in for the system blocks and the
preconditioner a solver receives, and module attributes are swapped for
wrappers while ``Tracer.installed()`` is active. Nothing under ``src/gsp``
changes, and every wrapper returns exactly what the wrapped call returns, so
traced iterates are bit-identical to untraced ones.

A span is ``[name, parent, start, end, stop]``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``stop`` is one past the index of its last
descendant, so the descendants of span ``i`` are ``spans[i + 1:stop]``.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import gsp.cli
import gsp.craig
import gsp.linops
import gsp.mmio
import gsp.nscraig
import gsp.problems
import gsp.system
from gsp.linops import SparseMatrix
from gsp.system import ConvergenceRecord, SaddleSystem

_now = time.perf_counter

# Kernel spans the solvers reach through the system and preconditioner proxies.
MATRIX_KERNELS = ("M_solve", "Mmat_matvec", "A_matvec", "A_rmatvec", "C_matvec")
PRECOND_KERNELS = ("N_solve", "N_apply")


class _Proxy:
    """Forwards every attribute to ``target``; ``methods`` shadow the named ones."""

    def __init__(self, target, methods):
        self.__dict__.update(methods)
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    """In-memory span recorder; spans are written out once, by ``dump``."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.marks = []  # len(spans) at each ConvergenceRecord, i.e. each iteration
        self.bytes_read = []  # bytes of the files behind each load_system call
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, _now(), 0.0, 0]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = _now()
                span[4] = len(spans)
                stack.pop()

        return traced

    def solver(self, name, solve):
        """Wrap a solver so that its kernels run through timing proxies."""
        traced_solve = self.wrap(name, solve)
        w = self.wrap

        def run(system, N, cfg):
            s = system
            proxied = _Proxy(s, dict(
                M=_Proxy(s.M, dict(solve=w("linops.M_solve", s.M.solve))),
                Mmat=_Proxy(s.Mmat, dict(matvec=w("linops.Mmat_matvec", s.Mmat.matvec))),
                A=_Proxy(s.A, dict(matvec=w("linops.A_matvec", s.A.matvec),
                                   rmatvec=w("linops.A_rmatvec", s.A.rmatvec))),
                C=_Proxy(s.C, dict(matvec=w("linops.C_matvec", s.C.matvec))),
            ))
            precond = _Proxy(N, dict(solve=w("linops.N_solve", N.solve),
                                     apply=w("linops.N_apply", N.apply)))
            return traced_solve(proxied, precond, cfg)

        return run

    def _record(self, *args, **kwargs):
        self.marks.append(len(self.spans))
        return ConvergenceRecord(*args, **kwargs)

    def _load_system(self, load):
        traced = self.wrap("mmio.load", load)

        def run(manifest_path):
            system = traced(manifest_path)
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            base = os.path.dirname(os.path.abspath(manifest_path))
            self.bytes_read.append(os.path.getsize(manifest_path) + sum(
                os.path.getsize(os.path.join(base, manifest[key]))
                for key in ("m_file", "a_file", "c_file", "b_file")))
            return system

        return run

    @contextmanager
    def installed(self):
        """Swap the module-level entry points of every timed layer for spans.

        Solvers are not swapped here: the caller passes ``solver(...)`` to
        the workload, which hands it to ``gsp run`` where that path is used.
        """
        w = self.wrap
        factorize = w("linops.factorize", gsp.linops.factorize)
        patches = [
            (gsp.problems, "gen_stokes_channel_detailed",
             w("problems.generate", gsp.problems.gen_stokes_channel_detailed)),
            (gsp.problems, "gen_random", w("problems.generate", gsp.problems.gen_random)),
            (gsp.mmio, "load_system", self._load_system(gsp.mmio.load_system)),
            (gsp.cli, "load_system", self._load_system(gsp.cli.load_system)),
            (gsp.cli, "main", w("cli.main", gsp.cli.main)),
            (gsp.cli, "build_problem", w("cli.build_problem", gsp.cli.build_problem)),
            (gsp.cli, "write_history_csv", w("cli.write_history_csv", gsp.cli.write_history_csv)),
            (gsp.linops, "factorize", factorize),
            (gsp.system, "factorize", factorize),
            (gsp.problems, "factorize", factorize),
            (SparseMatrix, "to_dense", w("linops.to_dense", SparseMatrix.to_dense)),
            (SparseMatrix, "from_dense",
             classmethod(w("linops.from_dense", SparseMatrix.from_dense.__func__))),
            (SaddleSystem, "__post_init__", w("system.post_init", SaddleSystem.__post_init__)),
            (SaddleSystem, "from_matrices",
             classmethod(w("system.from_matrices", SaddleSystem.from_matrices.__func__))),
            (gsp.nscraig, "assemble_solution",
             w("nscraig.assemble_solution", gsp.nscraig.assemble_solution)),
            (gsp.craig, "ConvergenceRecord", self._record),
            (gsp.nscraig, "ConvergenceRecord", self._record),
        ]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def tally(self, root, own):
        """{span name: [calls, self seconds]} over the descendants of ``root``."""
        out = defaultdict(lambda: [0, 0.0])
        for j in range(root + 1, self.spans[root][4]):
            entry = out[self.spans[j][0]]
            entry[0] += 1
            entry[1] += own[j]
        return out

    def per_iteration_counts(self, root):
        """Kernel calls between consecutive iteration records inside ``root``.

        Returns one Counter per window; a solver whose iterations all do the
        same work gives identical Counters.
        """
        lo, hi = root, self.spans[root][4]
        marks = [m for m in self.marks if lo < m <= hi]
        return [Counter(self.spans[j][0] for j in range(a, b))
                for a, b in zip(marks, marks[1:])]

    def dump(self, path, env):
        """Write the spans as JSON lines: one header line, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id, "env": env}) + "\n")
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "parent": parent, "start": start, "end": end}) + "\n")
