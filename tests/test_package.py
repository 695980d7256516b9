"""The names the gsp package exports."""

import types

import gsp


def test_star_import_binds_every_public_name_and_no_submodule():
    namespace = {}
    exec("from gsp import *", namespace)
    bound = namespace.keys() - {"__builtins__"}
    assert not [name for name in bound if isinstance(namespace[name], types.ModuleType)]
    public = {name for name, value in vars(gsp).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(gsp.__all__) == public
    assert {"craig_solve", "nscraig_solve", "SolveResult", "bidiagonalize"} <= bound
