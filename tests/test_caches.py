import sys

import uda
import uda.cli  # noqa: F401  (the CLI module is not imported by uda)
from uda.glaction import (StarOperator, bracket_check,
                          generating_action_adapted, star_oracle_coords)
from uda.module_iso import poly_to_wedge, wedge_to_poly
from uda.partitions import Partition
from uda.poly import e_


def _memo_tables():
    """Every lru_cache in the uda modules, found by its ``cache_info``, and
    every module-level dict whose name mentions a cache, with its size."""
    sizes = {}
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "uda" or modname.startswith("uda.")):
            continue
        for attr, val in vars(mod).items():
            info = getattr(val, "cache_info", None)
            if callable(info):
                sizes[f"{val.__module__}.{val.__qualname__}"] = info().currsize
            elif isinstance(val, dict) and "cache" in attr.lower():
                sizes[f"{modname}.{attr}"] = len(val)
    return sizes


def test_clear_caches_empties_every_memo_table():
    generating_action_adapted(Partition((1,)), 2, 4, zmax=3)  # closed form
    assert bracket_check(1, 0, 0, 1, 2, 4)
    wedge_to_poly(poly_to_wedge(e_(2), 2, 4), 4)   # e2 -> h's via _e_in_h
    star_oracle_coords(StarOperator.adapted(1, 0), Partition((1,)), 2, 4)
    before = _memo_tables()
    assert all(before.values()), before
    uda.clear_caches()
    after = _memo_tables()
    assert after.keys() == before.keys()
    assert not any(after.values()), after
