import sys
from collections.abc import Mapping

import pytest

import uda
import uda.cli  # noqa: F401  (the CLI module is not imported by uda)
import uda.verify  # noqa: F401
from uda.exterior import BasisTag, ExtElement
from uda.glaction import (StarOperator, _finite_closed_form, bracket_check,
                          generating_action_adapted, star_oracle_coords)
from uda.module_iso import poly_to_wedge, wedge_to_poly
from uda.partitions import Partition
from uda.poly import _MEMO_TABLES, MvPolynomial, e_, h_
from uda.symfunc import giambelli


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


def _fill_every_table():
    _finite_closed_form(Partition((1,)), 2, 4)  # closed form and projection
    assert bracket_check(1, 0, 0, 1, 2, 4)   # _columns over _basis(2, 4)
    wedge_to_poly(poly_to_wedge(e_(2), 2, 4), 4)   # e2 -> h's via _e_in_h
    poly_to_wedge(h_(1) ** 3, 2)   # a cached wedge with a coefficient 2
    star_oracle_coords(StarOperator.adapted(1, 0), Partition((1,)), 2, 4)
    star_oracle_coords(StarOperator.plain(2, 1), Partition((1,)), 2, 4)
    generating_action_adapted(Partition((1,)), 2, 4, 1, wmax=1)   # phi_1


def test_clear_caches_empties_every_memo_table():
    _fill_every_table()
    before = _memo_tables()
    assert all(before.values()), before
    uda.clear_caches()
    after = _memo_tables()
    assert after.keys() == before.keys()
    assert not any(after.values()), after


def test_every_cache_is_a_registered_memo_table():
    # a bare lru_cache or cache dict would escape clear_caches and freezing
    assert _memo_tables().keys() == {f"{t.__module__}.{t.__qualname__}"
                                     for t in _MEMO_TABLES}


# one argument tuple per memo table, each filled by _fill_every_table
_SAMPLE_ARGS = {
    "xc_expand": (2, 4),
    "x_in_xc": (3, 4),
    "_positive_w_value": (2, 1, 4),
    "_basis": (2, 4),
    "_columns": (1, 0, 2, 4),
    "maya_mask": (Partition((1,)), 2),
    "partition_of_mask": (0b110,),
    "sigma_monomial_wedge": (2, (1, 1, 1)),
    "_schur_map_of_monomial": (2, 4, (1,)),
    "h_deformed": (2, 4),
    "s_coefficient": (2, 4),
    "_giambelli_cached": ((1,), 2, 4),
    "_e_in_h": (2,),
}


def _stores(value):
    """Every term store and dict reachable from a cached value."""
    if isinstance(value, (MvPolynomial, ExtElement)):
        value = value.terms
    if isinstance(value, Mapping):
        yield value
        value = tuple(value.values())
    if isinstance(value, tuple):
        for item in value:
            yield from _stores(item)


@pytest.mark.parametrize("table", _MEMO_TABLES, ids=lambda t: t.__qualname__)
def test_cached_values_are_read_only(table):
    uda.clear_caches()
    _fill_every_table()
    args = _SAMPLE_ARGS[table.__qualname__]
    hits = table.cache_info().hits
    value = table(*args)
    assert table.cache_info().hits == hits + 1
    for store in _stores(value):
        key = next(iter(store), ())
        for clobber in (lambda: store.clear(),
                        lambda: store.__setitem__(key, 0)):
            with pytest.raises((AttributeError, TypeError)):
                clobber()
    assert table(*args) is value


def test_poisoning_a_schur_determinant_is_refused():
    uda.clear_caches()
    with pytest.raises((AttributeError, TypeError)):
        giambelli(Partition((1,)), 2, 4).terms.clear()
    assert (str(giambelli(Partition((2, 1)), 2, 4))
            == "-c1*h1^2 + c1^2*h1 + h1*h2 - c1*c2 - h3 + c3")


def test_poisoning_a_sigma_monomial_wedge_is_refused():
    uda.clear_caches()
    with pytest.raises((AttributeError, TypeError)):
        uda.sigma_monomial_wedge(2, (1,)).terms.clear()
    assert poly_to_wedge(h_(1), 2) == ExtElement.basis_monomial(
        1 << 2 | 1 << 0, BasisTag.PLAIN_X)


def test_the_empty_determinant_cannot_change_one():
    uda.clear_caches()
    with pytest.raises((AttributeError, TypeError)):
        giambelli(Partition(()), 2, 4).terms.clear()
    for const in (uda.ONE, uda.ZERO):
        with pytest.raises((AttributeError, TypeError)):
            const.terms[()] = 7
    assert uda.ONE.terms == {(): 1}
    assert uda.ZERO.terms == {}
    assert str(giambelli(Partition((2, 1)), 2, 4)) != "0"
    assert star_oracle_coords(StarOperator.adapted(1, 0), Partition((1,)),
                              2, 4)


def test_replacing_the_terms_of_a_schur_determinant_is_refused():
    uda.clear_caches()
    with pytest.raises(AttributeError):
        giambelli(Partition((1,)), 2, 4).terms = {}
    assert (str(giambelli(Partition((2, 1)), 2, 4))
            == "-c1*h1^2 + c1^2*h1 + h1*h2 - c1*c2 - h3 + c3")


def test_replacing_the_terms_of_a_sigma_monomial_wedge_is_refused():
    want = uda.schur_map_of_poly(h_(1) * h_(2), 2, None)
    assert want
    uda.clear_caches()
    with pytest.raises(AttributeError):
        uda.sigma_monomial_wedge(2, (1,)).terms = {}
    with pytest.raises(AttributeError):
        ExtElement.vector(1, BasisTag.PLAIN_X).terms = {}
    assert uda.schur_map_of_poly(h_(1) * h_(2), 2, None) == want


def test_retagging_a_sigma_monomial_wedge_is_refused():
    want = uda.schur_map_of_poly(h_(1) * h_(2), 2, None)
    assert len(want) == 6
    uda.clear_caches()
    cached = uda.sigma_monomial_wedge(2, (1,))
    with pytest.raises(AttributeError):
        cached.tag = BasisTag.DEFORMED_XC
    with pytest.raises(AttributeError):
        cached.r = 3
    assert cached.tag is BasisTag.PLAIN_X and cached.r == 2
    assert uda.schur_map_of_poly(h_(1) * h_(2), 2, None) == want


def _module_dicts():
    """The size of every module-level dict of the uda modules, by name."""
    return {f"{modname}.{attr}": len(val)
            for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == "uda" or modname.startswith("uda."))
            for attr, val in vars(mod).items() if isinstance(val, dict)}


def _part_table_names():
    from uda.poly import _PARTS
    return {f"uda.poly.{name}" for name, val in vars(uda.poly).items()
            if any(val is parts for parts in _PARTS)}


def _render(p):
    from uda.cli import _json_doc
    return str(p) + _json_doc({"value": p})


def test_clear_caches_empties_the_text_tables():
    from uda.poly import _PARTS, _SHIFTS, _VARS

    p = giambelli(Partition((2, 1)), 3, 6) * e_(2)   # c-, e- and h-parts
    uda.clear_caches()
    before = _module_dicts()
    first = _render(p)
    assert all(_PARTS)
    # the part tables are the only tables a rendering fills, and
    # clear_caches empties them
    grown = {name for name, size in _module_dicts().items()
             if size != before[name]}
    assert grown == _part_table_names() and len(grown) == 3
    layout = dict(_SHIFTS), list(_VARS)
    uda.clear_caches()
    assert not any(_PARTS)
    assert (dict(_SHIFTS), list(_VARS)) == layout   # live polynomials read it
    assert _render(p) == first


def test_rendering_keeps_no_per_monomial_state():
    from uda.poly import _FAMILY_MASKS, _PARTS

    p = giambelli(Partition((5, 5, 5, 5)), 4, 9) * (e_(1) + e_(2))
    parts = [{m & mask for m in p._t} for mask in _FAMILY_MASKS]
    assert len(p.terms) > 5 * sum(map(len, parts))   # many more monomials
    uda.clear_caches()
    before = _module_dicts()
    text = _render(p)
    assert len(text) > 100 * len(p.terms)
    after = _module_dicts()
    # each part table holds the distinct parts of p, and no other dict grew
    assert [len(table) for table in _PARTS] == list(map(len, parts))
    assert [set(table) for table in _PARTS] == parts
    assert {name for name in after if after[name] != before[name]} == (
        _part_table_names())
    assert _render(p) == text and _module_dicts() == after
