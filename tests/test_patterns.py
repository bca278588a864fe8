import itertools

import pytest

from hypmoduli.patterns import (
    ChangePreservationPattern,
    Composition,
    Couple,
    ModuliOrder,
    SignPattern,
    UVector,
    canonical_order,
    compatible_orders,
    cp_to_signs,
    descartes_counts,
    enumerate_orders,
    enumerate_patterns,
    is_canonical_pattern,
    is_compatible,
    is_rigid_order,
    neighbors,
    order_to_uvector,
    rigid_sign_pattern,
    signs_to_cp,
    uvector_to_order,
)

SP = SignPattern.parse
MO = ModuliOrder.parse
UV = UVector.parse


def all_patterns(d):
    for changes in range(d + 1):
        yield from enumerate_patterns(d, changes)


# ---------------------------------------------------------------- parsing

def test_parse_composition_and_string_agree():
    assert SP("3,1,2,1") == SP("+++-++-")
    assert SP("7") == SP("+++++++")
    assert str(SP("2,1,2,2")) == "++-++--"


def test_parse_normalizes_leading_minus():
    assert SP("--+") == SP("++-")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        SP("+*-")
    with pytest.raises(ValueError):
        ModuliOrder("PXN")
    with pytest.raises(ValueError):
        UVector((1, -1))
    with pytest.raises(ValueError):
        Composition((2, 0, 1))


# ---------------------------------------------------------------- cp patterns

def test_signs_to_cp_examples():
    assert signs_to_cp(SP("3,1,2,1")).letters == "ppccpc"
    assert signs_to_cp(SP("7")).letters == "pppppp"
    assert signs_to_cp(SP("+-")).letters == "c"


def test_cp_roundtrip_exhaustive_small_degrees():
    for d in range(1, 9):
        for sp in all_patterns(d):
            assert cp_to_signs(signs_to_cp(sp)) == sp
    for d in range(1, 9):
        for letters in itertools.product("cp", repeat=d):
            cp = ChangePreservationPattern("".join(letters))
            assert signs_to_cp(cp_to_signs(cp)) == cp


def test_composition_roundtrip_exhaustive():
    for d in range(1, 9):
        for sp in all_patterns(d):
            assert sp.composition().to_sign_pattern() == sp


# ---------------------------------------------------------------- descartes

def test_descartes_counts_examples():
    assert descartes_counts(SP("3,1,3")) == (2, 4)
    assert descartes_counts(SP("1,1,3,1,1")) == (4, 2)
    assert descartes_counts(SP("7")) == (0, 6)


def test_descartes_counts_sum_to_degree():
    for d in range(1, 9):
        for sp in all_patterns(d):
            c, p = descartes_counts(sp)
            assert c + p == d
            assert c == len(sp.composition().runs) - 1


# ---------------------------------------------------------------- canonical

def test_canonical_order_examples():
    assert canonical_order(SP("3,1,2,1")) == MO("PNPPNN")
    assert canonical_order(SP("2,1,2,2")) == MO("NPNPPN")
    assert canonical_order(SP("3,2,1,1")) == MO("PPNPNN")
    assert canonical_order(SP("2,2,2,1")) == MO("PNPNPN")


def test_canonical_order_is_compatible():
    for d in range(1, 9):
        for sp in all_patterns(d):
            assert is_compatible(sp, canonical_order(sp))


def test_is_canonical_pattern_examples():
    assert is_canonical_pattern(SP("4,1,1,1"))
    assert not is_canonical_pattern(SP("3,1,2,1"))
    assert is_canonical_pattern(SP("1,3,1,2"))


def test_canonicality_matches_cp_substring_oracle():
    # Independent route: a pattern is canonical iff its cp string contains
    # neither "cpc" nor "pcp".
    for d in range(1, 9):
        for sp in all_patterns(d):
            cp = signs_to_cp(sp).letters
            expected = "cpc" not in cp and "pcp" not in cp
            assert is_canonical_pattern(sp) == expected, sp


# ---------------------------------------------------------------- rigid

def test_is_rigid_order_examples():
    assert is_rigid_order(MO("PNPNPN"))
    assert is_rigid_order(MO("NPNPNP"))
    assert not is_rigid_order(MO("PPNNPN"))
    assert is_rigid_order(MO("NNNNNN"))
    assert is_rigid_order(MO("PPPPPP"))


def test_exactly_four_rigid_orders_per_degree():
    for d in range(2, 9):
        rigid = [
            o
            for k in range(d + 1)
            for o in enumerate_orders(d, k)
            if is_rigid_order(o)
        ]
        assert len(rigid) == 4


def test_rigid_sign_pattern_examples():
    assert rigid_sign_pattern(MO("PNPNPN")) == SP("2,2,2,1")
    assert rigid_sign_pattern(MO("NPNPNP")) == SP("1,2,2,2")
    assert rigid_sign_pattern(MO("NNNNNN")) == SP("7")
    with pytest.raises(ValueError, match="not rigid"):
        rigid_sign_pattern(MO("PPNNPN"))


def test_rigid_order_is_canonical_for_its_pattern():
    for d in range(2, 9):
        for k in range(d + 1):
            for o in enumerate_orders(d, k):
                if is_rigid_order(o):
                    assert canonical_order(rigid_sign_pattern(o)) == o


# ---------------------------------------------------------------- compatibility

def test_is_compatible_examples():
    assert is_compatible(SP("3,1,2,1"), MO("PPPNNN"))
    assert not is_compatible(SP("3,1,2,1"), MO("NNNNNN"))
    assert is_compatible(SP("1,5,1"), UV("[0,4,0]").to_order())


def test_is_compatible_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        is_compatible(SP("3,1,2,1"), MO("PPN"))


# ---------------------------------------------------------------- uvectors

def test_order_to_uvector_examples():
    assert order_to_uvector(MO("NNPNNN")) == UV("[2,3]")
    assert order_to_uvector(MO("NPNNPN")) == UV("[1,2,1]")
    assert order_to_uvector(MO("NPPNNP")) == UV("[1,0,2,0]")


def test_uvector_roundtrip():
    for d in range(1, 9):
        for k in range(d + 1):
            for o in enumerate_orders(d, k):
                assert uvector_to_order(order_to_uvector(o)) == o


def test_neighbors_examples():
    assert set(neighbors(UV("[0,2,0,1]"))) == {UV("[1,1,0,1]"), UV("[0,1,1,1]"), UV("[0,2,1,0]")}
    assert set(neighbors(UV("[2,0,0,1]"))) == {UV("[1,1,0,1]"), UV("[2,0,1,0]")}
    assert set(neighbors(UV("[3,0,0,0]"))) == {UV("[2,1,0,0]")}


def test_neighbors_symmetric_and_small_step():
    for k in range(7):
        for o in enumerate_orders(6, k):
            u = order_to_uvector(o)
            for v in neighbors(u):
                assert u in neighbors(v)
                diffs = [a - b for a, b in zip(u.u, v.u)]
                assert sorted(x for x in diffs if x) == [-1, 1]
                # the +-1 pair sits in adjacent components
                idx = [i for i, x in enumerate(diffs) if x]
                assert idx[1] - idx[0] == 1


# ---------------------------------------------------------------- enumeration

def binom(n, k):
    import math

    return math.comb(n, k)


def test_enumeration_counts():
    assert len(enumerate_patterns(6, 3)) == 20
    assert len(enumerate_orders(6, 3)) == 20
    assert enumerate_patterns(6, 0) == [SP("7")]
    for d in range(1, 9):
        for k in range(d + 1):
            assert len(enumerate_patterns(d, k)) == binom(d, k)
            assert len(enumerate_orders(d, k)) == binom(d, k)
    for d in (0, -1):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            enumerate_patterns(d, 0)
        with pytest.raises(ValueError, match="degree must be at least 1"):
            enumerate_orders(d, 0)


def test_enumeration_is_lexicographic_and_duplicate_free():
    pats = enumerate_patterns(6, 3)
    keys = [str(p).replace("+", "0").replace("-", "1") for p in pats]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    orders = enumerate_orders(6, 3)
    okeys = [o.letters.replace("P", "0").replace("N", "1") for o in orders]
    assert okeys == sorted(okeys) and len(set(okeys)) == len(okeys)


def test_compatible_orders_of_degree6_pattern():
    assert len(compatible_orders(SP("3,1,2,1"))) == 20
    assert compatible_orders(SP("7")) == [MO("NNNNNN")]


def test_couple_str():
    k = Couple(SP("3,1,2,1"), MO("PNPPNN"))
    assert str(k) == "(3,1,2,1, PNPPNN)"
