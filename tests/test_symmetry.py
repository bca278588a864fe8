import itertools

import pytest

from hypmoduli.patterns import (
    Couple,
    ModuliOrder,
    SignPattern,
    canonical_order,
    compatible_orders,
    descartes_counts,
    enumerate_orders,
    enumerate_patterns,
    is_compatible,
    is_rigid_order,
    rigid_sign_pattern,
)
from hypmoduli.certify import TiedOrder
from hypmoduli.symmetry import (
    apply_group,
    apply_im,
    apply_ir,
    im_representative,
    orbit_of,
    orbits,
)

SP = SignPattern.parse
MO = ModuliOrder.parse


def all_patterns(d):
    for c in range(d + 1):
        yield from enumerate_patterns(d, c)


def all_orders(d):
    for k in range(d + 1):
        yield from enumerate_orders(d, k)


def test_apply_im_examples():
    assert apply_im(SP("3,1,3")) == SP("1,1,3,1,1")
    assert apply_im(SP("2,2,2")) == SP("1,2,2,1")
    assert apply_im(MO("PNPNPN")) == MO("NPNPNP")


def test_apply_ir_examples():
    assert apply_ir(SP("3,1,3")) == SP("3,1,3")
    assert apply_im(apply_ir(SP("4,1,1,1"))) == SP("4,1,1,1")
    assert apply_ir(MO("PPNNPN")) == MO("NPNNPP")


def test_apply_im_swaps_descartes_counts():
    for d in range(1, 9):
        for sp in all_patterns(d):
            c, p = descartes_counts(sp)
            assert descartes_counts(apply_im(sp)) == (p, c)


def test_involution_laws_exhaustive():
    for d in range(1, 9):
        for sp in all_patterns(d):
            assert apply_im(apply_im(sp)) == sp
            assert apply_ir(apply_ir(sp)) == sp
            assert apply_im(apply_ir(sp)) == apply_ir(apply_im(sp))
        for o in all_orders(d):
            assert apply_im(apply_im(o)) == o
            assert apply_ir(apply_ir(o)) == o
            assert apply_im(apply_ir(o)) == apply_ir(apply_im(o))


def test_im_representative_of_an_order_is_the_mirror_whose_letters_come_first():
    # the `=` marks of a tied order sit at the same ranks in both mirrors,
    # so comparing text and comparing letters pick the same member
    for d in range(1, 8):
        for order in all_orders(d):
            letters = order.letters
            ties = [()] + [(r,) for r in range(1, d) if letters[r - 1] != letters[r]]
            for x in [order] + [TiedOrder(letters, t) for t in ties]:
                first = min(x, apply_im(x), key=lambda o: o.letters)
                assert im_representative(x) == im_representative(apply_im(x)) == first


def test_im_has_no_fixed_sign_pattern():
    for d in range(1, 9):
        for sp in all_patterns(d):
            assert apply_im(sp) != sp


def test_orbit_sizes_and_fixed_point_characterization():
    for d in range(1, 8):
        for sp in all_patterns(d):
            orb = orbit_of(sp)
            assert orb.size in (2, 4)
            if orb.size == 2:
                assert apply_ir(sp) == sp or apply_im(apply_ir(sp)) == sp


def test_compatibility_is_equivariant():
    for sp in enumerate_patterns(6, 3):
        for o in enumerate_orders(6, 3):
            value = is_compatible(sp, o)
            for g in ("im", "ir", "imir"):
                assert is_compatible(apply_group(g, sp), apply_group(g, o)) == value


def compatible_couples(d):
    for sp in all_patterns(d):
        for o in compatible_orders(sp):
            yield Couple(sp, o)


def is_canonical_couple(c):
    return c.order == canonical_order(c.sp)


def test_group_maps_canonical_couples_to_canonical_couples():
    # search.witness_for transports only stored siblings: a sibling it could
    # construct is canonical, and then so is the target, built directly
    for d in range(1, 9):
        for c in compatible_couples(d):
            if is_canonical_couple(c):
                for g in ("im", "ir", "imir"):
                    assert is_canonical_couple(apply_group(g, c)), (g, c)


def test_rigid_realizable_couples_are_the_rigid_canonical_ones():
    # search.constructive_witness and certify.refute test canonicity alone
    for d in range(1, 9):
        for c in compatible_couples(d):
            rigid = is_rigid_order(c.order)
            realizable = rigid and rigid_sign_pattern(c.order) == c.sp
            assert realizable == (rigid and is_canonical_couple(c)), c


LEMMA_ORBITS = {
    "A": {"3,1,2,1", "1,2,1,3", "2,3,1,1", "1,1,3,2"},
    "B": {"1,4,1,1", "1,1,4,1", "3,1,1,2", "2,1,1,3"},
    "C": {"2,1,2,2", "2,2,1,2", "1,2,3,1", "1,3,2,1"},
    "D": {"4,1,1,1", "1,1,1,4"},
    "E": {"2,2,2,1", "1,2,2,2"},
    "F": {"3,2,1,1", "1,1,2,3"},
    "G": {"1,3,1,2", "2,1,3,1"},
}


def test_seven_orbits_for_degree6_three_changes():
    found = orbits(6, 3)
    assert len(found) == 7
    found_sets = {frozenset(str(sp.composition()) for sp in orb.members) for orb in found}
    assert found_sets == {frozenset(v) for v in LEMMA_ORBITS.values()}


def test_orbit_of_examples():
    assert {str(sp.composition()) for sp in orbit_of(SP("4,1,1,1")).members} == LEMMA_ORBITS["D"]
    assert orbit_of(SP("3,1,2,1")).size == 4


def test_orbits_of_couples():
    couple = Couple(SP("2,1,3,1"), MO("PNNPPN"))
    orb = orbit_of(couple)
    assert couple in orb.members
    assert orb.size in (2, 4)
    # representative is deterministic
    assert orb.representative == min(orb.members, key=str)


def test_apply_group_id_and_errors():
    sp = SP("3,1,2,1")
    assert apply_group("id", sp) == sp
    with pytest.raises(ValueError):
        apply_group("bogus", sp)
    with pytest.raises(TypeError):
        apply_im(3)
