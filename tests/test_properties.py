"""Invariant and statistical property suites.

Exhaustive group/round-trip laws for every pattern and order up to degree
8, an exact Vieta cross-check on a thousand random configurations, large
Monte Carlo canonicality runs, and byte-for-byte sampler determinism.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmoduli.patterns import (
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
    is_compatible,
    neighbors,
    order_to_uvector,
    signs_to_cp,
    uvector_to_order,
)
from hypmoduli.poly import RootConfiguration, _witness_line, couple_of, expand
from hypmoduli.search import (
    Exhausted,
    Found,
    SamplerConfig,
    derive_seed,
    mc_search,
)
from hypmoduli.symmetry import (
    GROUP_ELEMENTS,
    apply_group,
    apply_im,
    apply_ir,
    orbit_of,
    orbits,
)

DEGREES = range(1, 9)
SEED = 20260823


def all_patterns(d):
    return [sp for c in range(d + 1) for sp in enumerate_patterns(d, c)]


def all_orders(d):
    return [o for k in range(d + 1) for o in enumerate_orders(d, k)]


# ------------------------------------------------------- involution laws


@pytest.mark.parametrize("d", DEGREES)
def test_group_laws_on_patterns(d):
    for sp in all_patterns(d):
        assert apply_im(apply_im(sp)) == sp
        assert apply_ir(apply_ir(sp)) == sp
        assert apply_im(apply_ir(sp)) == apply_ir(apply_im(sp))
        assert apply_group("imir", sp) == apply_im(apply_ir(sp))
        assert apply_group("id", sp) == sp
        c, p = descartes_counts(sp)
        assert c + p == d
        assert descartes_counts(apply_im(sp)) == (p, c)
        assert descartes_counts(apply_ir(sp)) == (c, p)


@pytest.mark.parametrize("d", DEGREES)
def test_group_laws_on_orders(d):
    for order in all_orders(d):
        assert apply_im(apply_im(order)) == order
        assert apply_ir(apply_ir(order)) == order
        assert apply_im(apply_ir(order)) == apply_ir(apply_im(order))
        assert apply_im(order).count_positive() == d - order.count_positive()
        assert apply_ir(order).count_positive() == order.count_positive()


@pytest.mark.parametrize("d", [2, 4, 6])
def test_group_action_respects_couples_and_compatibility(d):
    for sp in all_patterns(d):
        for order in compatible_orders(sp):
            couple = Couple(sp, order)
            for g in GROUP_ELEMENTS:
                image = apply_group(g, couple)
                assert image == Couple(apply_group(g, sp), apply_group(g, order))
                assert is_compatible(image.sp, image.order)


@pytest.mark.parametrize("d", DEGREES)
def test_orbits_partition_patterns(d):
    every = all_patterns(d)
    seen = set()
    for sp in every:
        orb = orbit_of(sp)
        assert sp in orb.members
        assert orb.size in (2, 4)  # im never fixes a pattern
        assert orb.members == frozenset(apply_group(g, sp) for g in GROUP_ELEMENTS)
        assert orb.representative in orb.members
        if sp not in seen:
            assert not (orb.members & seen)
            seen.update(orb.members)
    assert seen == set(every)


@pytest.mark.parametrize("d", DEGREES)
def test_orbit_listing_covers_paired_strata(d):
    for changes in range(d + 1):
        pool = set(enumerate_patterns(d, changes)) | set(
            enumerate_patterns(d, d - changes)
        )
        listed = [sp for orb in orbits(d, changes) for sp in orb.members]
        assert len(listed) == len(set(listed))  # disjoint
        assert set(listed) == pool


# ----------------------------------------------------------- round trips


@pytest.mark.parametrize("d", DEGREES)
def test_pattern_representation_round_trips(d):
    for sp in all_patterns(d):
        assert SignPattern.parse(str(sp)) == sp
        comp = sp.composition()
        assert Composition.parse(str(comp)) == comp
        assert comp.to_sign_pattern() == sp
        assert cp_to_signs(signs_to_cp(sp)) == sp


@pytest.mark.parametrize("d", DEGREES)
def test_order_uvector_round_trips(d):
    for order in all_orders(d):
        u = order_to_uvector(order)
        assert uvector_to_order(u) == order
        assert UVector.parse(str(u)) == u
        assert ModuliOrder.parse(str(order)) == order
        assert sum(u.u) == d - order.count_positive()
        assert len(u.u) == order.count_positive() + 1


@pytest.mark.parametrize("d", DEGREES)
def test_uvector_neighbor_relation_is_symmetric_unit_transfer(d):
    for order in all_orders(d):
        u = order_to_uvector(order)
        for v in neighbors(u):
            assert sum(v.u) == sum(u.u)
            deltas = [a - b for a, b in zip(v.u, u.u)]
            nonzero = [(i, x) for i, x in enumerate(deltas) if x]
            assert sorted(x for _, x in nonzero) == [-1, 1]
            assert abs(nonzero[0][0] - nonzero[1][0]) == 1
            assert u in neighbors(v)


# ------------------------------------------------------ Vieta consistency


def elementary_symmetric_oracle(roots):
    """Vieta directly: q_{d-j} as a sum over all j-subsets of the roots."""
    d = len(roots)
    coeffs = []
    for j in range(d + 1):
        total = Fraction(0)
        for subset in itertools.combinations(roots, j):
            term = Fraction((-1) ** j)
            for r in subset:
                term *= r
            total += term
        coeffs.append(total)
    return coeffs


def test_expansion_matches_vieta_on_thousand_configurations():
    rng = random.Random(SEED)
    for trial in range(1000):
        d = 1 + trial % 7
        roots = tuple(
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 1000))
            for _ in range(d)
        )
        rc = RootConfiguration(roots)
        assert list(expand(rc)) == elementary_symmetric_oracle(rc.roots)


@given(
    st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=40).filter(lambda f: f != 0),
        min_size=2,
        max_size=7,
    )
)
@settings(max_examples=200, deadline=None)
def test_expansion_matches_vieta_on_fraction_lists(roots):
    rc = RootConfiguration(tuple(roots))
    assert list(expand(rc)) == elementary_symmetric_oracle(rc.roots)


# ------------------------------------------------ statistical canonicality


def _search_every_order(sp, budget):
    """One MC search per compatible order of sp; the orders found."""
    found = set()
    for order in compatible_orders(sp):
        outcome = mc_search(Couple(sp, order), SamplerConfig(seed=SEED, budget=budget))
        if isinstance(outcome, Found):
            found.add(order.letters)
        else:
            assert isinstance(outcome, Exhausted)
    return found


@pytest.mark.parametrize("text", ["+----+-", "++++-+-", "+---+--"])
def test_canonical_patterns_realize_only_their_canonical_order(text):
    sp = SignPattern.parse(text)
    assert len(compatible_orders(sp)) == 20
    assert _search_every_order(sp, budget=5_000) == {canonical_order(sp).letters}


def test_census_on_non_canonical_pattern_spreads_over_realizable_orders():
    sp = SignPattern.parse("+++-++-")
    found = _search_every_order(sp, budget=1_000)
    realizable = {"PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN", "NPPPNN"}
    assert found <= realizable
    assert len(found) >= 2
    assert canonical_order(sp).letters in found


# ------------------------------------------------------------ determinism


def test_mc_search_is_deterministic_byte_for_byte():
    target = Couple(SignPattern.parse("++--++-"), ModuliOrder("NPPNNP"))
    cfg = SamplerConfig(seed=SEED, budget=50_000)
    first = mc_search(target, cfg)
    second = mc_search(target, cfg)
    assert isinstance(first, Found)
    assert first == second
    assert _witness_line(first.witness) == _witness_line(second.witness)

    other = mc_search(target, SamplerConfig(seed=SEED + 1, budget=50_000))
    assert isinstance(other, Found)
    assert _witness_line(other.witness) != _witness_line(first.witness)


def test_derive_seed_is_stable_and_couple_sensitive():
    couples = [
        Couple(sp, order)
        for sp in all_patterns(4)
        for order in compatible_orders(sp)
    ]
    seeds = [derive_seed(SEED, c) for c in couples]
    assert seeds == [derive_seed(SEED, c) for c in couples]
    assert len(set(seeds)) == len(couples)
    assert derive_seed(SEED + 1, couples[0]) != seeds[0]
