"""Forced-sign certificates, encoded lemmas, and the decision pipeline."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from hypmoduli.certify import (
    CertificateError,
    ContradictionError,
    ForcedSignCertificate,
    FrontierEvidence,
    Status,
    TiedOrder,
    Verdict,
    classify_pattern,
    coefficient_monomials,
    contradicting_certificate,
    forced_sign,
    frontier_exclusion,
    pair_lemma_blocks,
    propagate,
    refute,
    sample_certificate,
    verify_certificate,
)
from hypmoduli.patterns import (
    Couple,
    ModuliOrder,
    SignPattern,
    UVector,
    canonical_order,
    compatible_orders,
    enumerate_patterns,
    order_to_uvector,
    uvector_to_order,
)
from hypmoduli.poly import RootConfiguration, expand
from hypmoduli.published import published_witnesses
from hypmoduli.search import SamplerConfig, constructive_witness, rigid_witness

SEED = 20260823


def U(*u):
    return uvector_to_order(UVector(tuple(u)))


@pytest.fixture(scope="module")
def store():
    return {w.couple: w for w in published_witnesses()}


@pytest.fixture(scope="module")
def cfg():
    return SamplerConfig(seed=SEED, budget=200_000)


# ------------------------------------------------------------ tied orders


def test_tied_order_marks_ties_in_str():
    t = TiedOrder("PPNNNP", (5,))
    assert str(t) == "PPNNN=P"
    assert t.degree == 6


def test_tied_order_validation():
    with pytest.raises(ValueError):
        TiedOrder("PPNN", (1,))  # tied ranks carry the same letter
    with pytest.raises(ValueError):
        TiedOrder("PNPN", (1, 2))  # overlapping pairs
    with pytest.raises(ValueError):
        TiedOrder("PNPN", (4,))  # no rank 5 to pair with
    TiedOrder("PNPN", (1, 3))  # disjoint opposite-letter pairs are fine


def test_wall_between_neighbours():
    t = TiedOrder.wall(U(0, 0, 3, 0), U(0, 0, 2, 1))
    assert t.letters == "PPNNNP" and t.tied == (5,)
    with pytest.raises(ValueError):
        TiedOrder.wall(U(0, 0, 3, 0), U(0, 2, 1, 0))  # two transpositions apart


# ------------------------------------------------------------ monomial census


def test_top_coefficient_monomials():
    census = coefficient_monomials(6, 5, ModuliOrder("PNPNPN"))
    assert [(m.support, m.sign) for m in census] == [
        ((1,), -1), ((2,), 1), ((3,), -1), ((4,), 1), ((5,), -1), ((6,), 1)
    ]


def test_constant_coefficient_single_monomial():
    (m,) = coefficient_monomials(6, 0, U(1, 1, 0, 1))
    assert m.support == (1, 2, 3, 4, 5, 6)
    assert m.sign == -1  # three positive roots


def test_census_balance_for_pair_coefficient():
    census = coefficient_monomials(6, 4, U(1, 1, 0, 1))  # NPNPPN
    assert len(census) == 15
    assert sum(m.sign > 0 for m in census) == 6
    assert sum(m.sign < 0 for m in census) == 9


def test_tied_census_drops_cancelling_monomials():
    tied = TiedOrder("PPNNNP", (5,))
    census = coefficient_monomials(6, 4, tied)
    # pairs touching exactly one of the tied ranks 5, 6 cancel: 15 - 8 = 7
    assert len(census) == 7
    assert all(len(set(m.support) & {5, 6}) != 1 for m in census)


def test_invalid_census_requests():
    with pytest.raises(ValueError):
        coefficient_monomials(5, 2, ModuliOrder("PNPNPN"))
    with pytest.raises(ValueError):
        coefficient_monomials(6, 7, ModuliOrder("PNPNPN"))


# ------------------------------------------------------------ forced signs


def test_forced_negative_root_sum():
    cert = forced_sign(U(2, 1, 0, 0), 5)  # NNPNPP
    assert cert is not None and cert.sign == -1
    assert verify_certificate(cert)


def test_forced_negative_pair_coefficient():
    cert = forced_sign(U(1, 1, 0, 1), 4)  # NPNPPN
    assert cert is not None and cert.sign == -1
    assert len(cert.matching) == 6
    assert verify_certificate(cert)


def test_forced_positive_reciprocal_sum():
    cert = forced_sign(U(0, 0, 0, 3), 1)  # PPPNNN
    assert cert is not None and cert.sign == 1
    assert verify_certificate(cert)


def test_constant_term_always_forced():
    for order in ("PNPNPN", "PPPNNN", "NNPPNP"):
        cert = forced_sign(ModuliOrder(order), 0)
        assert cert is not None
        assert cert.sign == (-1) ** order.count("P")
        assert cert.strictness[0] == "unmatched-majority"


def test_no_certificate_when_sign_genuinely_varies():
    # +a -f -g +b with a<f<g<b: q_1 = fg(a+b) - ab(f+g) takes both signs
    assert forced_sign(ModuliOrder("PNNP"), 1) is None


def test_forced_sign_on_tied_wall_top():
    cert = forced_sign(TiedOrder("PPNNNP", (5,)), 4)
    assert cert is not None and cert.sign == -1
    assert verify_certificate(cert)


def test_forced_sign_on_tied_wall_bottom():
    cert = forced_sign(TiedOrder("NPPPNN", (1,)), 2)
    assert cert is not None and cert.sign == 1
    assert verify_certificate(cert)


def test_verifier_rejects_tampered_certificates():
    cert = forced_sign(U(1, 1, 0, 1), 4)
    with pytest.raises(CertificateError):
        verify_certificate(dataclasses.replace(cert, sign=-cert.sign))
    with pytest.raises(CertificateError):
        verify_certificate(dataclasses.replace(cert, matching=cert.matching[1:]))
    m0, M0 = cert.matching[0]
    swapped = ((M0, m0),) + cert.matching[1:]
    with pytest.raises(CertificateError):
        verify_certificate(dataclasses.replace(cert, matching=swapped))


def test_certificates_survive_random_sampling():
    for cert in (
        forced_sign(U(1, 1, 0, 1), 4),
        forced_sign(U(0, 0, 0, 3), 1),
        forced_sign(TiedOrder("PPNNNP", (5,)), 4),
        forced_sign(TiedOrder("NPPPNN", (1,)), 2),
    ):
        assert sample_certificate(cert, samples=2000, seed=SEED) == 0


def _fraction_violations(cert, samples, seed):
    """Reference sampler: the draws of `sample_certificate`, expanded as
    `Fraction` roots through `expand`."""
    rng = random.Random(seed)
    d = cert.order.degree
    tied_upper = {r + 1 for r in getattr(cert.order, "tied", ())}
    levels = list(
        itertools.accumulate(0 if rank in tied_upper else 1 for rank in range(1, d + 1))
    )
    violations = 0
    for _ in range(samples):
        values = sorted(rng.sample(range(1, 10 * levels[-1] + 1), levels[-1]))
        roots = tuple(
            Fraction(values[lvl - 1] if ch == "P" else -values[lvl - 1])
            for lvl, ch in zip(levels, cert.order.letters)
        )
        q_k = expand(RootConfiguration(roots)).coefficients[d - cert.k]
        violations += q_k * cert.sign <= 0
    return violations


def test_sampler_counts_violations_of_unsound_claims():
    """The sampler must be able to fail: flipped certificates violate on
    every draw, and sign claims on coefficients without a certificate
    violate on some.  Counts equal the `Fraction` reference."""
    samples = 30
    orders = [ModuliOrder("".join(letters)) for letters in itertools.product("PN", repeat=6)]
    flipped, unproved = [], []
    for order in orders[::8] + list(_single_tie_orders(6))[::16]:
        for k in range(6):
            cert = forced_sign(order, k)
            if cert is not None:
                flipped.append(dataclasses.replace(cert, sign=-cert.sign))
            else:
                unproved.extend(
                    ForcedSignCertificate(order, k, sign, (), ("unmatched-majority", None))
                    for sign in (1, -1)
                )
    assert (len(flipped), len(unproved)) == (74, 68)
    counts = [sample_certificate(c, samples=samples, seed=SEED) for c in flipped + unproved]
    assert counts == [_fraction_violations(c, samples, SEED) for c in flipped + unproved]
    assert counts[: len(flipped)] == [samples] * len(flipped)
    mixed = [n for n in counts[len(flipped):] if 0 < n < samples]
    assert (len(mixed), sum(counts)) == (50, 3240)  # recorded with the Fraction sampler


# ------------------------------------------------------------ pair lemma


def test_pair_lemma_bottom_tie():
    tied = TiedOrder.wall(U(0, 1, 2, 0), U(1, 0, 2, 0))
    assert pair_lemma_blocks(tied, SignPattern.parse("2,1,2,2"))


def test_pair_lemma_top_tie():
    tied = TiedOrder.wall(U(0, 2, 1, 0), U(0, 2, 0, 1))
    assert pair_lemma_blocks(tied, SignPattern.parse("2,1,2,2"))


def test_pair_lemma_mirror_shape():
    assert pair_lemma_blocks(TiedOrder("NPNPPN", (1,)), SignPattern.parse("1,3,2,1"))
    # each shape takes only its own outer signs
    assert not pair_lemma_blocks(TiedOrder("NPNPPN", (1,)), SignPattern.parse("2,1,2,2"))
    assert not pair_lemma_blocks(TiedOrder("PNPNNP", (1,)), SignPattern.parse("1,3,2,1"))


def test_pair_lemma_rejects_other_shapes():
    assert not pair_lemma_blocks(TiedOrder("PPNNNP", (5,)), SignPattern.parse("2,1,2,2"))
    # free letters match but the pattern's outer signs do not
    assert not pair_lemma_blocks(TiedOrder("PNPNNP", (1,)), SignPattern.parse("3,1,2,1"))
    # only degree 6 with a single tie
    assert not pair_lemma_blocks(TiedOrder("PNPNNP", (1, 3)), SignPattern.parse("2,1,2,2"))
    assert not pair_lemma_blocks(TiedOrder("PNNNP", (1,)), SignPattern.parse("2,1,2,1"))


def test_pair_lemma_statement_holds_exactly():
    """a<f<g<b never has both a+b < f+g and 1/a+1/b < 1/f+1/g, in exact
    arithmetic over 10,000 draws of hundredths in (0, 100]."""
    rng = random.Random(SEED)
    sums_below = reciprocals_below = 0
    for _ in range(10_000):
        quad: set[Fraction] = set()
        while len(quad) < 4:
            quad.add(Fraction(rng.randint(1, 10_000), 100))
        a, f, g, b = sorted(quad)
        sum_below = a + b < f + g
        reciprocal_below = 1 / a + 1 / b < 1 / f + 1 / g
        assert not (sum_below and reciprocal_below), (a, f, g, b)
        sums_below += sum_below
        reciprocals_below += reciprocal_below
    assert sums_below > 1000 and reciprocals_below > 1000


def _single_tie_orders(d):
    for letters in itertools.product("PN", repeat=d):
        for r in range(1, d):
            if letters[r - 1] != letters[r]:
                yield TiedOrder("".join(letters), (r,))


def test_pair_lemma_blocks_only_sound_walls():
    """Every wall the predicate blocks is empty of its patterns' outer
    signs: 500 exact integer configurations per wall, tie respected."""
    patterns = [sp for c in range(7) for sp in enumerate_patterns(6, c)]
    assert len(patterns) == 64
    blocked = {}
    for tied in _single_tie_orders(6):
        for sp in patterns:
            if pair_lemma_blocks(tied, sp):
                blocked.setdefault(tied, []).append(sp)
    assert sum(len(sps) for sps in blocked.values()) == 320
    assert len(blocked) == 20

    rng = random.Random(SEED)
    for tied, sps in blocked.items():
        r = tied.tied[0]
        levels = list(itertools.accumulate(0 if rank == r + 1 else 1 for rank in range(1, 7)))
        outer_signs = {(sp.signs[1], sp.signs[5]) for sp in sps}
        assert len(outer_signs) == 1
        (q5, q1), = outer_signs
        q5_seen = q1_seen = 0
        for _ in range(500):
            values = sorted(rng.sample(range(1, 201), 5))
            roots = tuple(
                Fraction(values[lvl - 1] if ch == "P" else -values[lvl - 1])
                for lvl, ch in zip(levels, tied.letters)
            )
            coeffs = expand(RootConfiguration(roots)).coefficients
            q5_here = coeffs[1] * q5 > 0
            q1_here = coeffs[5] * q1 > 0
            assert not (q5_here and q1_here), (tied, roots)
            q5_seen += q5_here
            q1_seen += q1_here
        assert q5_seen and q1_seen, tied


# ------------------------------------------------------------ refute


def test_refute_kinds_and_abstentions():
    def kind(comp, order):
        v = refute(Couple(SignPattern.parse(comp), ModuliOrder(order)))
        assert v is None or v.status is Status.NON_REALIZABLE
        return None if v is None else v.evidence_kind

    assert kind("2,2,2,1", "NPNPNP") == "rigid-order"
    assert kind("2,2,2,1", "PNPNPN") is None  # the rigid order's own pattern
    assert kind("4,1,1,1", "PPNPNN") == "canonical-pattern"
    assert kind("4,1,1,1", "PPPNNN") is None  # the canonical order
    assert kind("2,2,1", "NNPP") == "forced-sign"
    assert kind("3,2,1", "PNNNP") is None  # only frontier exclusion decides it


def test_contradicting_certificate_is_the_first_against_the_pattern():
    sp, order = SignPattern.parse("2,2,1"), ModuliOrder("NNPP")
    cert = contradicting_certificate(order, sp)
    assert cert is not None and cert.order == order
    assert cert.sign != sp.signs[sp.degree - cert.k]
    for k in range(cert.k):
        earlier = forced_sign(order, k)
        assert earlier is None or earlier.sign == sp.signs[sp.degree - k]
    assert refute(Couple(sp, order)).evidence == cert
    # the canonical order is realizable, so nothing may contradict it
    assert contradicting_certificate(canonical_order(sp), sp) is None


def test_refute_is_classify_patterns_certificate_stage(cfg, store):
    sp = SignPattern.parse("2,2,2,1")
    table = classify_pattern(sp, cfg, store)
    staged = ("rigid-order", "canonical-pattern", "forced-sign")
    for order, verdict in table.items():
        refuted = refute(Couple(sp, order))
        if verdict.evidence_kind in staged:
            assert refuted == verdict
        else:
            assert refuted is None


# ------------------------------------------------------------ propagation


def _seed_table(sp, nonreal, real):
    table = {}
    for order in compatible_orders(sp):
        couple = Couple(sp, order)
        if order in nonreal:
            table[order] = Verdict(couple, Status.NON_REALIZABLE, "forced-sign")
        elif order in real:
            table[order] = Verdict(couple, Status.REALIZABLE, "witness")
        else:
            table[order] = Verdict(couple, Status.UNKNOWN, "none")
    return table


def test_propagation_kills_enclosed_order():
    sp = SignPattern.parse("3,1,2,1")
    walls = {U(1, 1, 0, 1), U(2, 0, 1, 0)}
    table = propagate(sp, _seed_table(sp, walls, {canonical_order(sp)}))
    verdict = table[U(2, 0, 0, 1)]
    assert verdict.status is Status.NON_REALIZABLE
    assert verdict.evidence_kind == "propagation"
    assert set(verdict.evidence) == walls


def test_propagation_needs_a_realizable_order():
    sp = SignPattern.parse("3,1,2,1")
    table = propagate(sp, _seed_table(sp, {U(1, 1, 0, 1), U(2, 0, 1, 0)}, set()))
    assert table[U(2, 0, 0, 1)].status is Status.UNKNOWN


def test_propagation_requires_full_coverage():
    sp = SignPattern.parse("3,1,2,1")
    table = _seed_table(sp, set(), {canonical_order(sp)})
    del table[U(2, 0, 0, 1)]
    with pytest.raises(ValueError):
        propagate(sp, table)


def test_frontier_does_not_seal_crossable_regions():
    # stage-one table for the pattern with five non-realizable orders: the
    # Unknown region still contains twelve realizable orders, so at least
    # one exit wall must stay open and the exclusion must do nothing
    sp = SignPattern.parse("2,2,2,1")
    nonreal = {U(1, 1, 1, 0), U(3, 0, 0, 0), U(2, 1, 0, 0), U(1, 2, 0, 0), U(2, 0, 1, 0)}
    table = _seed_table(sp, nonreal, {U(0, 1, 1, 1)})
    after = frontier_exclusion(sp, table)
    assert {o: v.status for o, v in after.items()} == {
        o: v.status for o, v in table.items()
    }


def test_frontier_needs_an_anchor():
    sp = SignPattern.parse("3,1,2,1")
    table = _seed_table(sp, {U(1, 1, 0, 1), U(2, 0, 1, 0)}, set())
    assert frontier_exclusion(sp, table) == table


# ------------------------------------------------ full pattern classification


def _statuses(table):
    return {order.letters: verdict.status for order, verdict in table.items()}


def test_classify_three_changes_first(cfg, store):
    table = classify_pattern(SignPattern.parse("3,1,2,1"), cfg, store)
    statuses = _statuses(table)
    assert {o for o, s in statuses.items() if s is Status.REALIZABLE} == {
        "PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN", "NPPPNN"
    }
    assert Status.UNKNOWN not in statuses.values()

    prop = table[U(2, 0, 0, 1)]
    assert prop.evidence_kind == "propagation"
    assert set(prop.evidence) == {U(1, 1, 0, 1), U(2, 0, 1, 0)}

    # the matcher finds direct certificates for two orders the frontier
    # argument would otherwise have to cover
    for u in ((0, 2, 1, 0), (0, 1, 2, 0)):
        direct = table[U(*u)]
        assert direct.evidence_kind == "forced-sign"
        assert direct.evidence.k == 4 and direct.evidence.sign == -1

    sealed = table[U(0, 0, 3, 0)]
    assert sealed.evidence_kind == "frontier"
    assert isinstance(sealed.evidence, FrontierEvidence)
    assert {order_to_uvector(o).u for o in sealed.evidence.region} == {(0, 0, 3, 0)}
    reasons = {(u.letters, v.letters): why for u, v, why in sealed.evidence.blocks}
    assert reasons[(U(0, 0, 3, 0).letters, U(0, 0, 2, 1).letters)] == (
        "boundary forces q_4 negative"
    )
    assert reasons[(U(0, 0, 3, 0).letters, U(0, 1, 2, 0).letters)] == (
        "target [0,1,2,0] non-realizable"
    )


def test_classify_second_pattern_uses_pair_lemma(cfg, store):
    table = classify_pattern(SignPattern.parse("2,1,2,2"), cfg, store)
    statuses = _statuses(table)
    assert {o for o, s in statuses.items() if s is Status.REALIZABLE} == {
        "PNNPPN", "NPPPNN", "NPPNPN", "NPPNNP", "NPNPPN", "NNPPPN"
    }
    assert Status.UNKNOWN not in statuses.values()

    sealed = table[U(0, 3, 0, 0)]
    assert sealed.evidence_kind == "frontier"
    assert {order_to_uvector(o).u for o in sealed.evidence.region} == {
        (0, 0, 3, 0), (0, 1, 2, 0), (0, 2, 1, 0), (0, 3, 0, 0)
    }
    reasons = {(u.letters, v.letters): why for u, v, why in sealed.evidence.blocks}
    assert reasons[("PNPNNP", "NPPNNP")] == "boundary infeasible by pair lemma"
    assert reasons[("PNNPNP", "PNNPPN")] == "boundary infeasible by pair lemma"


def test_classify_fifteen_of_twenty(cfg, store):
    table = classify_pattern(SignPattern.parse("2,2,2,1"), cfg, store)
    statuses = _statuses(table)
    assert {o for o, s in statuses.items() if s is Status.NON_REALIZABLE} == {
        "NPNPNP", "NPNNPP", "NNPPNP", "NNPNPP", "NNNPPP"
    }
    assert Status.UNKNOWN not in statuses.values()
    for letters in ("NPNNPP", "NNPPNP", "NNPNPP", "NNNPPP"):
        verdict = table[ModuliOrder(letters)]
        assert verdict.evidence_kind == "forced-sign"
        assert verdict.evidence.k == 1 and verdict.evidence.sign == -1
    assert table[ModuliOrder("NPNPNP")].evidence_kind == "rigid-order"


def test_classify_fourth_pattern(cfg, store):
    table = classify_pattern(SignPattern.parse("3,2,1,1"), cfg, store)
    statuses = _statuses(table)
    assert {o for o, s in statuses.items() if s is Status.REALIZABLE} == {
        "PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN"
    }
    assert Status.UNKNOWN not in statuses.values()
    sealed = table[U(1, 0, 0, 2)]
    assert sealed.evidence_kind == "frontier"
    assert {order_to_uvector(o).u for o in sealed.evidence.region} == {
        (0, 0, 3, 0), (1, 0, 0, 2)
    }
    reasons = {(u.letters, v.letters): why for u, v, why in sealed.evidence.blocks}
    assert reasons[("NPPPNN", "PNPPNN")] == "boundary forces q_2 positive"
    assert reasons[("PPNNNP", "PPNNPN")] == "boundary forces q_4 negative"


def test_one_exclusion_round_is_a_fixed_point():
    rounds_that_decide = 0
    for d in range(3, 7):
        for changes in range(d + 1):
            for sp in enumerate_patterns(d, changes):
                table = {}
                for order in compatible_orders(sp):
                    couple = Couple(sp, order)
                    w = constructive_witness(couple)
                    if w is not None:
                        table[order] = Verdict(couple, Status.REALIZABLE, "witness", w)
                    else:
                        table[order] = refute(couple) or Verdict(couple, Status.UNKNOWN, "none")
                once = frontier_exclusion(sp, propagate(sp, table))
                twice = frontier_exclusion(sp, propagate(sp, once))
                statuses = {o: v.status for o, v in once.items()}
                assert {o: v.status for o, v in twice.items()} == statuses, sp
                rounds_that_decide += statuses != {o: v.status for o, v in table.items()}
    assert rounds_that_decide > 0


def test_classification_commutes_with_sign_flip(cfg, store):
    from hypmoduli.symmetry import apply_im

    sp = SignPattern.parse("3,1,2,1")
    base = classify_pattern(sp, cfg, store)
    image = classify_pattern(apply_im(sp), cfg, store)
    for order, verdict in base.items():
        assert image[apply_im(order)].status is verdict.status


# ------------------------------------------------------------ single couples


def test_decide_rigid_order(cfg, store):
    verdict = classify_pattern(SignPattern.parse("3,1,2,1"), cfg, store)[ModuliOrder("PNPNPN")]
    assert verdict.status is Status.NON_REALIZABLE
    assert verdict.evidence_kind == "rigid-order"
    assert verdict.citation == "rigid-orders"


def test_decide_canonical_couple(cfg, store):
    verdict = classify_pattern(SignPattern.parse("1,3,1,2"), cfg, store)[ModuliOrder("NPPNNP")]
    assert verdict.status is Status.REALIZABLE
    assert verdict.citation == "canonical-realizable"
    assert verdict.evidence.is_valid()


def test_decide_forced_sign(cfg, store):
    verdict = classify_pattern(SignPattern.parse("2,1,2,2"), cfg, store)[U(2, 1, 0, 0)]
    assert verdict.status is Status.NON_REALIZABLE
    assert verdict.evidence_kind == "forced-sign"
    assert verdict.evidence.k == 5 and verdict.evidence.sign == -1


def test_contradiction_on_corrupt_store(cfg, store):
    killed = Couple(SignPattern.parse("2,1,2,2"), U(2, 1, 0, 0))
    corrupt = dict(store)
    corrupt[killed] = rigid_witness(ModuliOrder("PNPNPN"))
    with pytest.raises(ContradictionError):
        classify_pattern(killed.sp, cfg, corrupt)
