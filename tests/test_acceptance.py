"""Acceptance checks, one test per criterion.

Each test prints a single verdict line on success; a failing criterion
fails its test with the usual assertion detail.
"""

import test_properties as properties

from hypmoduli.certify import (
    Status,
    TiedOrder,
    Verdict,
    forced_sign,
    classify_pattern,
    propagate,
    sample_certificate,
    verify_certificate,
)
from hypmoduli.patterns import (
    Couple,
    SignPattern,
    UVector,
    canonical_order,
    compatible_orders,
    is_canonical_pattern,
    order_to_uvector,
    uvector_to_order,
)
from hypmoduli.published import published_witnesses
from hypmoduli.results import counts_and_ratio, verify_paper
from hypmoduli.search import SamplerConfig, transport
from hypmoduli.symmetry import GROUP_ELEMENTS, apply_group, orbit_of, orbits

SEED = 20260823


def U(*xs):
    return uvector_to_order(UVector(tuple(xs)))


def _report(n, text):
    print(f"criterion {n}: PASS — {text}")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_published_rows_digit_for_digit():
    report = verify_paper()
    assert len(report.rows) == 13
    assert report.all_couples_confirmed

    flagged = {}
    for row in report.rows:
        if row.mismatches:
            couple = row.row.couple
            key = (str(couple.sp.composition()), couple.order.letters)
            flagged[key] = sorted(c.k for c in row.mismatches)
    assert flagged == {
        ("3,1,2,1", "PPPNNN"): [0, 1, 2, 3, 4, 5],
        ("2,1,2,2", "NPPNPN"): [2],
    }

    clean = [row for row in report.rows if not row.mismatches]
    assert len(clean) == 11
    for row in clean:
        assert all(c.category in ("exact", "rounded") for c in row.checks)
    assert sum(1 for row in report.rows if row.tie_resolved) == 7

    rendered = report.render()
    assert "11/13 rows match at printed precision; couples confirmed: 13/13" in rendered
    assert "q_2: printed 2380.426651" in rendered
    _report(1, "13 published rows confirmed; the two deviating rows are itemized")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_three_change_orbits_and_canonicality():
    expected = [
        {"3,1,2,1", "1,2,1,3", "2,3,1,1", "1,1,3,2"},
        {"1,4,1,1", "1,1,4,1", "3,1,1,2", "2,1,1,3"},
        {"2,1,2,2", "2,2,1,2", "1,2,3,1", "1,3,2,1"},
        {"4,1,1,1", "1,1,1,4"},
        {"2,2,2,1", "1,2,2,2"},
        {"3,2,1,1", "1,1,2,3"},
        {"1,3,1,2", "2,1,3,1"},
    ]
    found = [
        {str(sp.composition()) for sp in orb.members} for orb in orbits(6, 3)
    ]
    assert sorted(map(sorted, found)) == sorted(map(sorted, expected))

    canonical = {
        comp
        for orb in orbits(6, 3)
        for sp in orb.members
        if is_canonical_pattern(sp)
        for comp in [str(sp.composition())]
    }
    assert canonical == (
        {"1,4,1,1", "1,1,4,1", "3,1,1,2", "2,1,1,3"}
        | {"4,1,1,1", "1,1,1,4"}
        | {"1,3,1,2", "2,1,3,1"}
    )

    canonical_couples = {
        comp: canonical_order(SignPattern.parse(comp)).letters for comp in canonical
    }
    assert canonical_couples == {
        "1,4,1,1": "PPNNNP",
        "1,1,4,1": "PNNNPP",
        "3,1,1,2": "NPPPNN",
        "2,1,1,3": "NNPPPN",
        "4,1,1,1": "PPPNNN",
        "1,1,1,4": "NNNPPP",
        "1,3,1,2": "NPPNNP",
        "2,1,3,1": "PNNPPN",
    }
    _report(2, "seven orbits with the expected members; canonical patterns are "
               "exactly the three canonical orbits")


# --------------------------------------------------------------- criterion 3


THEOREM_REALIZABLE = {
    "3,1,2,1": {"PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN", "NPPPNN"},
    "2,1,2,2": {"PNNPPN", "NPPPNN", "NPPNPN", "NPPNNP", "NPNPPN", "NNPPPN"},
    "3,2,1,1": {"PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN"},
}
NON_REALIZABLE_2221 = {"NPNPNP", "NPNNPP", "NNPPNP", "NNPNPP", "NNNPPP"}


def test_criterion_3_full_classification_of_the_four_representatives():
    cfg = SamplerConfig(seed=SEED, budget=1_000_000)
    store = {w.couple: w for w in published_witnesses()}
    for comp in ("3,1,2,1", "2,1,2,2", "2,2,2,1", "3,2,1,1"):
        sp = SignPattern.parse(comp)
        table = classify_pattern(sp, cfg, store)  # raises on any contradiction
        assert len(table) == 20
        assert all(v.status is not Status.UNKNOWN for v in table.values())
        realized = {
            o.letters for o, v in table.items() if v.status is Status.REALIZABLE
        }
        if comp == "2,2,2,1":
            expected = {o.letters for o in compatible_orders(sp)} - NON_REALIZABLE_2221
        else:
            expected = THEOREM_REALIZABLE[comp]
        assert realized == expected
        for order, verdict in table.items():
            if verdict.status is Status.REALIZABLE:
                verdict.evidence.validate()
    _report(3, "all four representatives fully classified with zero "
               "contradictions; realizable sets match the published theorem")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_counting_report():
    report = counts_and_ratio(6)
    assert tuple(report.realizable_by_changes) == (
        (0, 1), (1, 18), (2, 69), (3, 90), (4, 69), (5, 18), (6, 1),
    )
    assert tuple(report.totals_by_changes) == (
        (0, 1), (1, 36), (2, 225), (3, 400), (4, 225), (5, 36), (6, 1),
    )
    assert sum(t for _, t in report.totals_by_changes) == 924
    assert str(report.ratio) == "19/66"
    assert [str(r) for r in report.ratio_sequence] == [
        "1", "2/3", "3/5", "3/7", "47/126", "19/66",
    ]
    assert [str(r) for r in report.successive_ratios] == [
        "2/3", "9/10", "5/7", "47/54", "399/517",
    ]
    assert sorted(report.c3_orbit_products) == sorted(
        [(15, 2), (6, 4), (5, 4), (4, 2), (1, 4), (1, 2), (1, 2)]
    )
    assert sum(n * k for n, k in report.c3_orbit_products) == 90
    _report(4, "all stratum counts, the 19/66 ratio, and both ratio sequences "
               "reproduced")


# --------------------------------------------------------------- criterion 5


def _pattern_sign(sp, k):
    return sp.signs[sp.degree - k]


CERTIFICATE_CORPUS = [
    # top- and bottom-coefficient kills for the six-realizable pattern
    ("2,1,2,2", U(3, 0, 0, 0), 5, -1),
    ("2,1,2,2", U(2, 1, 0, 0), 5, -1),
    ("2,1,2,2", U(1, 2, 0, 0), 5, -1),
    ("2,1,2,2", U(2, 0, 1, 0), 5, -1),
    ("2,1,2,2", U(0, 0, 0, 3), 1, +1),
    ("2,1,2,2", U(0, 1, 0, 2), 1, +1),
    ("2,1,2,2", U(0, 0, 1, 2), 1, +1),
    ("2,1,2,2", U(0, 0, 2, 1), 1, +1),
    # the shared q_4 kills used by both five- and four-realizable patterns
    ("3,1,2,1", U(1, 1, 0, 1), 4, -1),
    ("3,1,2,1", U(1, 0, 1, 1), 4, -1),
    ("3,2,1,1", U(1, 1, 0, 1), 4, -1),
    ("3,2,1,1", U(1, 0, 1, 1), 4, -1),
    # q_1 kills for the fifteen-realizable pattern
    ("2,2,2,1", U(1, 2, 0, 0), 1, -1),
    ("2,2,2,1", U(2, 0, 1, 0), 1, -1),
    ("2,2,2,1", U(2, 1, 0, 0), 1, -1),
    ("2,2,2,1", U(3, 0, 0, 0), 1, -1),
    # tied-order boundary certificates backing the frontier exclusions
    ("3,1,2,1", TiedOrder("PPNNNP", (5,)), 4, -1),
    ("3,2,1,1", TiedOrder("NPPPNN", (1,)), 2, +1),
]


def test_criterion_5_certificate_corpus_verified_and_sampled():
    for comp, order, k, sign in CERTIFICATE_CORPUS:
        sp = SignPattern.parse(comp)
        cert = forced_sign(order, k)
        assert cert is not None, (comp, str(order), k)
        assert cert.sign == sign
        assert cert.sign != _pattern_sign(sp, k)  # the kill is real
        assert verify_certificate(cert)
        assert sample_certificate(cert, samples=10_000, seed=SEED) == 0
    _report(5, f"{len(CERTIFICATE_CORPUS)} forced-sign certificates verified "
               "and sampled clean at 10^4 configurations each")


# --------------------------------------------------------------- criterion 6


def _partial_table(sp, nonreal, real):
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


def test_criterion_6_propagation_derives_the_two_enclosed_orders():
    # five-realizable pattern: both neighbours of [2,0,0,1] are certified dead
    sp = SignPattern.parse("3,1,2,1")
    walls = {U(1, 1, 0, 1), U(2, 0, 1, 0)}
    table = propagate(sp, _partial_table(sp, walls, {canonical_order(sp)}))
    verdict = table[U(2, 0, 0, 1)]
    assert verdict.status is Status.NON_REALIZABLE
    assert verdict.evidence_kind == "propagation"
    assert set(verdict.evidence) == walls

    # four-realizable pattern: all three neighbours of [0,2,0,1] are dead
    sp = SignPattern.parse("3,2,1,1")
    walls = {U(0, 1, 1, 1), U(0, 2, 1, 0), U(1, 1, 0, 1)}
    table = propagate(sp, _partial_table(sp, walls, {canonical_order(sp)}))
    verdict = table[U(0, 2, 0, 1)]
    assert verdict.status is Status.NON_REALIZABLE
    assert verdict.evidence_kind == "propagation"
    assert set(verdict.evidence) == walls
    _report(6, "[2,0,0,1] and [0,2,0,1] derived by neighbour propagation with "
               "the expected traces")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_property_suites_at_full_size():
    for d in range(1, 9):
        properties.test_group_laws_on_patterns(d)
        properties.test_group_laws_on_orders(d)
        properties.test_orbits_partition_patterns(d)
        properties.test_orbit_listing_covers_paired_strata(d)
        properties.test_pattern_representation_round_trips(d)
        properties.test_order_uvector_round_trips(d)
        properties.test_uvector_neighbor_relation_is_symmetric_unit_transfer(d)
    properties.test_expansion_matches_vieta_on_thousand_configurations()
    for text in ("+----+-", "++++-+-", "+---+--"):
        properties.test_canonical_patterns_realize_only_their_canonical_order(text)
    properties.test_census_on_non_canonical_pattern_spreads_over_realizable_orders()
    properties.test_mc_search_is_deterministic_byte_for_byte()
    properties.test_derive_seed_is_stable_and_couple_sensitive()
    _report(7, "involution, round-trip, Vieta, MC canonicality, and "
               "determinism suites all hold at full size")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_symmetry_transport_closes_every_orbit():
    witnesses = published_witnesses()
    assert len(witnesses) == 13
    for witness in witnesses:
        orbit = orbit_of(witness.couple)
        covered = {witness.couple}
        for g in GROUP_ELEMENTS:
            if g == "id":
                continue
            moved = transport(witness, g)
            moved.validate()
            assert moved.couple == apply_group(g, witness.couple)
            covered.add(moved.couple)
        assert covered == set(orbit.members)
        assert orbit.size in (2, 4)
    _report(8, "negating/inverting the roots of all 13 stored witnesses yields "
               "validated witnesses covering each couple's full orbit")
