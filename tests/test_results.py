"""Encoded classification table, counts, and report generation."""

from collections import Counter
from fractions import Fraction

import pytest

from hypmoduli.certify import Status, classify_pattern
from hypmoduli.patterns import (
    Couple,
    ModuliOrder,
    SignPattern,
    UVector,
    canonical_order,
    compatible_orders,
    descartes_counts,
    enumerate_patterns,
    order_to_uvector,
    uvector_to_order,
)
from hypmoduli.published import published_witnesses
from hypmoduli.results import (
    LITERATURE_RATIOS,
    VERDICTS_HEADER,
    builtin_table,
    counts_and_ratio,
    save_verdicts,
    verdict_rows,
    verify_paper,
)
from hypmoduli.search import SamplerConfig
from hypmoduli.symmetry import apply_im, apply_ir

SEED = 20260823


def U(*u):
    return uvector_to_order(UVector(tuple(u)))


@pytest.fixture(scope="module")
def table6():
    return builtin_table(6)


# ------------------------------------------------------------ builtin table


def _by_changes(couples):
    counts = Counter(descartes_counts(c.sp)[0] for c in couples)
    return [counts[c] for c in range(7)]


def test_full_table_covers_all_couples(table6):
    assert len(table6.entries) == 924
    assert _by_changes(table6.entries) == [1, 36, 225, 400, 225, 36, 1]


def test_stratum_realizable_counts(table6):
    realizable = [c for c, v in table6.entries.items() if v.status is Status.REALIZABLE]
    assert _by_changes(realizable) == [1, 18, 69, 90, 69, 18, 1]


def test_three_change_representatives(table6):
    expected = {
        "3,1,2,1": {"PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN", "NPPPNN"},
        "2,1,2,2": {"PNNPPN", "NPPPNN", "NPPNPN", "NPPNNP", "NPNPPN", "NNPPPN"},
        "3,2,1,1": {"PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN"},
    }
    for comp, letters in expected.items():
        sp = SignPattern.parse(comp)
        got = {
            o.letters
            for o in compatible_orders(sp)
            if table6.status(Couple(sp, o)) is Status.REALIZABLE
        }
        assert got == letters, comp
        assert table6.entries[Couple(sp, ModuliOrder("PPPNNN"))].citation == "deg6-c3-theorem"

    sp = SignPattern.parse("2,2,2,1")
    bad = {
        o.letters
        for o in compatible_orders(sp)
        if table6.status(Couple(sp, o)) is Status.NON_REALIZABLE
    }
    assert bad == {"NPNPNP", "NPNNPP", "NNPPNP", "NNPNPP", "NNNPPP"}


def test_single_realizable_order_for_canonical_pattern(table6):
    sp = SignPattern.parse("4,1,1,1")
    verdicts = [table6.entries[Couple(sp, o)] for o in compatible_orders(sp)]
    real = [v for v in verdicts if v.status is Status.REALIZABLE]
    assert len(real) == 1 and real[0].couple.order.letters == "PPPNNN"
    assert real[0].citation == "canonical-realizable"
    assert all(
        v.citation == "canonical-only" for v in verdicts if v.status is Status.NON_REALIZABLE
    )


def test_two_change_table_rows(table6):
    sp = SignPattern.parse("3,2,2")
    assert table6.status(Couple(sp, U(4, 0, 0))) is Status.NON_REALIZABLE
    assert table6.entries[Couple(sp, U(4, 0, 0))].citation == "deg6-c2-table"
    assert table6.status(Couple(sp, U(0, 0, 4))) is Status.REALIZABLE

    sp = SignPattern.parse("2,3,2")
    assert all(
        table6.status(Couple(sp, o)) is Status.REALIZABLE for o in compatible_orders(sp)
    )

    sp = SignPattern.parse("2,4,1")
    got = {
        order_to_uvector(o).u
        for o in compatible_orders(sp)
        if table6.status(Couple(sp, o)) is Status.REALIZABLE
    }
    assert got == {(0, 2, 2), (0, 3, 1), (0, 4, 0)}


def test_two_change_canonical_couples(table6):
    # the canonical two-change couples: (1,5,1) with [0,4,0] and each
    # (m,1,q) with [q-1, 0, m-1]
    sp = SignPattern.parse("1,5,1")
    assert canonical_order(sp) == U(0, 4, 0)
    assert table6.status(Couple(sp, U(0, 4, 0))) is Status.REALIZABLE
    for m in range(1, 6):
        q = 6 - m
        sp = SignPattern.parse(f"{m},1,{q}")
        assert canonical_order(sp) == U(q - 1, 0, m - 1)
        reals = [
            o
            for o in compatible_orders(sp)
            if table6.status(Couple(sp, o)) is Status.REALIZABLE
        ]
        assert reals == [U(q - 1, 0, m - 1)]


def test_one_change_bounds(table6):
    per_pattern = []
    for m1 in range(1, 7):
        sp = SignPattern.parse(f"{m1},{7 - m1}")
        per_pattern.append(
            sum(
                table6.status(Couple(sp, o)) is Status.REALIZABLE
                for o in compatible_orders(sp)
            )
        )
    assert per_pattern == [1, 3, 5, 5, 3, 1]
    sp = SignPattern.parse("2,5")
    assert table6.status(Couple(sp, U(4, 1))) is Status.REALIZABLE
    assert table6.status(Couple(sp, U(2, 3))) is Status.NON_REALIZABLE
    assert table6.entries[Couple(sp, U(2, 3))].citation == "deg6-c1-bounds"


def test_extreme_strata(table6):
    (all_plus,) = enumerate_patterns(6, 0)
    assert table6.status(Couple(all_plus, ModuliOrder("NNNNNN"))) is Status.REALIZABLE
    (alternating,) = enumerate_patterns(6, 6)
    assert table6.status(Couple(alternating, ModuliOrder("PPPPPP"))) is Status.REALIZABLE


def test_table_is_group_equivariant(table6):
    for couple, verdict in table6.entries.items():
        assert table6.status(apply_im(couple)) is verdict.status
        assert table6.status(apply_ir(couple)) is verdict.status


def test_only_degree_six_is_encoded():
    for d in (0, 5, 7):
        with pytest.raises(ValueError, match="unsupported degree"):
            builtin_table(d)


def test_pipeline_reproduces_literature_ratios_below_six():
    # the pipeline is the oracle below degree six: it decides every couple,
    # and its realizable share is the quoted ratio
    cfg = SamplerConfig(seed=0, budget=10_000)
    for d in range(1, 6):
        realizable = total = 0
        for changes in range(d + 1):
            for sp in enumerate_patterns(d, changes):
                for verdict in classify_pattern(sp, cfg, {}).values():
                    assert verdict.status is not Status.UNKNOWN, verdict.couple
                    realizable += verdict.status is Status.REALIZABLE
                    total += 1
        assert Fraction(realizable, total) == LITERATURE_RATIOS[d], d


# ------------------------------------------------------------ counting


def test_counts_and_ratio_degree_six():
    # the pipeline's counts; each of the 924 verdicts agrees with the
    # encoded table, or counts_and_ratio raises ContradictionError
    report = counts_and_ratio(6)
    assert report.ratio == Fraction(19, 66)
    assert dict(report.realizable_by_changes) == {
        0: 1, 1: 18, 2: 69, 3: 90, 4: 69, 5: 18, 6: 1
    }
    assert dict(report.totals_by_changes) == {
        0: 1, 1: 36, 2: 225, 3: 400, 4: 225, 5: 36, 6: 1
    }
    assert report.ratio_sequence == (
        Fraction(1), Fraction(2, 3), Fraction(3, 5), Fraction(3, 7),
        Fraction(47, 126), Fraction(19, 66),
    )
    assert report.successive_ratios == (
        Fraction(2, 3), Fraction(9, 10), Fraction(5, 7), Fraction(47, 54),
        Fraction(399, 517),
    )
    assert sorted(report.c3_orbit_products) == sorted(
        [(5, 4), (6, 4), (15, 2), (4, 2), (1, 4), (1, 2), (1, 2)]
    )
    assert sum(n * k for n, k in report.c3_orbit_products) == 90
    assert "19/66" in report.render()


def test_counts_below_six_come_from_the_pipeline():
    report = counts_and_ratio(5)
    assert dict(report.realizable_by_changes) == {0: 1, 1: 13, 2: 33, 3: 33, 4: 13, 5: 1}
    assert dict(report.totals_by_changes) == {0: 1, 1: 25, 2: 100, 3: 100, 4: 25, 5: 1}
    assert report.ratio == Fraction(47, 126)
    assert report.ratio_sequence == tuple(LITERATURE_RATIOS[d] for d in range(1, 6)) == (
        Fraction(1), Fraction(2, 3), Fraction(3, 5), Fraction(3, 7), Fraction(47, 126)
    )
    assert report.c3_orbit_products is None
    for d in range(1, 5):
        lower = counts_and_ratio(d)
        assert lower.ratio == LITERATURE_RATIOS[d]
        assert lower.ratio_sequence == report.ratio_sequence[:d]
    with pytest.raises(ValueError):
        counts_and_ratio(7)


# ------------------------------------------------- published-example report


@pytest.fixture(scope="module")
def paper_report():
    return verify_paper()


def test_all_claimed_couples_confirmed(paper_report):
    assert len(paper_report.rows) == 13
    assert paper_report.all_couples_confirmed


def test_known_print_typos_are_itemized(paper_report):
    flagged = {
        (r.row.composition, r.row.order): [c.k for c in r.mismatches]
        for r in paper_report.rows
        if r.mismatches
    }
    assert flagged == {
        ("3,1,2,1", "PPPNNN"): [5, 4, 3, 2, 1, 0],
        ("2,1,2,2", "NPPNPN"): [2],
    }


def test_remaining_rows_match_at_printed_precision(paper_report):
    clean = [r for r in paper_report.rows if not r.mismatches]
    assert len(clean) == 11
    for r in clean:
        assert all(c.category in ("exact", "rounded") for c in r.checks)


def test_verify_paper_parses_each_row_once(monkeypatch):
    from hypmoduli.published import PublishedRow

    parsed = []
    original = PublishedRow.configuration

    def counted(row):
        parsed.append((row.composition, row.order))
        return original(row)

    monkeypatch.setattr(PublishedRow, "configuration", counted)
    report = verify_paper()
    assert len(parsed) == len(set(parsed)) == len(report.rows) == 13


def test_tie_perturbation_applied_to_unit_pairs(paper_report):
    tied = {(r.row.composition, r.row.order) for r in paper_report.rows if r.tie_resolved}
    assert len(tied) == 7
    assert ("3,1,2,1", "PPPNNN") in tied and ("2,1,2,2", "PNNPPN") not in tied


def test_first_row_printed_line_matches_other_roots():
    # the printed coefficients of the first row are the exact expansion of
    # a configuration with -1.02 and -8 in place of -1.01 and -9 (same
    # couple); kept as evidence that the mismatch is a print slip
    from hypmoduli.poly import RootConfiguration, expand, format_exact

    rc = RootConfiguration.parse(["0.39", "0.4", "1", "-1", "-1.02", "-8"])
    printed = ["8.23", "0.1902", "-13.26928", "0.08276", "5.03928", "-1.27296"]
    assert [format_exact(c) for c in expand(rc)[1:]] == printed


def test_report_renders_summary_line(paper_report):
    text = paper_report.render()
    assert "11/13 rows match at printed precision" in text
    assert "couples confirmed: 13/13" in text


# ------------------------------------------------------------ verdict export


def test_verdict_rows_format(table6, tmp_path):
    sp = SignPattern.parse("3,1,2,1")
    verdicts = [table6.entries[Couple(sp, o)] for o in compatible_orders(sp)]
    text = verdict_rows(verdicts)
    lines = text.strip().split("\n")
    assert lines[0] == VERDICTS_HEADER
    assert len(lines) == 21
    row = next(l for l in lines[1:] if "\tPPPNNN\t" in l)
    assert row.split("\t") == [
        "+++-++-", "3,1,2,1", "PPPNNN", "[0,0,0,3]", "Realizable", "citation",
        "deg6-c3-theorem",
    ]
    path = tmp_path / "verdicts.tsv"
    save_verdicts(verdicts, path)
    assert path.read_text(encoding="utf-8") == text


# ------------------------------------------------------------ cross-check


def test_pipeline_agrees_with_table_on_strata_with_full_machinery(table6):
    # a seed and budget other than the defaults `counts_and_ratio` runs,
    # with the published witnesses stored
    patterns = [
        *enumerate_patterns(6, 0),
        *enumerate_patterns(6, 1),
        SignPattern.parse("3,1,2,1"),
    ]
    cfg = SamplerConfig(seed=SEED, budget=60_000)
    store = {w.couple: w for w in published_witnesses()}
    checked = 0
    for sp in patterns:
        for verdict in classify_pattern(sp, cfg, store).values():
            assert verdict.status is table6.status(verdict.couple), verdict.couple
            checked += 1
    assert checked == 1 + 36 + 20
