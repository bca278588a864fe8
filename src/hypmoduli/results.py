"""Encoded degree-6 ground truth, counting, and verification reports.

The classification of (sign pattern, order of moduli) couples for degree 6
is complete in the literature; this module stores it as a citation-backed
verdict table, counts the decision pipeline's verdicts at each degree up to
six (diffing degree 6 against the encoded table), and checks the published
example polynomials against exact re-expansion.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .certify import ContradictionError, Status, Verdict, classify_pattern
from .patterns import (
    Couple,
    ModuliOrder,
    SignPattern,
    UVector,
    canonical_order,
    compatible_orders,
    descartes_counts,
    enumerate_patterns,
    is_canonical_pattern,
    order_to_uvector,
    uvector_to_order,
)
from .poly import couple_of, expand, format_exact, parse_exact, resolve_ties, tied_pairs_of
from .published import PublishedRow, published_rows
from .symmetry import GROUP_ELEMENTS, apply_group, orbits

CITE_THEOREM = "deg6-c3-theorem"
CITE_CANONICAL = "canonical-realizable"
CITE_CANONICAL_ONLY = "canonical-only"
CITE_RIGID = "rigid-orders"
CITE_C1 = "deg6-c1-bounds"
CITE_C2 = "deg6-c2-table"

# realizable orders for the four non-canonical orbit representatives with
# three sign changes (the remaining sixteen patterns follow by symmetry)
THEOREM_REALIZABLE = {
    "3,1,2,1": frozenset({"PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN", "NPPPNN"}),
    "2,1,2,2": frozenset({"PNNPPN", "NPPPNN", "NPPNPN", "NPPNNP", "NPNPPN", "NNPPPN"}),
    "3,2,1,1": frozenset({"PPPNNN", "PPNPNN", "PPNNPN", "PNPPNN"}),
}
THEOREM_NON_REALIZABLE = {
    "2,2,2,1": frozenset({"NPNPNP", "NPNNPP", "NNPPNP", "NNPNPP", "NNNPPP"}),
}

# realizable uvectors for the two-change table rows (non-canonical patterns
# only; their mirror images follow by symmetry); None means every
# compatible order
C2_TABLE_REALIZABLE = {
    "2,4,1": frozenset({(0, 2, 2), (0, 3, 1), (0, 4, 0)}),
    "3,3,1": frozenset({(1, 0, 3), (0, 0, 4), (0, 1, 3), (0, 2, 2), (0, 3, 1), (0, 4, 0)}),
    "4,2,1": frozenset({(1, 0, 3), (0, 0, 4), (0, 1, 3), (0, 2, 2)}),
    "2,3,2": None,
    "3,2,2": frozenset(
        {u.u for u in (order_to_uvector(o) for o in compatible_orders(SignPattern.parse("3,2,2")))}
        - {(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0)}
    ),
}

# literature constants: realizable/total ratios for degrees below six, the
# oracle that the counts decided by the pipeline are tested against
LITERATURE_RATIOS = {
    1: Fraction(1),
    2: Fraction(2, 3),
    3: Fraction(3, 5),
    4: Fraction(3, 7),
    5: Fraction(47, 126),
}

VERDICTS_HEADER = "hypmoduli-verdicts v1"


# ------------------------------------------------------------ builtin table


@dataclass(frozen=True)
class ClassificationTable:
    """Verdicts for every compatible couple of one degree, each carrying a
    citation key."""

    degree: int
    entries: dict[Couple, Verdict]

    def status(self, couple: Couple) -> Status:
        return self.entries[couple].status


def _one_change_realizable(sp: SignPattern, order: ModuliOrder) -> bool:
    """Single-sign-change rule: for composition (m1, m2) the order with
    uvector [u1, u2] is realizable iff u2 <= 2*m1 - 2 when m1 < m2, and
    iff u1 <= 2*m2 - 2 when m2 < m1."""
    m1, m2 = sp.composition().runs
    u1, u2 = order_to_uvector(order).u
    if m1 < m2:
        return u2 <= 2 * m1 - 2
    return u1 <= 2 * m2 - 2


def _base_verdicts_d6() -> dict[Couple, tuple[Status, str]]:
    base: dict[Couple, tuple[Status, str]] = {}

    def fill(sp: SignPattern, realizable: set[str], cite: str) -> None:
        for order in compatible_orders(sp):
            status = Status.REALIZABLE if order.letters in realizable else Status.NON_REALIZABLE
            base[Couple(sp, order)] = (status, cite)

    def fill_canonical(sp: SignPattern) -> None:
        canon = canonical_order(sp)
        for order in compatible_orders(sp):
            if order == canon:
                base[Couple(sp, order)] = (Status.REALIZABLE, CITE_CANONICAL)
            else:
                base[Couple(sp, order)] = (Status.NON_REALIZABLE, CITE_CANONICAL_ONLY)

    # no sign changes: all roots negative, the one couple is realizable
    (all_plus,) = enumerate_patterns(6, 0)
    base[Couple(all_plus, ModuliOrder("N" * 6))] = (Status.REALIZABLE, CITE_RIGID)

    for sp in enumerate_patterns(6, 1):
        for order in compatible_orders(sp):
            status = (
                Status.REALIZABLE if _one_change_realizable(sp, order) else Status.NON_REALIZABLE
            )
            base[Couple(sp, order)] = (status, CITE_C1)

    for sp in enumerate_patterns(6, 2):
        comp = str(sp.composition())
        if is_canonical_pattern(sp):
            fill_canonical(sp)
        elif comp in C2_TABLE_REALIZABLE:
            uvs = C2_TABLE_REALIZABLE[comp]
            if uvs is None:
                fill(sp, {o.letters for o in compatible_orders(sp)}, CITE_C2)
            else:
                fill(sp, {uvector_to_order(UVector(u)).letters for u in uvs}, CITE_C2)

    for sp in enumerate_patterns(6, 3):
        comp = str(sp.composition())
        if is_canonical_pattern(sp):
            fill_canonical(sp)
        elif comp in THEOREM_REALIZABLE:
            fill(sp, set(THEOREM_REALIZABLE[comp]), CITE_THEOREM)
        elif comp in THEOREM_NON_REALIZABLE:
            bad = THEOREM_NON_REALIZABLE[comp]
            fill(
                sp,
                {o.letters for o in compatible_orders(sp) if o.letters not in bad},
                CITE_THEOREM,
            )
    return base


def _extend_by_group(
    base: dict[Couple, tuple[Status, str]]
) -> dict[Couple, tuple[Status, str]]:
    """Close the base verdicts under the symmetry group; any status clash
    between overlapping images would mean the encoded data is wrong."""
    out: dict[Couple, tuple[Status, str]] = {}
    for couple, (status, cite) in base.items():
        for g in GROUP_ELEMENTS:
            image = apply_group(g, couple)
            prev = out.get(image)
            if prev is not None and prev[0] is not status:
                raise ContradictionError(
                    f"group images of {couple} disagree: {prev[0]} vs {status} at {image}"
                )
            out.setdefault(image, (status, cite))
    return out


def builtin_table(d: int) -> ClassificationTable:
    """The encoded classification of degree 6, complete with citations.
    No other degree is encoded: below six the decision pipeline decides
    every couple itself."""
    if d != 6:
        raise ValueError(f"unsupported degree {d}: only degree 6 is encoded")
    closed = _extend_by_group(_base_verdicts_d6())
    entries: dict[Couple, Verdict] = {}
    for changes in range(7):
        for sp in enumerate_patterns(6, changes):
            for order in compatible_orders(sp):
                couple = Couple(sp, order)
                if couple not in closed:
                    raise ContradictionError(f"encoded table does not cover {couple}")
                status, cite = closed[couple]
                entries[couple] = Verdict(couple, status, "citation", citation=cite)
    return ClassificationTable(6, entries)


# ------------------------------------------------------------ counting


@dataclass(frozen=True)
class CountReport:
    """Realizability counts and ratios per sign-change count; the
    three-change orbit products only at degree 6."""

    degree: int
    realizable_by_changes: tuple[tuple[int, int], ...]
    totals_by_changes: tuple[tuple[int, int], ...]
    ratio: Fraction
    ratio_sequence: tuple[Fraction, ...]
    successive_ratios: tuple[Fraction, ...]
    c3_orbit_products: tuple[tuple[int, int], ...] | None

    def render(self) -> str:
        lines = [f"degree {self.degree}: realizable/total ratio = {self.ratio}"]
        for (c, r), (_, t) in zip(self.realizable_by_changes, self.totals_by_changes):
            lines.append(f"  changes {c}: {r} realizable of {t}")
        if self.c3_orbit_products is not None:
            s = " + ".join(f"{n}x{k}" for n, k in self.c3_orbit_products)
            total = sum(n * k for n, k in self.c3_orbit_products)
            lines.append(f"  three-change orbit products: {s} = {total}")
        lines.append(
            "  ratio sequence: " + ", ".join(str(r) for r in self.ratio_sequence)
        )
        lines.append(
            "  successive ratios: " + ", ".join(str(r) for r in self.successive_ratios)
        )
        return "\n".join(lines)


def _pipeline_tables(d: int) -> dict[SignPattern, dict[ModuliOrder, Verdict]]:
    """`classify_pattern` on every sign pattern of degree d, at the default
    sampler config with no stored witnesses; at degree 6 every verdict is
    diffed against the encoded table.  Raises ContradictionError naming
    each couple left Unknown and each couple the table contradicts."""
    reference = builtin_table(6) if d == 6 else None
    tables, faults = {}, []
    for changes in range(d + 1):
        for sp in enumerate_patterns(d, changes):
            tables[sp] = classify_pattern(sp)
            for verdict in tables[sp].values():
                expected = reference.status(verdict.couple) if reference else None
                if verdict.status is Status.UNKNOWN or expected not in (None, verdict.status):
                    fault = f"{verdict.couple}: pipeline {verdict.status.value}"
                    faults.append(fault + (f", table {expected.value}" if expected else ""))
    if faults:
        raise ContradictionError(f"degree {d}: " + "; ".join(faults))
    return tables


def _realizable(table: dict[ModuliOrder, Verdict]) -> int:
    return sum(v.status is Status.REALIZABLE for v in table.values())


def counts_and_ratio(d: int) -> CountReport:
    """Realizability counts for degree d, every degree from 1 to d decided
    by the pipeline; at degree 6 checked against the encoded table, with
    the three-change orbit products."""
    if not 1 <= d <= 6:
        raise ValueError(f"unsupported degree {d}")
    seq = []
    for degree in range(1, d + 1):
        tables = _pipeline_tables(degree)
        realizable, totals = [0] * (degree + 1), [0] * (degree + 1)
        for sp, table in tables.items():
            changes = descartes_counts(sp)[0]
            realizable[changes] += _realizable(table)
            totals[changes] += len(table)
        seq.append(Fraction(sum(realizable), sum(totals)))

    products = None
    if d == 6:
        products = tuple(sorted(
            ((_realizable(tables[o.representative]), o.size) for o in orbits(6, 3)),
            key=lambda p: (-p[0], -p[1]),
        ))
    return CountReport(
        d, tuple(enumerate(realizable)), tuple(enumerate(totals)), seq[-1], tuple(seq),
        tuple(b / a for a, b in zip(seq, seq[1:])), products,
    )


# ------------------------------------------------- published-example report


@dataclass(frozen=True)
class CoefficientCheck:
    """Comparison of one printed coefficient with the exact re-expansion:
    `exact` digit-for-digit, `rounded` when the printed value is the exact
    one correctly rounded (half away from zero) at the printed precision,
    `mismatch` otherwise."""

    k: int
    printed: str
    exact_value: Fraction
    category: str


@dataclass(frozen=True)
class RowCheck:
    row: PublishedRow
    checks: tuple[CoefficientCheck, ...]
    realized: Couple
    tie_resolved: bool

    @property
    def couple_ok(self) -> bool:
        return self.realized == self.row.couple

    @property
    def mismatches(self) -> tuple[CoefficientCheck, ...]:
        return tuple(c for c in self.checks if c.category == "mismatch")


@dataclass(frozen=True)
class PaperReport:
    rows: tuple[RowCheck, ...]

    @property
    def all_couples_confirmed(self) -> bool:
        return all(r.couple_ok for r in self.rows)

    def render(self) -> str:
        lines = []
        for r in self.rows:
            couple = r.row.couple
            flags = "".join(
                {"exact": ".", "rounded": "r", "mismatch": "X"}[c.category]
                for c in r.checks
            )
            note = "couple confirmed" if r.couple_ok else "COUPLE MISMATCH"
            if r.tie_resolved:
                note += ", tie perturbed"
            lines.append(f"{couple}: [{flags}] {note}")
            for c in r.mismatches:
                lines.append(
                    f"    q_{c.k}: printed {c.printed}, exact {format_exact(c.exact_value)}"
                )
        ok = sum(1 for r in self.rows if not r.mismatches)
        lines.append(
            f"{ok}/{len(self.rows)} rows match at printed precision; "
            f"couples confirmed: {sum(r.couple_ok for r in self.rows)}/{len(self.rows)}"
        )
        return "\n".join(lines)


def _compare_printed(printed: str, exact: Fraction) -> str:
    if parse_exact(printed) == exact:
        return "exact"
    places = len(printed.split(".")[1]) if "." in printed else 0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(exact.numerator) / Decimal(exact.denominator)
        quantum = Decimal(1).scaleb(-places)
        rounded = value.quantize(quantum, rounding=decimal.ROUND_HALF_UP)
        if rounded == Decimal(printed).quantize(quantum):
            return "rounded"
    return "mismatch"


def verify_paper() -> PaperReport:
    """Re-expand every published root product exactly, compare with the
    printed coefficients, and confirm each configuration realizes the
    couple claimed for it (perturbing tied moduli first where needed).
    Mismatches are report content — they flag print typos, not failures."""
    rows = []
    for row in published_rows():
        rc = row.configuration()
        checks = tuple(
            CoefficientCheck(5 - i, printed, value, _compare_printed(printed, value))
            for i, (printed, value) in enumerate(zip(row.printed_tail, expand(rc)[1:]))
        )
        tied = bool(tied_pairs_of(rc))
        if tied:
            rc = resolve_ties(rc, row.couple)
        rows.append(RowCheck(row, checks, couple_of(rc), tied))
    return PaperReport(tuple(rows))


# ------------------------------------------------------------ verdict export


def verdict_rows(verdicts) -> str:
    """Tab-separated export: sign pattern, composition, order, uvector,
    status, evidence kind, citation; one line per verdict under a version
    header."""
    lines = [VERDICTS_HEADER]
    for v in sorted(
        verdicts, key=lambda v: (str(v.couple.sp), v.couple.order.letters)
    ):
        couple = v.couple
        lines.append(
            "\t".join(
                (
                    str(couple.sp),
                    str(couple.sp.composition()),
                    couple.order.letters,
                    str(order_to_uvector(couple.order)),
                    v.status.value,
                    v.evidence_kind,
                    v.citation or "-",
                )
            )
        )
    return "\n".join(lines) + "\n"


def save_verdicts(verdicts, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(verdict_rows(verdicts))
