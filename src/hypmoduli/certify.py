"""Negative-evidence engine: machine-checkable non-realizability
certificates, plus the decision pipeline combining them with witnesses.

Every certificate here reads one expansion, `_gap_coefficients`: write
the moduli of an order as partial sums of positive gap variables, one per
modulus level, and each coefficient q_k becomes an integer form in the
gaps.  The workhorse is the forced-sign certificate, the one-term case:
when every nonzero coefficient of q_k has one sign and q_k is not zero,
that sign is forced for every polynomial respecting the order, and a
pattern demanding the other sign is not realizable there.  The
certificate is its claim (order, k, sign); the verifier recomputes the
expansion rather than trusting the generator.

The neighbor-crossing argument covers what per-couple certificates cannot:
a realizable order is wall-connected to any other realizable order through
σ-signed boundary polynomials (x²−1)R, so any region with a realizable
order outside it and all exit walls impossible contains no realizable
order; `frontier_exclusion` seals the largest such set of Unknown orders.
A wall is impossible when forced-sign fixes a coefficient of its tied
order against the pattern, or when a gap certificate rules out the
pattern's signs on several coefficients at once: a nonnegative
combination of s^μ·σ_k·q_k, in the same gaps, with no positive
coefficient.  The few degree-6 gap certificates that frontier
exclusion needs ship as data, found offline and re-verified exactly by
`verify_gap_certificate` on first use.
`settle` gives the verdicts known before any witness search: per-couple
constructions and certificates, then one exclusion round; `classify_pattern`
adds the staged witness search (stored, transported and concatenated
witnesses, then Monte Carlo) on the orders still Unknown.  The
only sampling here is `sample_certificate`, a soundness oracle over exact
integer configurations that no verdict depends on and that shares no code
with the gap expansion; it draws and expands the configurations once per
(order, samples, seed) and shares them across coefficients and claimed
signs.  It tallies through its own integer kernel, `_tally_kernel`,
straight-line code generated once per level shape (the rank levels of an
order, which ties merge), and its counts are pinned in the tests against
a `Fraction` reference over the same draws.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .patterns import (
    Couple,
    ModuliOrder,
    SignPattern,
    canonical_order,
    compatible_orders,
    is_canonical_pattern,
    is_rigid_order,
    neighbors,
    order_to_uvector,
    rigid_sign_pattern,
    uvector_to_order,
)
from .poly import Witness
from .search import SamplerConfig, constructive_witness, witness_for
from .symmetry import apply_im


class ContradictionError(RuntimeError):
    """A couple received both a validated witness and non-realizability
    evidence; the artifact is inconsistent and must not paper over it."""


class CertificateError(ValueError):
    """A certificate failed independent re-verification."""


# ------------------------------------------------------------- tied orders


@dataclass(frozen=True, slots=True)
class TiedOrder:
    """An order of moduli in which marked adjacent rank pairs share a
    modulus; each tied pair is one positive and one negative root, which
    is exactly the boundary shape (x²−1)·R after rescaling.

    `tied` lists the lower rank r (1-based) of each tied pair (r, r+1).
    """

    letters: str
    tied: tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.letters)
        if set(self.letters) - {"P", "N"}:
            raise ValueError(f"invalid letters {self.letters!r}")
        if len(set(self.tied)) != len(self.tied):
            raise ValueError("duplicate tied ranks")
        for r in self.tied:
            if not 1 <= r < d:
                raise ValueError(f"tied rank {r} out of range for degree {d}")
            if self.letters[r - 1] == self.letters[r]:
                raise ValueError("tied pair must join a positive and a negative root")
        for r, s in itertools.combinations(self.tied, 2):
            if abs(r - s) == 1:
                raise ValueError("tied pairs may not overlap")

    @property
    def degree(self) -> int:
        return len(self.letters)

    @classmethod
    def wall(cls, a: ModuliOrder, b: ModuliOrder) -> "TiedOrder":
        """The tied order on the wall between two neighboring orders: they
        differ by one adjacent transposition, which is where the moduli
        collide."""
        if a.degree != b.degree:
            raise ValueError("orders must have equal degree")
        diff = [i for i, (x, y) in enumerate(zip(a.letters, b.letters)) if x != y]
        if len(diff) != 2 or diff[1] != diff[0] + 1:
            raise ValueError(f"{a} and {b} are not adjacent-transposition neighbours")
        i = diff[0]
        if a.letters[i] != b.letters[i + 1] or a.letters[i + 1] != b.letters[i]:
            raise ValueError(f"{a} and {b} do not differ by a transposition")
        return cls(a.letters, (i + 1,))

    def __str__(self) -> str:
        marks = set(self.tied)
        out = []
        for i, ch in enumerate(self.letters, start=1):
            out.append(ch)
            if i in marks:
                out.append("=")
        return "".join(out)


@apply_im.register
def _(order: TiedOrder) -> TiedOrder:
    # negating every root swaps P and N; tied pairs stay tied
    return TiedOrder(apply_im(ModuliOrder(order.letters)).letters, order.tied)


def _rank_levels(order: ModuliOrder | TiedOrder) -> tuple[int, ...]:
    """Modulus level per rank: strictly increasing with rank except that
    the two ranks of a tied pair share a level."""
    d = order.degree
    tied_upper = {r + 1 for r in getattr(order, "tied", ())}
    levels = []
    level = 0
    for rank in range(1, d + 1):
        if rank not in tied_upper:
            level += 1
        levels.append(level)
    return tuple(levels)


# ------------------------------------------------------- the gap expansion


@functools.lru_cache(maxsize=1)
def _gap_coefficients(order: ModuliOrder | TiedOrder) -> list[dict[int, int]]:
    """q_k for k = 0..d as integer forms in the gap variables, rebuilt from
    the letters: the product of (x − r) with r = ±(s_0 + … + s_{l−1}) for
    a root at level l.  A monomial s^μ is keyed by Σ μ_i·(d+1)^i, so adding
    keys of total degree at most d adds exponents.  Only the last order's
    forms are kept, read-only, for a verification right after `forced_sign`."""
    d = order.degree
    q: list[dict[int, int]] = [{0: 1}]
    for letter, level in zip(order.letters, _rank_levels(order)):
        minus_root = -1 if letter == "P" else 1
        steps = [(d + 1) ** i for i in range(level)]
        nxt: list[dict[int, int]] = [{} for _ in range(len(q) + 1)]
        for j, form in enumerate(q):
            up, here = nxt[j + 1], nxt[j]
            for mono, c in form.items():
                up[mono] = up.get(mono, 0) + c
                c *= minus_root
                for step in steps:
                    here[mono + step] = here.get(mono + step, 0) + c
        q = nxt
    return q


def _exponents(key: int, order: ModuliOrder | TiedOrder) -> tuple[int, ...]:
    """The exponent vector μ of the gap monomial keyed `key` on `order`."""
    base = order.degree + 1
    return tuple(key // base**i % base for i in range(max(_rank_levels(order))))


@functools.cache
def _gap_signs(order: ModuliOrder | TiedOrder) -> tuple[int, ...]:
    """Per k = 0..d, the sign all nonzero gap coefficients of q_k share, or
    0 when they differ or q_k vanishes; memoized per order."""
    out = []
    for form in _gap_coefficients(order):
        signs = {c > 0 for c in form.values() if c}
        out.append((1 if signs.pop() else -1) if len(signs) == 1 else 0)
    return tuple(out)


# --------------------------------------------------- forced-sign certificates


@dataclass(frozen=True, slots=True)
class ForcedSignCertificate:
    """Claim that sgn(q_k) = `sign` for every hyperbolic polynomial whose
    root moduli respect `order`, proved by the gap expansion of q_k: every
    nonzero coefficient has that sign and q_k is not zero.  This is the
    one-term `GapCertificate`; the verifier recomputes the expansion."""

    order: ModuliOrder | TiedOrder
    k: int
    sign: int

    def __str__(self) -> str:
        return (
            f"q_{self.k} forced {'positive' if self.sign > 0 else 'negative'} "
            f"on {self.order} by its gap expansion"
        )


def forced_sign(order: ModuliOrder | TiedOrder, k: int) -> ForcedSignCertificate | None:
    """The certificate fixing the sign of q_k under the order when its gap
    expansion has one sign and q_k is not zero; None otherwise, which
    proves nothing.  Raises ValueError for k outside 0..d."""
    if not 0 <= k <= order.degree:
        raise ValueError(f"coefficient index {k} out of range")
    sign = _gap_signs(order)[k]
    return ForcedSignCertificate(order, k, sign) if sign else None


def contradicting_certificate(
    order: ModuliOrder | TiedOrder, sp: SignPattern
) -> ForcedSignCertificate | None:
    """The forced-sign certificate of lowest coefficient index on `order`
    whose sign contradicts sp, or None when no certificate does."""
    d = sp.degree
    for k in range(d):
        cert = forced_sign(order, k)
        if cert is not None and cert.sign != sp.signs[d - k]:
            return cert
    return None


def verify_certificate(cert: ForcedSignCertificate) -> bool:
    """Standalone exact re-validation of a forced-sign certificate: q_k is
    re-read from the order's gap expansion, the one `verify_gap_certificate`
    checks.  Raises CertificateError on any defect, returns True otherwise."""
    d = cert.order.degree
    if not 0 <= cert.k <= d:
        raise CertificateError(f"coefficient index {cert.k} out of range for degree {d}")
    if cert.sign not in (1, -1):
        raise CertificateError(f"bad sign {cert.sign} for q_{cert.k}")
    form = _gap_coefficients(cert.order)[cert.k]
    if not any(form.values()):
        raise CertificateError(f"q_{cert.k} vanishes on {cert.order}")
    for mono, c in form.items():
        if c * cert.sign < 0:
            raise CertificateError(
                f"coefficient {c} of s^{_exponents(mono, cert.order)} in q_{cert.k} "
                f"has the wrong sign"
            )
    return True


@functools.cache
def _tally_kernel(levels: tuple[int, ...]):
    """The sampler's draw-expand-tally loop for one level shape, generated
    once per shape as straight-line code over `int`.

    `tally(sample, population, minus, samples)` runs `samples` iterations.
    Each draws the values v1 < … < vL of the shape's L levels with one
    `sorted(sample(population, L))` call.  The root at rank j is
    r_j = −m_j with m_j = minus[j]·v_{levels[j]}; `minus` holds −1 for a
    positive root and 1 for a negative one, so the shape fixes the code and
    the letters are data.  The roots are multiplied in by rank, coefficient
    k after root j being c[j−1][k] + m_j·c[j−1][k−1], and the sign of
    every coefficient of the monic product is tallied.  Returns (positive,
    negative) counts per coefficient, leading first; the leading
    coefficient is 1.  Each kernel serves every order of its shape:
    degree 6 has one plain shape and five single-tie shapes."""
    d, n = len(levels), max(levels)
    lines = [
        "def tally(sample, population, minus, samples):",
        f"    {''.join(f's{j}, ' for j in range(1, d + 1))}= minus",
        f"    {' = '.join(f'p{k} = n{k}' for k in range(1, d + 1))} = 0",
        "    for _ in range(samples):",
        f"        {''.join(f'v{i}, ' for i in range(1, n + 1))}= sorted(sample(population, {n}))",
        *(f"        m{j} = s{j} * v{lvl}" for j, lvl in enumerate(levels, start=1)),
    ]
    c = ["1", "m1"]  # c[k]: coefficient k after the roots so far
    for j in range(2, d + 1):
        lines.append(f"        c{j}_{j} = m{j} * {c[j - 1]}")
        lines += (f"        c{j}_{k} = {c[k]} + m{j} * {c[k - 1]}" for k in range(j - 1, 1, -1))
        lines.append(f"        c{j}_1 = {c[1]} + m{j}")
        c = ["1"] + [f"c{j}_{k}" for k in range(1, j + 1)]
    for k in range(1, d + 1):
        lines += [
            f"        if {c[k]} > 0:",
            f"            p{k} += 1",
            f"        elif {c[k]}:",
            f"            n{k} += 1",
        ]
    pairs = ", ".join(f"(p{k}, n{k})" for k in range(1, d + 1))
    lines.append(f"    return (samples, 0), {pairs}")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["tally"]


@functools.cache
def _sampled_sign_counts(
    order: ModuliOrder | TiedOrder, samples: int, seed: int
) -> tuple[tuple[int, int], ...]:
    """(positive, negative) sample counts per coefficient, leading first, of
    `samples` random integer configurations respecting the order, tallied
    by the generated kernel `_tally_kernel` of the order's level shape.
    The draws depend only on (levels, samples, seed) and the expansion on
    the order, so every coefficient and claimed sign on one order shares
    them; each entry holds d+1 pairs of ints whatever `samples` is."""
    levels = _rank_levels(order)
    population = range(1, 10 * max(levels) + 1)
    minus = tuple(-1 if ch == "P" else 1 for ch in order.letters)
    return _tally_kernel(levels)(random.Random(seed).sample, population, minus, samples)


def sample_certificate(
    cert: ForcedSignCertificate, samples: int = 10_000, seed: int = 0
) -> int:
    """Statistical soundness oracle: draw random integer moduli respecting
    the certificate's order (L distinct integers in 1..10L for its L
    levels; tied ranks share one), expand the roots exactly over `int`, and
    count sign violations of q_k (zero expected): samples where q_k is zero
    or has the sign opposite to the claim.  The expansion and the tally run
    in the generated integer kernel of the order's level shape
    (`_tally_kernel`), whose counts the tests pin against a `Fraction`
    reference over the same draws.  Configurations are drawn and expanded
    once per (order, samples, seed) and shared across coefficients and
    claimed signs.  Independent of the gap expansion that
    `verify_certificate` reads: it multiplies out integer roots, never
    gaps.  Raises ValueError for negative `samples` or k outside 0..d."""
    if samples < 0:
        raise ValueError("samples must be non-negative")
    d = cert.order.degree
    if not 0 <= cert.k <= d:
        raise ValueError(f"coefficient index {cert.k} out of range")
    positive, negative = _sampled_sign_counts(cert.order, samples, seed)[d - cert.k]
    return samples - (positive if cert.sign > 0 else negative)


# ------------------------------------------------------- gap certificates


@dataclass(frozen=True, slots=True)
class GapCertificate:
    """Proof that no polynomial whose root moduli respect `order` gives
    each q_k of `signs` its sign σ_k.

    Write the moduli as partial sums of positive gap variables: s_0 is the
    smallest modulus and each further level adds one s_i, so q_k is an
    integer form of degree d−k in the s.  Each term (k, μ, λ) adds
    λ·s^μ·σ_k·q_k with λ ≥ 0 and deg μ = k, and every coefficient of the
    sum is ≤ 0.  At the gaps of a polynomial carrying those signs, every
    term with λ > 0 is strictly positive and so is the sum, which a form
    with no positive coefficient never is at positive gaps; so no such
    polynomial exists.  This is a positivity certificate in the style of
    Pólya and Handelman.  `ForcedSignCertificate` is the one-term case,
    stored as its claim (order, k, sign): σ_k = −sign leaves σ_k·q_k with
    no positive coefficient.  Both verifiers read `_gap_coefficients`.
    """

    order: TiedOrder
    signs: tuple[tuple[int, int], ...]  # (k, σ_k), one per coefficient used
    terms: tuple[tuple[int, tuple[int, ...], Fraction], ...]  # (k, μ, λ)

    def applies_to(self, sp: SignPattern) -> bool:
        """Whether sp demands the certificate's sign of every coefficient
        it uses."""
        d = self.order.degree
        return sp.degree == d and all(sp.signs[d - k] == s for k, s in self.signs)

    def __str__(self) -> str:
        return "gap certificate on " + ", ".join(f"q_{k}" for k, _ in self.signs)


def verify_gap_certificate(cert: GapCertificate) -> bool:
    """Standalone exact re-validation of a gap certificate; raises
    CertificateError on any defect, returns True otherwise."""
    d = cert.order.degree
    signs = dict(cert.signs)
    if len(signs) != len(cert.signs) or not signs:
        raise CertificateError("each coefficient used needs exactly one sign")
    for k, s in cert.signs:
        if not 0 <= k <= d or s not in (1, -1):
            raise CertificateError(f"bad sign {s} for q_{k}")
    q = _gap_coefficients(cert.order)
    n, base = max(_rank_levels(cert.order)), d + 1
    # scaling every λ by their common denominator keeps every sign and
    # leaves integers to add
    scale = math.lcm(*(Fraction(lam).denominator for _, _, lam in cert.terms))
    total: dict[int, int] = {}
    for k, mu, lam in cert.terms:
        if k not in signs:
            raise CertificateError(f"term on q_{k}, which carries no sign")
        if lam < 0:
            raise CertificateError(f"negative multiplier {lam} on q_{k}")
        if len(mu) != n or min(mu) < 0 or sum(mu) != k:
            raise CertificateError(f"multiplier s^{mu} of q_{k} is not of degree {k}")
        weight = int(lam * scale) * signs[k]
        shift = sum(e * base**i for i, e in enumerate(mu))
        for mono, c in q[k].items():
            total[mono + shift] = total.get(mono + shift, 0) + weight * c
    if {k for k, _, lam in cert.terms if lam > 0} != set(signs):
        raise CertificateError("every signed coefficient needs a positive multiplier")
    for mono, c in sorted(total.items()):
        if c > 0:
            raise CertificateError(
                f"coefficient {c} of s^{_exponents(mono, cert.order)} is positive"
            )
    return True


# The degree-6 walls that frontier exclusion needs closed where forced-sign
# finds nothing, one certificate per im-pair of tied orders.  Each was found
# by a float linear program (λ ≥ 0, Σλ = 1, every coefficient of the sum
# ≤ 0) over all multipliers of degree k on two coefficients, made exact by
# solving the program's tight rows over the rationals and scaling λ to
# integers, then checked by `verify_gap_certificate`.  No solver runs here:
# `gap_certificate` re-verifies each one, and each mirror, on first use.
# Those on P=NPNNP and PNNPN=P carry the pair lemma: with free roots
# +a, −f, −g, +b at moduli a<f<g<b, q_5 > 0 (a+b < f+g) and q_1 < 0 exclude
# each other.
_SHIPPED_GAP_CERTIFICATES = tuple(
    GapCertificate(order, signs, tuple((k, mu, Fraction(lam)) for k, mu, lam in terms))
    for order, signs, terms in [
        (TiedOrder("PNPNNN", (3,)), ((1, -1), (4, -1)), [  # PNP=NNN
            (1, (1, 0, 0, 0, 0), 1), (4, (1, 0, 3, 0, 0), 2), (4, (1, 1, 2, 0, 0), 3),
            (4, (1, 2, 0, 1, 0), 28), (4, (1, 3, 0, 0, 0), 3), (4, (2, 0, 1, 1, 0), 16),
            (4, (2, 1, 1, 0, 0), 3), (4, (3, 0, 1, 0, 0), 6), (4, (3, 1, 0, 0, 0), 7),
        ]),
        (TiedOrder("NNNPNP", (3,)), ((2, -1), (5, -1)), [  # NNN=PNP
            (2, (1, 0, 0, 0, 1), 1), (5, (4, 0, 0, 0, 1), 2),
        ]),
        (TiedOrder("PNPNNP", (1,)), ((1, -1), (5, 1)), [  # P=NPNNP
            (1, (0, 1, 0, 0, 0), 1), (5, (2, 3, 0, 0, 0), 1), (5, (3, 2, 0, 0, 0), 2),
            (5, (4, 1, 0, 0, 0), 1),
        ]),
        (TiedOrder("PNNPNP", (5,)), ((1, -1), (5, 1)), [  # PNNPN=P
            (1, (1, 0, 0, 0, 0), 1), (5, (3, 0, 0, 0, 2), 1), (5, (3, 0, 0, 1, 1), 2),
            (5, (3, 0, 0, 2, 0), 1), (5, (3, 0, 1, 0, 1), 2), (5, (3, 0, 1, 1, 0), 2),
            (5, (3, 0, 2, 0, 0), 1), (5, (3, 1, 0, 0, 1), 2), (5, (3, 1, 0, 1, 0), 2),
            (5, (4, 0, 0, 0, 1), 2), (5, (4, 0, 0, 1, 0), 2), (5, (4, 0, 1, 0, 0), 2),
            (5, (4, 1, 0, 0, 0), 2), (5, (5, 0, 0, 0, 0), 1),
        ]),
    ]
)


@functools.cache
def gap_certificate(order: TiedOrder) -> GapCertificate | None:
    """The shipped gap certificate on `order`, verified on its first use in
    the process; None when none is shipped.

    Negating every root multiplies q_k by (−1)^(d−k), and the im mirror of
    a pattern flips σ_k by the same factor, so σ_k·q_k is unchanged: the
    mirror of a shipped certificate takes the same terms with those signs.
    A shipped certificate that fails verification raises CertificateError
    instead of proving nothing."""
    mirror = apply_im(order)
    for cert in _SHIPPED_GAP_CERTIFICATES:
        if cert.order == mirror:
            d = order.degree
            signs = tuple((k, s * (-1) ** (d - k)) for k, s in cert.signs)
            cert = GapCertificate(order, signs, cert.terms)
        if cert.order == order:
            verify_gap_certificate(cert)
            return cert
    return None


# ------------------------------------------------------------ verdicts


class Status(enum.Enum):
    REALIZABLE = "Realizable"
    NON_REALIZABLE = "NonRealizable"
    UNKNOWN = "Unknown"


@dataclass(frozen=True, slots=True)
class Verdict:
    """The decision for one couple plus the evidence that justifies it."""

    couple: Couple
    status: Status
    evidence_kind: str  # witness | forced-sign | propagation | frontier |
    #                     rigid-order | canonical-pattern | citation | none
    evidence: object = None
    citation: str | None = None

    def summary(self) -> str:
        if self.evidence_kind == "witness":
            return f"witness roots {self.evidence.roots}"
        if self.evidence_kind == "propagation":
            return "all neighbours non-realizable: " + ", ".join(
                str(order_to_uvector(o)) for o in self.evidence
            )
        if self.evidence is None:
            return self.evidence_kind
        return str(self.evidence)


@dataclass(frozen=True, slots=True)
class FrontierEvidence:
    """Record of a region exclusion: every exit wall from the excluded
    order set was blocked, so by the neighbor-crossing argument (walls
    between realizable chambers carry sign-respecting tied polynomials)
    no order inside is realizable."""

    region: tuple[ModuliOrder, ...]
    anchor: ModuliOrder
    blocks: tuple[tuple[ModuliOrder, ModuliOrder, str], ...]  # (from, to, reason)

    def __str__(self) -> str:
        walls = "; ".join(f"{u}|{v}: {why}" for u, v, why in self.blocks)
        return (
            f"region {{{', '.join(str(order_to_uvector(o)) for o in self.region)}}} "
            f"sealed against anchor {self.anchor}: {walls}"
        )


def _order_neighbors(order: ModuliOrder) -> list[ModuliOrder]:
    return [uvector_to_order(v) for v in neighbors(order_to_uvector(order))]


def propagate(
    sp: SignPattern, table: dict[ModuliOrder, Verdict]
) -> dict[ModuliOrder, Verdict]:
    """Fixed point of: an Unknown order whose neighbours are all
    NonRealizable becomes NonRealizable (with the neighbours as trace),
    valid only while some order is Realizable for sp."""
    expected = set(compatible_orders(sp))
    if set(table) != expected:
        raise ValueError("table must cover exactly the compatible orders")
    table = dict(table)
    if not any(v.status is Status.REALIZABLE for v in table.values()):
        return table
    changed = True
    while changed:
        changed = False
        for order, verdict in list(table.items()):
            if verdict.status is not Status.UNKNOWN:
                continue
            nbrs = _order_neighbors(order)
            if nbrs and all(table[n].status is Status.NON_REALIZABLE for n in nbrs):
                table[order] = Verdict(
                    Couple(sp, order), Status.NON_REALIZABLE, "propagation", tuple(nbrs)
                )
                changed = True
    return table


def _wall_block_reason(
    sp: SignPattern,
    u: ModuliOrder,
    v: ModuliOrder,
    table: dict[ModuliOrder, Verdict],
) -> str | None:
    """Why no realizable configuration can cross the wall u|v outward: the
    chamber beyond is non-realizable, a forced-sign certificate on the
    wall's tied order contradicts sp, or, where forced-sign finds nothing,
    a shipped gap certificate on the tied order applies to sp.  The reason
    names the coefficients that rule the wall out."""
    if table[v].status is Status.NON_REALIZABLE:
        return f"target {order_to_uvector(v)} non-realizable"
    tied = TiedOrder.wall(u, v)
    cert = contradicting_certificate(tied, sp)
    if cert is not None:
        return f"boundary forces q_{cert.k} {'positive' if cert.sign > 0 else 'negative'}"
    gap = gap_certificate(tied)
    if gap is not None and gap.applies_to(sp):
        return f"boundary infeasible by {gap}"
    return None


def frontier_exclusion(
    sp: SignPattern, table: dict[ModuliOrder, Verdict]
) -> dict[ModuliOrder, Verdict]:
    """Seal the largest set of Unknown orders whose exit walls are all
    blocked (the chamber beyond is non-realizable, or the wall's tied order
    forces a coefficient sign against sp, or a gap certificate rules out
    sp's signs on it; see `_wall_block_reason`): if some order is
    Realizable, every order inside is NonRealizable.

    That set is a greatest fixed point: start from every Unknown order and
    drop, through a worklist over the neighbours of each dropped order, any
    order with an unblocked exit wall.  A wall into a dropped order is
    blocked only by its tied order, since the chamber beyond is Unknown.
    Every dropped order keeps an open exit wall, so a second call on the
    result seals nothing more."""
    unknown = [o for o, v in table.items() if v.status is Status.UNKNOWN]
    anchors = [o for o, v in table.items() if v.status is Status.REALIZABLE]
    if not unknown or not anchors:
        return table
    nbrs = {u: _order_neighbors(u) for u in unknown}

    @functools.cache
    def reason(u: ModuliOrder, v: ModuliOrder) -> str | None:
        return _wall_block_reason(sp, u, v, table)

    region = set(unknown)
    work = list(unknown)
    while work:
        u = work.pop()
        if u in region and any(v not in region and reason(u, v) is None for v in nbrs[u]):
            region.discard(u)
            work.extend(v for v in nbrs[u] if v in region)
    if not region:
        return table
    sealed = tuple(o for o in unknown if o in region)
    blocks = tuple((u, v, reason(u, v)) for u in sealed for v in nbrs[u] if v not in region)
    evidence = FrontierEvidence(sealed, anchors[0], blocks)
    table = dict(table)
    for u in sealed:
        table[u] = Verdict(Couple(sp, u), Status.NON_REALIZABLE, "frontier", evidence)
    return table


# ------------------------------------------------------------ the pipeline


def refute(couple: Couple) -> Verdict | None:
    """Certificate-only stage for one couple, the counterpart of
    `search.constructive_witness`: no verdict for a canonical couple, then
    the rigid-order lemma, the canonical-only lemma, or a forced-sign
    certificate contradicting the pattern.  Returns the first
    NonRealizable verdict found, or None when none applies (which proves
    nothing).  Never searches for witnesses."""
    sp, order = couple.sp, couple.order
    canon = canonical_order(sp)
    if order == canon:
        return None
    if is_rigid_order(order):
        return Verdict(
            couple, Status.NON_REALIZABLE, "rigid-order", rigid_sign_pattern(order),
            citation="rigid-orders",
        )
    if is_canonical_pattern(sp):
        return Verdict(
            couple, Status.NON_REALIZABLE, "canonical-pattern", canon, citation="canonical-only"
        )
    cert = contradicting_certificate(order, sp)
    if cert is None:
        return None
    return Verdict(couple, Status.NON_REALIZABLE, "forced-sign", cert)


def settle(
    sp: SignPattern, store: dict[Couple, Witness] | None = None
) -> dict[ModuliOrder, Verdict]:
    """Verdict table for one sign pattern before any witness search:
    stages 1-2 of `classify_pattern`.  Orders neither stage decides stay
    Unknown.  Raises ContradictionError when a valid stored witness meets a
    NonRealizable verdict; the check is complete here, because the witness
    search that may follow only turns Unknown into Realizable."""
    table: dict[ModuliOrder, Verdict] = {}
    for order in compatible_orders(sp):
        couple = Couple(sp, order)
        w = constructive_witness(couple)
        if w is not None:
            citation = None if is_rigid_order(order) else "canonical-realizable"
            table[order] = Verdict(couple, Status.REALIZABLE, "witness", w, citation=citation)
            continue
        table[order] = refute(couple) or Verdict(couple, Status.UNKNOWN, "none")
    table = frontier_exclusion(sp, propagate(sp, table))
    for verdict in table.values():
        stored = store.get(verdict.couple) if store else None
        if verdict.status is Status.NON_REALIZABLE and stored is not None and stored.is_valid():
            raise ContradictionError(
                f"{verdict.couple} has both a witness and {verdict.evidence_kind} evidence"
            )
    return table


def classify_pattern(
    sp: SignPattern,
    cfg: SamplerConfig = SamplerConfig(),
    store: dict[Couple, Witness] | None = None,
) -> dict[ModuliOrder, Verdict]:
    """Full verdict table for one sign pattern over all compatible orders.

    Three stages, each run once; `settle` runs the first two, and with them
    the stored-witness contradiction check, before any Monte Carlo:
    1. per couple, `search.constructive_witness` (the canonical couples,
       which include the rigid ones) or `refute` (rigid-order lemma,
       canonical-only lemma for patterns with no sign block of shape
       ++−−/+−−+ and mirrors, forced-sign certificates);
    2. one round of propagation then frontier exclusion;
    3. `search.witness_for` on each order still Unknown: stored record,
       transported stored sibling, concatenation from the truncated
       parent, then Monte Carlo on the im-pair representatives of the
       couple's two ir-sides, each searched once per process and shared
       by its orbit, the first witness found transported to the couple.
    Orders no stage decides stay Unknown.

    One round of stage 2 is enough: `propagate` iterates to its own fixed
    point, and `frontier_exclusion` seals a greatest fixed point, so every
    order it leaves Unknown keeps an open exit wall; Monte Carlo never runs
    on the non-realizable orders it closes beside realizable ones not yet
    found.  No round after stage 3 is needed: stage 3 only turns Unknown
    into Realizable, a wall's block reads only NonRealizable statuses and
    table-independent wall certificates, and the canonical couple anchors
    stage 2 already.  Stage 1 needs no deterministic `witness_for` call: by
    induction over the concatenation recursion, stage 3 returns the same
    witness whenever the search without Monte Carlo would find one.
    """
    table = settle(sp, store)
    for order, verdict in table.items():
        if verdict.status is Status.UNKNOWN:
            w = witness_for(verdict.couple, cfg, store)
            if w is not None:
                w.validate()
                table[order] = Verdict(verdict.couple, Status.REALIZABLE, "witness", w)
    return table
