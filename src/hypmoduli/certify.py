"""Negative-evidence engine: machine-checkable non-realizability
certificates, plus the decision pipeline combining them with witnesses.

The workhorse is the forced-sign certificate: for a fixed order of moduli,
coefficient q_k expands as a signed sum of modulus monomials, and if every
monomial of one sign can be injectively matched to a dominating monomial
of the other sign, the coefficient's sign is forced for every polynomial
respecting the order — contradicting the sign pattern kills the couple.
Certificates store the matching, not the search, so a standalone verifier
re-checks them without trusting the generator.

Two encoded lemmas cover what matchings cannot: the neighbor-crossing
argument (a realizable order is wall-connected to any other realizable
order through σ-signed boundary polynomials (x²−1)R, so a region whose
exit walls are all impossible contains no realizable order) and the pair
lemma, an exact predicate (`pair_lemma_blocks`) that closes one degree-6
boundary shape by two inequalities proved in its docstring.
`classify_pattern` runs each stage once: per-couple constructions,
certificates and deterministic witnesses, one exclusion round, Monte
Carlo on the orders still Unknown, and one more exclusion round.  The
only sampling here is `sample_certificate`, a soundness oracle over exact
integer configurations that no verdict depends on.
"""

from __future__ import annotations

import enum
import functools
import itertools
import random
from dataclasses import dataclass

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
from .poly import Witness, integer_product
from .search import SamplerConfig, constructive_witness, witness_for


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


# ------------------------------------------------- coefficient expansions


@dataclass(frozen=True, slots=True)
class SignedMonomial:
    """One term of the coefficient expansion q_k = Σ_S (−1)^{|S∩P|} ∏_{i∈S} μ_i:
    a set of modulus ranks and the sign contributed by its positive roots."""

    support: tuple[int, ...]
    sign: int

    def __str__(self) -> str:
        body = "μ" + "μ".join(str(r) for r in self.support) if self.support else "1"
        return ("+" if self.sign > 0 else "-") + body


def coefficient_monomials(
    d: int, k: int, order: ModuliOrder | TiedOrder
) -> list[SignedMonomial]:
    """All monomials of q_k for a degree-d polynomial whose root moduli
    respect the order.  For a tied order, monomials containing exactly one
    rank of a tied pair cancel against their mirror (equal modulus,
    opposite sign) and are omitted."""
    if order.degree != d:
        raise ValueError(f"order degree {order.degree} != {d}")
    if not 0 <= k <= d:
        raise ValueError(f"coefficient index {k} out of range")
    p_ranks = {i for i, ch in enumerate(order.letters, start=1) if ch == "P"}
    tied_pairs = [(r, r + 1) for r in getattr(order, "tied", ())]
    out = []
    for support in itertools.combinations(range(1, d + 1), d - k):
        chosen = set(support)
        if any(len(chosen & {a, b}) == 1 for a, b in tied_pairs):
            continue
        sign = -1 if len(chosen & p_ranks) % 2 else 1
        out.append(SignedMonomial(support, sign))
    return out


def _level_vector(m: SignedMonomial, levels: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((levels[r - 1] for r in m.support), reverse=True))


def _dominates(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(big, small))


# --------------------------------------------------- forced-sign certificates


@dataclass(frozen=True, slots=True)
class ForcedSignCertificate:
    """Proof that sgn(q_k) is fixed for every hyperbolic polynomial whose
    root moduli respect `order`: each monomial of the minority sign is
    injectively matched to a distinct weakly-dominating monomial of the
    majority sign, with one strict element making the total sign strict.

    `strictness` is ("strict-pair", (minority, majority)) for a matched
    pair whose level vectors differ, or ("unmatched-majority", monomial)
    for a surplus majority term.
    """

    order: ModuliOrder | TiedOrder
    k: int
    sign: int
    matching: tuple[tuple[SignedMonomial, SignedMonomial], ...]
    strictness: tuple[str, object]

    def __str__(self) -> str:
        pairs = ", ".join(f"{m}≤{M}" for m, M in self.matching)
        kind, detail = self.strictness
        if kind == "strict-pair":
            m, M = detail
            shown = f"{m}<{M}"
        else:
            shown = str(detail)
        return (
            f"q_{self.k} forced {'positive' if self.sign > 0 else 'negative'} "
            f"on {self.order}: [{pairs}] strict via {kind} {shown}"
        )


def _max_matching(
    minority: list[SignedMonomial],
    majority: list[SignedMonomial],
    levels: tuple[int, ...],
) -> dict[SignedMonomial, SignedMonomial] | None:
    """Injective minority→majority assignment along the dominance relation
    (augmenting-path search, deterministic); None if some minority monomial
    cannot be covered."""
    maj_vec = {M: _level_vector(M, levels) for M in majority}
    adj = {}
    for m in minority:
        vec = _level_vector(m, levels)
        adj[m] = [M for M in majority if _dominates(maj_vec[M], vec)]
    matched: dict[SignedMonomial, SignedMonomial] = {}  # majority -> minority
    def try_assign(m, seen):
        for M in adj[m]:
            if M in seen:
                continue
            seen.add(M)
            if M not in matched or try_assign(matched[M], seen):
                matched[M] = m
                return True
        return False

    for m in minority:
        if not try_assign(m, set()):
            return None
    return {m: M for M, m in matched.items()}


@functools.cache
def forced_sign(order: ModuliOrder | TiedOrder, k: int) -> ForcedSignCertificate | None:
    """Search for a dominance matching forcing the sign of q_k under the
    order; absence of a certificate proves nothing.  Memoized: the
    certificate depends on (order, k) alone, and the sweep asks for the
    same one from many patterns."""
    census = coefficient_monomials(order.degree, k, order)
    if not census:
        return None
    levels = _rank_levels(order)
    for claimed in (1, -1):
        minority = [m for m in census if m.sign == -claimed]
        majority = [m for m in census if m.sign == claimed]
        if len(minority) > len(majority):
            continue
        assignment = _max_matching(minority, majority, levels)
        if assignment is None:
            continue
        matching = tuple(sorted(assignment.items(), key=lambda p: p[0].support))
        strictness = None
        for m, M in matching:
            if _level_vector(m, levels) != _level_vector(M, levels):
                strictness = ("strict-pair", (m, M))
                break
        if strictness is None:
            used = set(assignment.values())
            surplus = sorted((M for M in majority if M not in used), key=lambda M: M.support)
            if surplus:
                strictness = ("unmatched-majority", surplus[0])
        if strictness is None:
            continue  # everything pairs off exactly; q_k may vanish
        return ForcedSignCertificate(order, k, claimed, matching, strictness)
    return None


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
    """Standalone re-validation of a forced-sign certificate; raises
    CertificateError on any defect, returns True otherwise."""
    census = coefficient_monomials(cert.order.degree, cert.k, cert.order)
    census_set = set(census)
    levels = _rank_levels(cert.order)
    minority = {m for m in census if m.sign == -cert.sign}
    majority = {m for m in census if m.sign == cert.sign}
    matched_minority = [m for m, _ in cert.matching]
    matched_majority = [M for _, M in cert.matching]
    if set(matched_minority) != minority or len(matched_minority) != len(minority):
        raise CertificateError("matching does not cover the minority monomials exactly")
    if len(set(matched_majority)) != len(matched_majority):
        raise CertificateError("matching is not injective")
    for m, M in cert.matching:
        if m not in census_set or M not in census_set:
            raise CertificateError(f"foreign monomial in matching: {m} or {M}")
        if M not in majority:
            raise CertificateError(f"{M} does not carry the claimed majority sign")
        if not _dominates(_level_vector(M, levels), _level_vector(m, levels)):
            raise CertificateError(f"{M} does not dominate {m}")
    kind, detail = cert.strictness
    if kind == "strict-pair":
        m, M = detail
        if (m, M) not in cert.matching:
            raise CertificateError("strict pair is not part of the matching")
        if _level_vector(m, levels) == _level_vector(M, levels):
            raise CertificateError("strict pair has equal level vectors")
    elif kind == "unmatched-majority":
        if detail not in majority or detail in matched_majority:
            raise CertificateError("strictness monomial is not a surplus majority term")
    else:
        raise CertificateError(f"unknown strictness kind {kind!r}")
    return True


def sample_certificate(
    cert: ForcedSignCertificate, samples: int = 10_000, seed: int = 0
) -> int:
    """Statistical soundness oracle: draw random integer moduli respecting
    the certificate's order (L distinct integers in 1..10L for its L
    levels; tied ranks share one), expand the roots exactly over `int` with
    `integer_product`, and count sign violations of q_k (zero expected).
    Independent of the matching machinery."""
    if samples < 0:
        raise ValueError("samples must be non-negative")
    rng = random.Random(seed)
    levels = _rank_levels(cert.order)
    n_levels = max(levels)
    index = cert.order.degree - cert.k
    signed_levels = [
        (lvl - 1, 1 if ch == "P" else -1) for lvl, ch in zip(levels, cert.order.letters)
    ]
    violations = 0
    for _ in range(samples):
        values = sorted(rng.sample(range(1, 10 * n_levels + 1), n_levels))
        q_k = integer_product((s * values[i], 1) for i, s in signed_levels)[index]
        if q_k * cert.sign <= 0:
            violations += 1
    return violations


# --------------------------------------------------- encoded pair lemma


def pair_lemma_blocks(tied: TiedOrder, sp: SignPattern) -> bool:
    """Encoded pair lemma: whether no polynomial on the degree-6 boundary
    shape `tied` can carry the outer signs of sp.

    The shape has one tied pair ±t and free roots +a, −f, −g, +b at
    increasing moduli a<f<g<b (letters PNNP once the pair is removed).
    The pair cancels from q_5 and from the reciprocal sum behind q_1, so
    q_5 > 0 means a+b < f+g and q_1 < 0 means 1/a+1/b < 1/f+1/g.  Both
    cannot hold: a+b < f+g gives f−a > b−g > 0, and af < bg, so
    1/a − 1/f = (f−a)/(af) > (b−g)/(bg) = 1/g − 1/b.  Negating every root
    maps the mirror shape NPPN with q_5 < 0, q_1 > 0 onto this one.  Any
    other shape or sign choice returns False, which proves nothing.
    """
    d = tied.degree
    if d != 6 or len(tied.tied) != 1 or sp.degree != d:
        return False
    r = tied.tied[0]
    free = "".join(ch for i, ch in enumerate(tied.letters, start=1) if i not in (r, r + 1))
    q5, q1 = sp.signs[1], sp.signs[d - 1]
    return (free == "PNNP" and q5 > 0 and q1 < 0) or (free == "NPPN" and q5 < 0 and q1 > 0)


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
        if self.evidence_kind == "frontier":
            return str(self.evidence)
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
    """Why no realizable configuration can cross the wall u|v outward."""
    if table[v].status is Status.NON_REALIZABLE:
        return f"target {order_to_uvector(v)} non-realizable"
    tied = TiedOrder.wall(u, v)
    cert = contradicting_certificate(tied, sp)
    if cert is not None:
        return f"boundary forces q_{cert.k} {'positive' if cert.sign > 0 else 'negative'}"
    if pair_lemma_blocks(tied, sp):
        return "boundary infeasible by pair lemma"
    return None


def frontier_exclusion(
    sp: SignPattern, table: dict[ModuliOrder, Verdict]
) -> dict[ModuliOrder, Verdict]:
    """Try to seal the entire Unknown region: if some order outside it is
    Realizable and every wall leading out of the region is blocked (the
    chamber beyond is non-realizable, or the wall's tied order forces a
    coefficient sign against sp, or the pair lemma applies), every order
    inside is NonRealizable."""
    region = [o for o, v in table.items() if v.status is Status.UNKNOWN]
    if not region:
        return table
    anchors = [o for o, v in table.items() if v.status is Status.REALIZABLE]
    if not anchors:
        return table
    region_set = set(region)
    blocks = []
    for u in region:
        for v in _order_neighbors(u):
            if v in region_set:
                continue
            reason = _wall_block_reason(sp, u, v, table)
            if reason is None:
                return table  # an exit wall may be crossable; no conclusion
            blocks.append((u, v, reason))
    evidence = FrontierEvidence(tuple(region), anchors[0], tuple(blocks))
    table = dict(table)
    for u in region:
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


def classify_pattern(
    sp: SignPattern,
    cfg: SamplerConfig | None = None,
    store: dict[Couple, Witness] | None = None,
) -> dict[ModuliOrder, Verdict]:
    """Full verdict table for one sign pattern over all compatible orders.

    Stages, each run once:
    1. per couple, the first that applies: `search.constructive_witness`
       (the canonical couples, which include the rigid ones), `refute`
       (rigid-order lemma, canonical-only lemma for patterns with no sign
       block of shape ++−−/+−−+ and mirrors, forced-sign certificates), or
       the deterministic `search.witness_for` without a sampler config
       (stored record, transported stored sibling, stored ancestor lifted
       by concatenation);
    2. one round of propagation then frontier exclusion;
    3. `search.witness_for` with Monte Carlo on each order still Unknown;
    4. one more round of propagation then frontier exclusion.
    A second round in a row never changes a status: `propagate` iterates
    to its own fixed point, and `frontier_exclusion` either seals every
    Unknown order or returns the table unchanged.  Orders no stage decides
    stay Unknown.
    """
    cfg = cfg or SamplerConfig()
    store = store if store is not None else {}
    table: dict[ModuliOrder, Verdict] = {}

    for order in compatible_orders(sp):
        couple = Couple(sp, order)
        w = constructive_witness(couple)
        if w is not None:
            citation = None if is_rigid_order(order) else "canonical-realizable"
            table[order] = Verdict(couple, Status.REALIZABLE, "witness", w, citation=citation)
            continue
        verdict = refute(couple)
        if verdict is None:
            w = witness_for(couple, None, store)
            if w is not None:
                w.validate()
                verdict = Verdict(couple, Status.REALIZABLE, "witness", w)
        table[order] = verdict or Verdict(couple, Status.UNKNOWN, "none")

    table = frontier_exclusion(sp, propagate(sp, table))
    for order, verdict in table.items():
        if verdict.status is Status.UNKNOWN:
            w = witness_for(verdict.couple, cfg, store)
            if w is not None:
                w.validate()
                table[order] = Verdict(verdict.couple, Status.REALIZABLE, "witness", w)
    table = frontier_exclusion(sp, propagate(sp, table))

    # a stored witness for a certificate-killed couple would be fatal
    for order, verdict in table.items():
        if verdict.status is Status.NON_REALIZABLE:
            stored = store.get(Couple(sp, order))
            if stored is not None and stored.is_valid():
                raise ContradictionError(
                    f"{Couple(sp, order)} has both a witness and {verdict.evidence_kind} evidence"
                )
    return table
