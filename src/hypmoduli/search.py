"""Positive-evidence engine: Monte Carlo witness search, concatenation
lifting, and symmetry transport of witnesses.

The sampler is untrusted by design: it filters candidates in floating
point for speed, but a witness is only ever emitted after full exact
re-validation in `poly`.  The float side is one kernel, `_scan`: the draw
and the sign test of each iteration in straight-line code generated once
per degree.  All randomness flows through one per-target seed derived
from a master seed, so sweeps are reproducible.  `witness_for` runs Monte
Carlo on im-pair representatives only, each once per process and sampler
config, and transports what it finds to the other orbit members.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from .patterns import (
    Couple,
    ModuliOrder,
    SignPattern,
    canonical_order,
    is_compatible,
    signs_to_cp,
)
from .poly import RootConfiguration, Witness, make_witness
from .symmetry import GROUP_ELEMENTS, apply_group, im_representative

_SPREAD_DECADES = 3.0  # a spread draw scales each modulus by 10^U(0, 3)
_MAX_HALVINGS = 64  # epsilon halvings `concatenate` tries before giving up


@dataclass(frozen=True, slots=True)
class SamplerConfig:
    """Reproducible Monte Carlo parameters: the master seed and the number
    of iterations each search may spend.  How moduli are drawn is fixed,
    see `_scan`."""

    seed: int = 0
    budget: int = 100_000

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be at least 1")


@dataclass(frozen=True, slots=True)
class Found:
    witness: Witness
    iterations: int


@dataclass(frozen=True, slots=True)
class Exhausted:
    couple: Couple
    budget: int


SearchOutcome = Found | Exhausted


def derive_seed(master_seed: int, couple: Couple) -> int:
    """Stable per-couple sampler seed: SHA-256 of (master seed, couple)."""
    digest = hashlib.sha256(f"{master_seed}:{couple}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@cache
def _scan(d: int):
    """The Monte Carlo draw-and-filter loop for degree d, generated once
    per degree as straight-line code.

    `scan(rand, units, signs, start, budget)` runs iterations
    start..budget-1.  Each draws d U(0, 1) moduli with d `rand()` calls.
    An odd-indexed iteration then spreads them, since thin realizability
    regions need the spread and round ones don't: d more calls scale them
    in the same order, m * 10.0 ** (3.0 * rand()) with 3.0 the constant
    `_SPREAD_DECADES`.  The sorted moduli are skipped as degenerate when
    the smallest is zero or two neighbours are equal, a measure-zero event
    that no order of distinct nonzero moduli can describe; a skipped draw
    still uses its iteration, so the alternation never shifts.  Otherwise
    the roots mj * uj (`units` of +-1.0) are multiplied in one at a time,
    coefficient k after root j being c[j-1][k] - c[j-1][k-1] * rj with one
    rounding per operation; the triangle is filled column by column
    (coefficient k needs only columns below k), moving on at the first
    coefficient that is zero or differs in sign from `signs`.  The leading
    coefficient 1 always matches the normalized leading sign.  Recorded MC
    outcomes depend on exactly this RNG use and arithmetic.

    Returns (index of the first iteration whose moduli pass, those sorted
    moduli), or (budget, None).
    """
    ms = ", ".join(f"m{j}" for j in range(1, d + 1))
    draws = ", ".join(["rand()"] * d)
    spread = ", ".join(
        f"m{j} * 10.0 ** ({_SPREAD_DECADES!r} * rand())" for j in range(1, d + 1)
    )
    distinct = " or ".join(["m1 == 0.0"] + [f"m{j} == m{j + 1}" for j in range(1, d)])
    lines = [
        "def scan(rand, units, signs, start, budget):",
        f"    {''.join(f'u{j}, ' for j in range(1, d + 1))}= units",
        f"    _, {''.join(f'p{k}, ' for k in range(1, d + 1))}= [s > 0 for s in signs]",
        "    for i in range(start, budget):",
        "        if i & 1:",
        f"            {ms} = {draws}",
        f"            ms = [{spread}]",
        "        else:",
        f"            ms = [{draws}]",
        "        ms.sort()",
        f"        {ms}, = ms",
        f"        if {distinct}:",
        "            continue",
        *(f"        r{j} = m{j} * u{j}" for j in range(1, d + 1)),
    ]
    below = ["1.0"] * d  # below[j]: coefficient k-1 after roots 1..j
    for k in range(1, d + 1):
        lines.append(f"        c{k}_{k} = 0.0 - {below[k - 1]} * r{k}")
        for j in range(k + 1, d + 1):
            lines.append(f"        c{j}_{k} = c{j - 1}_{k} - {below[j - 1]} * r{j}")
        lines.append(f"        if c{d}_{k} == 0.0 or (c{d}_{k} > 0) != p{k}:")
        lines.append("            continue")
        below = [f"c{j}_{k}" for j in range(d)]  # only j >= k are defined and read
    lines += ["        return i, ms", "    return budget, None"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["scan"]


def mc_search(target: Couple, cfg: SamplerConfig) -> SearchOutcome:
    """Sample root configurations matching the target order until one
    rounds to an exact witness of the target, or the budget runs out.

    Every draw respects the order by construction; rejection happens only
    on coefficient signs.  The kernel `_scan(degree)` draws and filters in
    floating point and stops at the first float hit.  The hit's roots,
    rounded to six decimals for compact storage, are expanded exactly once;
    when they are no witness of the target (the float filter lied near a
    sign boundary, or rounding zeroed a root, tied two moduli or made a
    coefficient vanish or flip) the scan resumes at the next iteration.
    Outcomes are deterministically reproducible from (cfg.seed, target).
    """
    if not is_compatible(target.sp, target.order):
        raise ValueError(f"incompatible couple {target}: sign counts do not match")
    rng = random.Random(derive_seed(cfg.seed, target))
    scan = _scan(target.sp.degree)
    units = tuple(1.0 if letter == "P" else -1.0 for letter in target.order.letters)
    start = 0
    while True:
        index, moduli = scan(rng.random, units, target.sp.signs, start, cfg.budget)
        if moduli is None:
            return Exhausted(target, cfg.budget)
        roots = tuple(Fraction(format(m * u, ".6f")) for m, u in zip(moduli, units))
        provenance = f"mc-search(seed={cfg.seed},iteration={index + 1})"
        try:
            witness = make_witness(RootConfiguration(roots), provenance, seed=cfg.seed)
            if witness.couple == target:
                return Found(witness, index + 1)
        except ValueError:  # a zero root, a tie or a vanishing coefficient
            pass
        start = index + 1


@cache
def _im_pair_search(representative: Couple, cfg: SamplerConfig) -> SearchOutcome:
    """`mc_search` on an im-pair representative, run once per process for
    each (representative, cfg); `witness_for` shares it across an orbit."""
    return mc_search(representative, cfg)


def concatenate(parent: Witness, root_sign: str) -> Witness:
    """Multiply a parent witness by (x - eps) or (x + eps) for a fresh root
    of strictly smallest modulus.

    A new positive root prepends P to the order and appends the negated
    last sign to the pattern; a negative root prepends N and repeats the
    last sign.  eps starts at half the smallest parent modulus and halves,
    at most _MAX_HALVINGS times, until the exact expansion reproduces the
    parent's signs above the new constant term.

    The parent is not re-validated: every caller passes a witness that
    `make_witness` just built or that was validated on load.  Soundness
    does not rest on it either, because the child is re-derived exactly by
    `make_witness` and returned only when it realizes the target built
    from the parent's claimed couple, and `witness_for` and
    `canonical_witness` compare the child with their own target again.  So
    a parent whose roots do not realize its claimed couple can make the
    call fail, but never yields a child for a couple its roots do not
    realize; a wrong claimed order matches no candidate at all, since the
    new root has the smallest modulus and every candidate's order is the
    new letter before the roots' own order.
    """
    if root_sign not in ("P", "N"):
        raise ValueError("root_sign must be 'P' or 'N'")
    last = parent.couple.sp.signs[-1]
    new_sign = -last if root_sign == "P" else last
    target = Couple(
        SignPattern(parent.couple.sp.signs + (new_sign,)),
        ModuliOrder(root_sign + parent.couple.order.letters),
    )
    roots = parent.roots.roots  # sorted by modulus
    provenance = f"concatenation({parent.couple})"
    eps = Fraction(abs(roots[0]), 2)
    for _ in range(_MAX_HALVINGS):
        root = eps if root_sign == "P" else -eps
        rc = RootConfiguration(roots + (root,))
        try:
            child = make_witness(rc, provenance)
            if child.couple == target:
                return child
        except ValueError:
            pass
        eps /= 2
    raise ValueError(f"epsilon underflow while concatenating onto {parent.couple}")


def transport(parent: Witness, g: str) -> Witness:
    """Carry a witness across the symmetry group: i_m negates every root,
    i_r inverts every root; the image realizes g(parent couple) and keeps
    the parent's sampler seed."""
    if g not in GROUP_ELEMENTS or g == "id":
        raise ValueError(f"g must be one of {[e for e in GROUP_ELEMENTS if e != 'id']}")
    roots = parent.roots.roots
    if "ir" in g:
        roots = tuple(1 / r for r in roots)
    if g.startswith("im"):
        roots = tuple(-r for r in roots)
    image = make_witness(
        RootConfiguration(roots), f"symmetry-transport({g},{parent.couple})", seed=parent.seed
    )
    expected = apply_group(g, parent.couple)
    if image.couple != expected:
        raise ValueError(f"transport produced {image.couple}, expected {expected}")
    return image


# -------------------------------------------------------- staged witnessing


@cache
def canonical_witness(sp: SignPattern) -> Witness:
    """Deterministic witness for (sp, canonical order of sp), built by
    concatenating one root at a time along the truncation chain.

    Dropping the constant-term sign of sp drops the first letter of its
    canonical order, so the chain recurses to degree 1 and every couple
    on it is again canonical.  Memoized: the witness is a pure function of
    sp, and a sweep asks for it from every stage that needs the canonical
    couple.
    """
    if sp.degree == 1:
        root = Fraction(1) if sp.signs[1] == -1 else Fraction(-1)
        return make_witness(RootConfiguration((root,)), "rigid-construction")
    parent = canonical_witness(SignPattern(sp.signs[:-1]))
    order = canonical_order(sp)
    child = concatenate(parent, order.letters[0])
    if child.couple != Couple(sp, order):
        raise ValueError(f"canonical chain realized {child.couple}, expected ({sp}, {order})")
    return child


def constructive_witness(couple: Couple) -> Witness | None:
    """`canonical_witness` for a couple whose order is its pattern's
    canonical order; these include each rigid order with its one sign
    pattern.  None for every other couple, which proves nothing."""
    if couple.order != canonical_order(couple.sp):
        return None
    return canonical_witness(couple.sp)


def _has_concat_parent(couple: Couple) -> bool:
    last_cp = signs_to_cp(couple.sp).letters[-1]
    return (last_cp == "c") == (couple.order.letters[0] == "P")


def witness_for(
    target: Couple,
    cfg: SamplerConfig = SamplerConfig(),
    store: dict[Couple, Witness] | None = None,
) -> Witness | None:
    """Staged search for a witness: stored record, `constructive_witness`,
    transport of a stored orbit sibling, recursive concatenation from the
    degree-(d-1) truncation (skipped when `certify.refute` proves that
    parent non-realizable), and finally Monte Carlo under `cfg`, at every
    level of the recursion.  The first stage that yields a witness wins, so
    Monte Carlo runs only where no deterministic stage applies.  Returns
    None when every stage comes up empty.

    The parent gate is `refute`, not a memoized `certify.settle`, which
    builds each parent pattern's table (30-50 ms for all of degree 5): the
    degree-6 sweep ran 1916/1881/1932 → 1747/1779/1763 couples/s that way,
    over three alternating pairs (2 cores, CPython 3.11).

    Monte Carlo searches at most two im-pair representatives
    (`symmetry.im_representative`), those of the target and of ir(target),
    the smaller by text first, and transports the first witness found to
    the target.  Each (representative, cfg) is searched once per process
    and shared by the whole orbit, and the result is a function of
    (target, cfg, store) alone."""
    if not is_compatible(target.sp, target.order):
        raise ValueError(f"incompatible couple {target}")
    if store and target in store and store[target].couple == target:
        return store[target]
    constructed = constructive_witness(target)
    if constructed is not None:
        return constructed
    # the group maps canonical couples to canonical couples, so only a
    # stored sibling can help a couple that has no construction
    for g in ("im", "ir", "imir"):
        sibling = apply_group(g, target)
        if store and sibling in store:
            return transport(store[sibling], g)  # each group element is an involution
    if _has_concat_parent(target):
        from .certify import refute  # certify imports this module at load time

        parent_target = Couple(
            SignPattern(target.sp.signs[:-1]), ModuliOrder(target.order.letters[1:])
        )
        # a parent that a certificate refutes has no witness to lift, and
        # searching it would only exhaust the MC budget
        parent = None
        if refute(parent_target) is None:
            parent = witness_for(parent_target, cfg, store)
        if parent is not None:
            child = concatenate(parent, target.order.letters[0])
            if child.couple != target:
                raise ValueError(f"concatenation realized {child.couple}, expected {target}")
            return child
    # im negates every root and float negation is exact, so a search of
    # im(side) is a search of side under another per-couple seed: one per
    # im-pair suffices.  The spread 10^U(0, 3) does not commute with root
    # inversion, so ir is no symmetry of the sampler, and each ir-side of
    # the orbit keeps its own search.  The order depends on the orbit alone,
    # so every member asks the same search first.
    sides = {im_representative(x) for x in (target, apply_group("ir", target))}
    for searched in sorted(sides, key=str):
        outcome = _im_pair_search(searched, cfg)
        if isinstance(outcome, Found):
            if searched == target:
                return outcome.witness
            g = next(g for g in GROUP_ELEMENTS if apply_group(g, searched) == target)
            return transport(outcome.witness, g)
    return None
