"""Exact-arithmetic bridge between root configurations and couples.

Root configurations are multisets of non-zero exact rationals
(`fractions.Fraction`).  Expansion clears denominators and multiplies over
`int` (`integer_product`); `couple_of` reads the couple the roots realize
off that integer expansion (coefficient signs) and off the roots (order of
moduli), and is the one derivation that builds and re-checks witnesses.
A witness is its roots and its claim; the coefficient column of a stored
record is cross-multiplied against the integer expansion once, when the
store is loaded.  The order, tie, sign and coefficient checks read the
integer numerators and denominators of the normalized rationals (moduli
compare over a common denominator), never `Fraction` operators.  Floating
point never enters a validation path, so witness checks are bit-precise.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .patterns import Couple, ModuliOrder, SignPattern

_EXACT_RE = re.compile(r"^[+-]?(\d+(\.\d+)?|\d+/\d+)$")


def parse_exact(text: str) -> Fraction:
    """Parse a decimal or fraction literal exactly (0.39 -> 39/100).

    Scientific notation is rejected: the stored corpora use plain decimal
    and fraction strings only, and round-tripping must be lossless.
    """
    text = text.strip()
    if not _EXACT_RE.match(text):
        raise ValueError(f"not an exact decimal/fraction literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_exact(value: Fraction) -> str:
    """Shortest faithful text form: integer, finite decimal, or p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    # a finite decimal expansion (denominator 2^a * 5^b) needs max(a, b) digits
    den, counts = value.denominator, {2: 0, 5: 0}
    for p in counts:
        while den % p == 0:
            den //= p
            counts[p] += 1
    if den == 1:
        digits = max(counts.values())
        text = str((abs(value) * 10**digits).numerator).rjust(digits + 1, "0")
        return f"{'-' if value < 0 else ''}{text[:-digits]}.{text[-digits:]}"
    return f"{value.numerator}/{value.denominator}"


class ModuliTieError(ValueError):
    """Raised when root moduli are not pairwise distinct; carries the tied
    root pairs so callers can route them to `resolve_ties`."""

    def __init__(self, pairs: Sequence[tuple[Fraction, Fraction]]):
        self.pairs = tuple(pairs)
        listing = ", ".join(f"({format_exact(a)}, {format_exact(b)})" for a, b in self.pairs)
        super().__init__(f"tie between moduli of root pairs: {listing}")


@dataclass(frozen=True, slots=True)
class RootConfiguration:
    """A multiset of d non-zero exact rational roots, stored sorted by
    (modulus, value) so equal multisets compare equal."""

    roots: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        roots = self.roots
        if not roots:
            raise ValueError("need at least one root")
        for r in roots:
            if not isinstance(r, Rational):
                raise ValueError(f"root {r!r} is not an exact rational")
            if not r.numerator:
                raise ValueError("zero roots are not allowed")
        # |r| = |a|/b = |a| * (lcm // b) / lcm, so the integer key sorts
        # exactly like (abs(r), r)
        lcm = math.lcm(*(r.denominator for r in roots))
        ordered = tuple(
            sorted(roots, key=lambda r: (abs(r.numerator) * (lcm // r.denominator), r.numerator))
        )
        object.__setattr__(self, "roots", ordered)

    @classmethod
    def parse(cls, texts: Iterable[str]) -> "RootConfiguration":
        return cls(tuple(parse_exact(t) for t in texts))

    @property
    def degree(self) -> int:
        return len(self.roots)

    def __str__(self) -> str:
        return "{" + ", ".join(format_exact(r) for r in self.roots) + "}"


def integer_product(pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Coefficients, leading first, of prod (b*x - a) over integer pairs
    (a, b): the one exact expansion loop of witnesses."""
    coeffs = [1]
    for a, b in pairs:
        prev = 0
        nxt = []
        for c in coeffs:
            nxt.append(b * c - a * prev)
            prev = c
        nxt.append(-a * prev)
        coeffs = nxt
    return coeffs


def _integer_expansion(rc: RootConfiguration) -> list[int]:
    """`integer_product` of the configuration: each root r = a/b enters as
    the integer factor (b*x - a), so coefficient k of the monic product is
    the k-th entry over the first, which is positive."""
    return integer_product((r.numerator, r.denominator) for r in rc.roots)


def expand(rc: RootConfiguration) -> tuple[Fraction, ...]:
    """Coefficients, leading first, of the exact monic product prod (x - r)
    over the configuration; the leading one is 1."""
    coeffs = _integer_expansion(rc)
    lead = coeffs[0]
    return tuple(Fraction(c, lead) for c in coeffs)


def _signs_of(numerators: Iterable[int]) -> tuple[int, ...]:
    """Signs of coefficients, leading first, given their numerators over
    positive denominators; raises ValueError naming a vanishing one."""
    signs = tuple(1 if n > 0 else -1 if n else 0 for n in numerators)
    if 0 in signs:
        raise ValueError(f"vanishing coefficient of x^{len(signs) - 1 - signs.index(0)}")
    return signs


def tied_pairs_of(rc: RootConfiguration) -> list[tuple[Fraction, Fraction]]:
    """The pairs of equal-modulus roots (empty when moduli are distinct).

    The roots are sorted by modulus and normalized, so two neighbours tie
    exactly when their denominators and absolute numerators agree."""
    ordered = rc.roots
    return [
        (a, b)
        for a, b in zip(ordered, ordered[1:])
        if a.denominator == b.denominator and abs(a.numerator) == abs(b.numerator)
    ]


def moduli_order_of(rc: RootConfiguration) -> ModuliOrder:
    """P/N letters of the roots in increasing modulus; raises
    `ModuliTieError` when two moduli coincide."""
    ties = tied_pairs_of(rc)
    if ties:
        raise ModuliTieError(ties)
    return ModuliOrder("".join("P" if r.numerator > 0 else "N" for r in rc.roots))


def couple_of(rc: RootConfiguration) -> Couple:
    """The couple the roots realize: the signs of the integer expansion and
    the order of moduli, the one exact derivation of a couple from roots.
    Raises ValueError naming a vanishing coefficient, and `ModuliTieError`
    on tied moduli.  By the root-count bookkeeping the couple is always
    compatible."""
    return Couple(SignPattern(_signs_of(_integer_expansion(rc))), moduli_order_of(rc))


_MAX_HALVINGS = 64  # shrink factors 1 - 2^-k that `resolve_ties` tries


def resolve_ties(rc: RootConfiguration, target: Couple) -> RootConfiguration:
    """Shrink one root of each tied-modulus pair until the configuration
    realizes `target`.

    The target letter at the lower rank of a tied pair names the sign of
    the root that must drop below its partner.  That root is multiplied by
    1 - 2^-k for k = 1.._MAX_HALVINGS, which keeps root signs and
    rationality; every candidate is re-validated exactly.
    """
    shrink = []
    for a, b in tied_pairs_of(rc):
        if (a > 0) == (b > 0):
            raise ValueError("tied roots of equal sign cannot be ordered by any P/N target")
        rank = rc.roots.index(a)  # 0-based rank of the lower tied slot
        letter, partner_letter = target.order.letters[rank : rank + 2]
        if {letter, partner_letter} != {"P", "N"}:
            raise ValueError(
                f"target order {target.order} does not split the tie at ranks {rank + 1},{rank + 2}"
            )
        shrink.append(a if (a > 0) == (letter == "P") else b)
    if not shrink:
        realized = couple_of(rc)
        if realized != target:
            raise ValueError(f"configuration realizes {realized}, not {target}")
        return rc
    kept = list(rc.roots)
    for r in shrink:
        kept.remove(r)
    for k in range(1, _MAX_HALVINGS + 1):
        factor = 1 - Fraction(1, 2**k)
        candidate = RootConfiguration(tuple(kept + [r * factor for r in shrink]))
        try:
            if couple_of(candidate) == target:
                return candidate
        except ValueError:  # a vanishing coefficient or a new tie
            continue
    raise ValueError(f"no perturbation of {rc} realizes {target} within {_MAX_HALVINGS} halvings")


class WitnessError(ValueError):
    """A witness record failed exact re-validation."""


@dataclass(frozen=True, slots=True)
class Witness:
    """An exact realizability proof: roots, and the couple they are claimed
    to realize (the signs of their expansion and the order of their moduli).

    `seed` records the sampler seed of a Monte Carlo witness and of its
    symmetry transports; every other witness leaves it unset.
    """

    couple: Couple
    roots: RootConfiguration
    provenance: str
    seed: int | None = None

    def validate(self) -> None:
        """Re-derive the couple of the roots exactly (`couple_of`) and
        compare it with the claim; every failure, a vanishing coefficient
        or tied moduli included, raises `WitnessError`."""
        try:
            realized = couple_of(self.roots)
        except ValueError as err:
            raise WitnessError(str(err)) from err
        if realized.sp != self.couple.sp:
            raise WitnessError(f"expansion defines {realized.sp}, claimed {self.couple.sp}")
        if realized.order != self.couple.order:
            raise WitnessError(f"moduli define order {realized.order}, claimed {self.couple.order}")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except WitnessError:
            return False
        return True


def make_witness(rc: RootConfiguration, provenance: str, seed: int | None = None) -> Witness:
    """The witness of whatever couple the roots realize (`couple_of`);
    raises ValueError as `couple_of` does."""
    return Witness(couple_of(rc), rc, provenance, seed)


# ----------------------------------------------------------------- store IO

STORE_HEADER = "hypmoduli-witness-store v1"


def _witness_line(w: Witness) -> str:
    return "\t".join(
        [
            str(w.couple.sp),
            w.couple.order.letters,
            ",".join(format_exact(r) for r in w.roots.roots),
            ",".join(format_exact(c) for c in expand(w.roots)),
            w.provenance,
            "-" if w.seed is None else str(w.seed),
        ]
    )


def _parse_witness_line(line: str) -> Witness:
    """One record; its coefficient column must be the monic expansion of
    its roots, n/m == q/lead checked as n * lead == q * m over the integer
    expansion q.  The claim itself is left to `Witness.validate`."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise ValueError(f"malformed witness record: {line!r}")
    sp_text, order_text, roots_text, coeff_text, provenance, seed_text = parts
    couple = Couple(SignPattern.parse(sp_text), ModuliOrder.parse(order_text))
    roots = RootConfiguration.parse(roots_text.split(","))
    stored = [parse_exact(t) for t in coeff_text.split(",")]
    coeffs = _integer_expansion(roots)
    lead = coeffs[0]
    if len(stored) != len(coeffs) or any(
        c.numerator * lead != q * c.denominator for c, q in zip(stored, coeffs)
    ):
        raise WitnessError(f"stored polynomial is not the expansion of {roots}")
    seed = None if seed_text == "-" else int(seed_text)
    return Witness(couple, roots, provenance, seed)


def append_witnesses(path, witnesses: Iterable[Witness]) -> None:
    """Append records to a store, writing the header first when the file is
    missing or empty, and a newline first when its last line has none.  A
    file that does not start with the header raises ValueError naming the
    path and is left unchanged."""
    header, last = "", b"\n"
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode("utf-8", errors="replace")
            if header:
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
    except FileNotFoundError:
        pass
    if header and header.rstrip("\r\n") != STORE_HEADER:
        raise ValueError(f"{path}: unrecognized witness store header: {header.rstrip()!r}")
    with open(path, "a", encoding="utf-8") as fh:
        if not header:
            fh.write(STORE_HEADER + "\n")
        elif last != b"\n":
            fh.write("\n")
        for w in witnesses:
            fh.write(_witness_line(w) + "\n")


def load_witnesses(path) -> list[Witness]:
    """Read a store, checking each coefficient column against its roots and
    re-validating every claim exactly; later records win
    per (couple, provenance) key.  A malformed or invalid record raises
    ValueError naming path:line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != STORE_HEADER:
            raise ValueError(f"unrecognized witness store header: {header!r}")
        records: dict[tuple[Couple, str], Witness] = {}
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                w = _parse_witness_line(line)
                w.validate()
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from err
            records[(w.couple, w.provenance)] = w
    return list(records.values())
