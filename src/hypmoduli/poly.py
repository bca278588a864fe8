"""Exact-arithmetic bridge between root configurations and couples.

Root configurations are multisets of non-zero exact rationals
(`fractions.Fraction`).  Expansion clears denominators and multiplies over
`int` (`integer_product`), then divides by the leading coefficient, so the
monic product of (x - r) comes out exactly.  The extractors read off the
coefficient sign pattern and the order of root moduli.  Floating point
never enters a validation path, so witness checks are bit-precise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
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
    return Fraction(text)


def format_exact(value: Fraction) -> str:
    """Shortest faithful text form: integer, finite decimal, or p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    # finite decimal expansions (denominator 2^a * 5^b) print as decimals
    den = value.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    if den == 1:
        scale = 0
        den = value.denominator
        while den % 2 == 0:
            den //= 2
            scale += 1
        fives = 0
        den = value.denominator
        while den % 5 == 0:
            den //= 5
            fives += 1
        digits = max(scale, fives)
        scaled = value * 10**digits
        sign = "-" if scaled < 0 else ""
        text = str(abs(scaled.numerator)).rjust(digits + 1, "0")
        return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else str(scaled.numerator)
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
        if not self.roots:
            raise ValueError("need at least one root")
        if any(r == 0 for r in self.roots):
            raise ValueError("zero roots are not allowed")
        ordered = tuple(sorted(self.roots, key=lambda r: (abs(r), r)))
        object.__setattr__(self, "roots", ordered)

    @classmethod
    def parse(cls, texts: Iterable[str]) -> "RootConfiguration":
        return cls(tuple(parse_exact(t) for t in texts))

    @property
    def degree(self) -> int:
        return len(self.roots)

    def __str__(self) -> str:
        return "{" + ", ".join(format_exact(r) for r in self.roots) + "}"


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Monic polynomial with exact rational coefficients, leading first."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) < 2:
            raise ValueError("need degree >= 1")
        if self.coefficients[0] != 1:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self) -> str:
        return "[" + ", ".join(format_exact(c) for c in self.coefficients) + "]"


def integer_product(pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Coefficients, leading first, of prod (b*x - a) over integer pairs
    (a, b): the one exact expansion loop."""
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


def expand(rc: RootConfiguration) -> Polynomial:
    """The exact monic product prod (x - r) over the configuration: each
    root r = a/b enters as the integer factor (b*x - a)."""
    coeffs = integer_product((r.numerator, r.denominator) for r in rc.roots)
    lead = coeffs[0]
    return Polynomial(tuple(Fraction(c, lead) for c in coeffs))


def sign_pattern_of(p: Polynomial) -> SignPattern:
    """Coefficient sign string, normalized to a leading +."""
    for i, c in enumerate(p.coefficients):
        if c == 0:
            raise ValueError(f"vanishing coefficient of x^{p.degree - i}")
    signs = tuple(1 if c > 0 else -1 for c in p.coefficients)
    if signs[0] == -1:
        signs = tuple(-s for s in signs)
    return SignPattern(signs)


def moduli_order_of(rc: RootConfiguration) -> ModuliOrder:
    """P/N letters of the roots in increasing modulus; raises
    `ModuliTieError` when two moduli coincide."""
    ordered = rc.roots  # already sorted by (modulus, value)
    ties = [
        (ordered[i], ordered[i + 1])
        for i in range(len(ordered) - 1)
        if abs(ordered[i]) == abs(ordered[i + 1])
    ]
    if ties:
        raise ModuliTieError(ties)
    return ModuliOrder("".join("P" if r > 0 else "N" for r in ordered))


def tied_pairs_of(rc: RootConfiguration) -> list[tuple[Fraction, Fraction]]:
    """The pairs of equal-modulus roots (empty when moduli are distinct)."""
    try:
        moduli_order_of(rc)
    except ModuliTieError as err:
        return list(err.pairs)
    return []


def couple_of(rc: RootConfiguration) -> Couple:
    """(sign pattern of the expansion, order of moduli); by the root-count
    bookkeeping this couple is always compatible."""
    return Couple(sign_pattern_of(expand(rc)), moduli_order_of(rc))


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
        if couple_of(rc) != target:
            raise ValueError(f"configuration realizes {couple_of(rc)}, not {target}")
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
    """An exact realizability proof: roots whose expansion carries the
    claimed sign pattern while the moduli carry the claimed order.

    `seed` records the sampler seed for randomly found witnesses; witnesses
    obtained deterministically leave it unset.
    """

    couple: Couple
    roots: RootConfiguration
    polynomial: Polynomial
    provenance: str
    seed: int | None = None

    def validate(self) -> None:
        if self.polynomial != expand(self.roots):
            raise WitnessError(f"stored polynomial is not the expansion of {self.roots}")
        sp = sign_pattern_of(self.polynomial)
        if sp != self.couple.sp:
            raise WitnessError(f"expansion defines {sp}, claimed {self.couple.sp}")
        try:
            order = moduli_order_of(self.roots)
        except ModuliTieError as err:
            raise WitnessError(str(err)) from err
        if order != self.couple.order:
            raise WitnessError(f"moduli define order {order}, claimed {self.couple.order}")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except WitnessError:
            return False
        return True


def make_witness(rc: RootConfiguration, provenance: str, seed: int | None = None) -> Witness:
    """Build a validated witness for whatever couple the roots realize."""
    poly = expand(rc)
    couple = Couple(sign_pattern_of(poly), moduli_order_of(rc))
    return Witness(couple, rc, poly, provenance, seed)


# ----------------------------------------------------------------- store IO

STORE_HEADER = "hypmoduli-witness-store v1"


def _witness_line(w: Witness) -> str:
    return "\t".join(
        [
            str(w.couple.sp),
            w.couple.order.letters,
            ",".join(format_exact(r) for r in w.roots.roots),
            ",".join(format_exact(c) for c in w.polynomial.coefficients),
            w.provenance,
            "-" if w.seed is None else str(w.seed),
        ]
    )


def _parse_witness_line(line: str) -> Witness:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise ValueError(f"malformed witness record: {line!r}")
    sp_text, order_text, roots_text, coeff_text, provenance, seed_text = parts
    couple = Couple(SignPattern.parse(sp_text), ModuliOrder.parse(order_text))
    roots = RootConfiguration.parse(roots_text.split(","))
    coeffs = tuple(parse_exact(t) for t in coeff_text.split(","))
    seed = None if seed_text == "-" else int(seed_text)
    return Witness(couple, roots, Polynomial(coeffs), provenance, seed)


def save_witnesses(path, witnesses: Iterable[Witness]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(STORE_HEADER + "\n")
        for w in witnesses:
            fh.write(_witness_line(w) + "\n")


def append_witnesses(path, witnesses: Iterable[Witness]) -> None:
    import os

    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(STORE_HEADER + "\n")
        for w in witnesses:
            fh.write(_witness_line(w) + "\n")


def load_witnesses(path) -> list[Witness]:
    """Read a store, re-validating every record exactly; later records win
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
