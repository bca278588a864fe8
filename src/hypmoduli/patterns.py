"""Combinatorics of coefficient sign patterns and orders of root moduli.

A degree-d real-rooted polynomial with non-vanishing coefficients has
exactly as many positive roots as sign changes in its coefficient sequence,
and as many negative roots as sign preservations (Descartes' rule, which is
exact in the real-rooted case).  The types here encode the two sides of that
bookkeeping -- sign patterns on the coefficient side, orders of moduli on
the root side -- together with their standard re-encodings (run-length
composition, change/preservation string, uvector) and the structural
predicates (compatibility, canonicality, rigidity, neighbour relation) used
by the classification pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

PLUS = 1
MINUS = -1

_SIGN_CHARS = {PLUS: "+", MINUS: "-"}


@dataclass(frozen=True, slots=True)
class SignPattern:
    """The signs (sgn q_d, ..., sgn q_0) of a coefficient sequence.

    Normalized so the leading sign is "+"; `parse` flips a pattern given
    with a leading "-" (multiplying a polynomial by -1 keeps its roots).
    """

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.signs) < 2:
            raise ValueError("sign pattern needs at least two entries")
        if any(s not in (PLUS, MINUS) for s in self.signs):
            raise ValueError("sign entries must be +1 or -1")
        if self.signs[0] != PLUS:
            raise ValueError("leading sign must be +; use SignPattern.parse to normalize")

    @classmethod
    def parse(cls, text: str) -> "SignPattern":
        """Parse "++-+" style strings or comma-separated run lengths ("3,1,2,1")."""
        text = text.strip()
        if not text:
            raise ValueError("empty sign pattern")
        if text[0].isdigit():
            return Composition.parse(text).to_sign_pattern()
        signs = []
        for ch in text:
            if ch == "+":
                signs.append(PLUS)
            elif ch == "-":
                signs.append(MINUS)
            else:
                raise ValueError(f"bad sign character {ch!r}")
        if signs[0] == MINUS:
            signs = [-s for s in signs]
        return cls(tuple(signs))

    @property
    def degree(self) -> int:
        return len(self.signs) - 1

    def __str__(self) -> str:
        return "".join(_SIGN_CHARS[s] for s in self.signs)

    def composition(self) -> "Composition":
        runs = [len(list(g)) for _, g in itertools.groupby(self.signs)]
        return Composition(tuple(runs))


@dataclass(frozen=True, slots=True)
class ChangePreservationPattern:
    """Length-d string over {c, p}; the letter in position j from the right
    describes the coefficient pair (q_j, q_{j-1}): c if the signs differ,
    p if they agree."""

    letters: str

    def __post_init__(self) -> None:
        if not self.letters or set(self.letters) - {"c", "p"}:
            raise ValueError("letters must be a non-empty string over {c, p}")

    def __str__(self) -> str:
        return self.letters


@dataclass(frozen=True, slots=True)
class Composition:
    """Run lengths (m_1, m_2, ...) of a sign pattern: m_1 pluses, then m_2
    minuses, then m_3 pluses and so on.  sum(runs) = d + 1 and the number of
    runs is one more than the number of sign changes."""

    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.runs or any(m < 1 for m in self.runs):
            raise ValueError("runs must be positive integers")

    @classmethod
    def parse(cls, text: str) -> "Composition":
        try:
            runs = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad composition {text!r}") from exc
        return cls(runs)

    def to_sign_pattern(self) -> SignPattern:
        signs: list[int] = []
        sign = PLUS
        for m in self.runs:
            signs.extend([sign] * m)
            sign = -sign
        return SignPattern(tuple(signs))

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.runs)


@dataclass(frozen=True, slots=True)
class ModuliOrder:
    """String over {P, N}: the i-th letter says whether the i-th smallest
    root modulus belongs to a positive (P) or negative (N) root."""

    letters: str

    def __post_init__(self) -> None:
        if not self.letters or set(self.letters) - {"P", "N"}:
            raise ValueError("letters must be a non-empty string over {P, N}")

    @classmethod
    def parse(cls, text: str) -> "ModuliOrder":
        text = text.strip()
        if text.startswith("["):
            return UVector.parse(text).to_order()
        return cls(text)

    @property
    def degree(self) -> int:
        return len(self.letters)

    def count_positive(self) -> int:
        return self.letters.count("P")

    def __str__(self) -> str:
        return self.letters


@dataclass(frozen=True, slots=True)
class UVector:
    """Interval counts [u_1, ..., u_{k+1}] of an order of moduli with k
    letters P: u_i is the number of N moduli in the i-th interval cut out by
    the P moduli (u_1 below the first P, u_{k+1} above the last)."""

    u: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.u or any(x < 0 for x in self.u):
            raise ValueError("uvector components must be non-negative")

    @classmethod
    def parse(cls, text: str) -> "UVector":
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad uvector {text!r}") from exc

    def to_order(self) -> ModuliOrder:
        chunks = ["N" * x for x in self.u]
        return ModuliOrder("P".join(chunks))

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.u) + "]"


@dataclass(frozen=True, slots=True)
class Couple:
    """A (sign pattern, order of moduli) pair -- the unit of classification.

    Construction does not require compatibility; `is_compatible` gates what
    the decision pipeline accepts.
    """

    sp: SignPattern
    order: ModuliOrder

    def __str__(self) -> str:
        return f"({self.sp.composition()}, {self.order})"


def signs_to_cp(sp: SignPattern) -> ChangePreservationPattern:
    """Change/preservation letters of adjacent coefficient pairs, written
    left to right over descending powers ((q_d, q_{d-1}) first)."""
    letters = "".join(
        "p" if a == b else "c" for a, b in itertools.pairwise(sp.signs)
    )
    return ChangePreservationPattern(letters)


def cp_to_signs(cp: ChangePreservationPattern) -> SignPattern:
    """Inverse of `signs_to_cp` given the leading + convention."""
    signs = [PLUS]
    for letter in cp.letters:
        signs.append(signs[-1] if letter == "p" else -signs[-1])
    return SignPattern(tuple(signs))


def descartes_counts(sp: SignPattern) -> tuple[int, int]:
    """(number of sign changes, number of sign preservations); for a
    real-rooted polynomial these are the counts of positive and negative
    roots with multiplicity."""
    changes = sum(a != b for a, b in itertools.pairwise(sp.signs))
    return changes, sp.degree - changes


def canonical_order(sp: SignPattern) -> ModuliOrder:
    """The canonical order of moduli of a sign pattern: read the cp-pattern
    from the right, write the order from the left, turning c into P and p
    into N.  Every sign pattern is realizable with this order."""
    cp = signs_to_cp(sp).letters
    return ModuliOrder("".join("P" if letter == "c" else "N" for letter in reversed(cp)))


def _canonical_preimage(order: ModuliOrder) -> SignPattern:
    """The unique sign pattern whose canonical order is `order`."""
    cp = "".join("c" if letter == "P" else "p" for letter in reversed(order.letters))
    return cp_to_signs(ChangePreservationPattern(cp))


_FORBIDDEN_BLOCKS = (
    (PLUS, PLUS, MINUS, MINUS),
    (PLUS, MINUS, MINUS, PLUS),
    (MINUS, MINUS, PLUS, PLUS),
    (MINUS, PLUS, PLUS, MINUS),
)


def is_canonical_pattern(sp: SignPattern) -> bool:
    """True iff the pattern is realizable only with its canonical order;
    equivalently, none of the four sign blocks (+,+,-,-), (+,-,-,+),
    (-,-,+,+), (-,+,+,-) occurs consecutively."""
    quads = zip(sp.signs, sp.signs[1:], sp.signs[2:], sp.signs[3:])
    return all(q not in _FORBIDDEN_BLOCKS for q in quads)


def is_rigid_order(order: ModuliOrder) -> bool:
    """True iff every real-rooted polynomial with this order of moduli has
    one and the same sign pattern; exactly the alternating and constant
    orders are rigid."""
    letters = order.letters
    constant = len(set(letters)) == 1
    alternating = all(a != b for a, b in itertools.pairwise(letters))
    return constant or alternating


def rigid_sign_pattern(order: ModuliOrder) -> SignPattern:
    """The unique sign pattern defined by polynomials with a rigid order."""
    if not is_rigid_order(order):
        raise ValueError(f"order {order} is not rigid")
    # For a rigid order the only realizable sign pattern is the one having
    # this order as its canonical order.
    return _canonical_preimage(order)


def is_compatible(sp: SignPattern, order: ModuliOrder) -> bool:
    """True iff the change count of `sp` equals the P count of `order` (and
    hence the preservation count equals the N count)."""
    if order.degree != sp.degree:
        raise ValueError(
            f"length mismatch: order of degree {order.degree} vs pattern of degree {sp.degree}"
        )
    changes, _ = descartes_counts(sp)
    return changes == order.count_positive()


def order_to_uvector(order: ModuliOrder) -> UVector:
    u = [0]
    for letter in order.letters:
        if letter == "P":
            u.append(0)
        else:
            u[-1] += 1
    return UVector(tuple(u))


def uvector_to_order(u: UVector) -> ModuliOrder:
    return u.to_order()


def neighbors(u: UVector) -> tuple[UVector, ...]:
    """All uvectors obtained by transferring one unit between adjacent
    components; sorted for determinism.  The relation is symmetric."""
    found = set()
    comps = u.u
    for i in range(len(comps) - 1):
        if comps[i] > 0:
            moved = list(comps)
            moved[i] -= 1
            moved[i + 1] += 1
            found.add(UVector(tuple(moved)))
        if comps[i + 1] > 0:
            moved = list(comps)
            moved[i + 1] -= 1
            moved[i] += 1
            found.add(UVector(tuple(moved)))
    return tuple(sorted(found, key=lambda v: v.u))


def enumerate_patterns(d: int, changes: int) -> list[SignPattern]:
    """All sign patterns of degree d with the given number of sign changes,
    in lexicographic order with + < -."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if not 0 <= changes <= d:
        raise ValueError(f"changes must lie in 0..{d}")
    result = []
    for tail in itertools.product((PLUS, MINUS), repeat=d):
        signs = (PLUS,) + tail
        if sum(a != b for a, b in itertools.pairwise(signs)) == changes:
            result.append(SignPattern(signs))
    return result


def enumerate_orders(d: int, n_positive: int) -> list[ModuliOrder]:
    """All orders of moduli of length d with the given number of letters P,
    in lexicographic order with P < N."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if not 0 <= n_positive <= d:
        raise ValueError(f"n_positive must lie in 0..{d}")
    result = []
    for letters in itertools.product("PN", repeat=d):
        if letters.count("P") == n_positive:
            result.append(ModuliOrder("".join(letters)))
    return result


def compatible_orders(sp: SignPattern) -> list[ModuliOrder]:
    """All orders of moduli compatible with the pattern."""
    changes, _ = descartes_counts(sp)
    return enumerate_orders(sp.degree, changes)
