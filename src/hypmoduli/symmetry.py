"""The Z2 x Z2 action on couples and its orbit decomposition.

Two commuting involutions act on sign patterns, orders of moduli and
couples:

* ``im`` -- on polynomials Q(x) |-> (-1)^d Q(-x); it negates every root, so
  it swaps P and N in orders, c and p in change/preservation patterns, and
  the change/preservation counts.
* ``ir`` -- Q(x) |-> x^d Q(1/x) / Q(0); it inverts every root, so it reads
  patterns and orders from the right (with sign renormalization) and keeps
  the change/preservation counts.

Couples in one orbit are simultaneously realizable or non-realizable, which
is how classification results for one representative extend to its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import singledispatch

from .patterns import Couple, ModuliOrder, SignPattern, enumerate_patterns

_SWAP_PN = str.maketrans("PN", "NP")


@singledispatch
def apply_im(x):
    raise TypeError(f"cannot apply im to {type(x).__name__}")


@apply_im.register
def _(sp: SignPattern) -> SignPattern:
    # q_j |-> (-1)^(d-j) q_j: flip every second sign counting from the
    # leading one, which itself stays +.
    signs = tuple(s if i % 2 == 0 else -s for i, s in enumerate(sp.signs))
    return SignPattern(signs)


@apply_im.register
def _(order: ModuliOrder) -> ModuliOrder:
    return ModuliOrder(order.letters.translate(_SWAP_PN))


@apply_im.register
def _(couple: Couple) -> Couple:
    return Couple(apply_im(couple.sp), apply_im(couple.order))


@singledispatch
def apply_ir(x):
    raise TypeError(f"cannot apply ir to {type(x).__name__}")


@apply_ir.register
def _(sp: SignPattern) -> SignPattern:
    signs = tuple(reversed(sp.signs))
    if signs[0] == -1:
        signs = tuple(-s for s in signs)
    return SignPattern(signs)


@apply_ir.register
def _(order: ModuliOrder) -> ModuliOrder:
    return ModuliOrder(order.letters[::-1])


@apply_ir.register
def _(couple: Couple) -> Couple:
    return Couple(apply_ir(couple.sp), apply_ir(couple.order))


def im_representative(x):
    """The member of {x, im x} whose text comes first: the one rule by which
    an im-pair shares Monte Carlo searches."""
    return min(x, apply_im(x), key=str)


GROUP_ELEMENTS = ("id", "im", "ir", "imir")


def apply_group(g: str, x):
    """Apply a named group element ("id", "im", "ir" or "imir")."""
    if g == "id":
        return x
    if g == "im":
        return apply_im(x)
    if g == "ir":
        return apply_ir(x)
    if g == "imir":
        return apply_im(apply_ir(x))
    raise ValueError(f"unknown group element {g!r}")


@dataclass(frozen=True, slots=True)
class Orbit:
    """An orbit under {id, im, ir, imir}; always of size 2 or 4 because im
    never fixes a sign pattern."""

    members: frozenset

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def representative(self):
        return min(self.members, key=str)

    def sorted_members(self) -> list:
        return sorted(self.members, key=str)


def orbit_of(x) -> Orbit:
    """The orbit of a sign pattern, order or couple."""
    return Orbit(frozenset(apply_group(g, x) for g in GROUP_ELEMENTS))


def orbits(d: int, changes: int) -> list[Orbit]:
    """Orbits of sign patterns of degree d covering the strata with the
    given change count and its complement (im exchanges the two strata).
    Orbits are sorted by their lexicographically least member."""
    pool = set(enumerate_patterns(d, changes)) | set(enumerate_patterns(d, d - changes))
    seen: set[SignPattern] = set()
    result = []
    for sp in sorted(pool, key=str):
        if sp in seen:
            continue
        orb = orbit_of(sp)
        seen.update(orb.members)
        result.append(orb)
    return sorted(result, key=lambda o: str(o.representative))
