"""Classification of component sets and the induced splitting of elements.

A set S of component indices carries the direct sum of those components.
That subspace is a subbialgebra exactly when S contains 1 and is closed
under products and divisors, and a biideal exactly when S is a prime
ideal of the multiplicative monoid; the complement of a
prime-set-generated submonoid always qualifies.  Every element then
splits as (part in the generated components) + (part in the complement),
with the two parts annihilating each other.
"""

from __future__ import annotations

import functools
from itertools import compress
from math import isqrt
from typing import NamedTuple

from .algebra import AlgebraElement, generator, unit
from .bialgebra import counit, delta, delta_restricted
from .errors import InputError
from .monoids import (
    PrimeSet,
    SubmonoidView,
    SubsetWindow,
    _check_factorial,
    _check_ideal,
    _check_prime,
    _check_subsemigroup,
    _or_multiples,
    _trace_mask,
    _window_mask,
)


class Classification(NamedTuple):
    verdict: str                       # subbialgebra | biideal | ideal_only | zero | none
    witness: tuple[int, int, int] | None


class Decomposition(NamedTuple):
    subbialgebra_part: AlgebraElement
    biideal_part: AlgebraElement


def classify_component_set(window: SubsetWindow) -> Classification:
    """Window verdict: subbialgebra, biideal, ideal_only, zero, or none.

    Decided by the shared window predicates of `monoids`, whose
    ``(product, left factor, right factor)`` witnesses pass unchanged.
    """
    mask = _window_mask(*window)
    bound = window.bound
    if 1 not in mask:
        return Classification("zero", None)
    if mask[1]:
        factorial = _check_factorial(mask, bound)
        if not factorial.holds:
            return Classification("none", factorial.witness)
        closed = _check_subsemigroup(mask, bound)
        if not closed.holds:
            return Classification("none", closed.witness)
        return Classification("subbialgebra", None)
    ideal = _check_ideal(mask, bound)
    prime = _check_prime(mask, bound)
    if ideal.holds:
        return Classification("biideal" if prime.holds else "ideal_only", None)
    # the prime witness is preferred; it is None when only the ideal search fails
    return Classification("none", prime.witness or ideal.witness)


def check_biideal_on_generators(prime_set: PrimeSet, n: int) -> bool:
    """Verify the coproduct of every generator of component n stays in
    complement (x) all + all (x) complement, and the counit kills it."""
    view = SubmonoidView(prime_set)
    if view.contains(n):
        raise InputError(f"component {n} lies inside the generated submonoid")
    # each leg component's membership is asked once, whatever delta returns
    contains = functools.cache(view.contains)
    for x in [unit(n)] + [generator(n, i) for i in range(1, n + 1)]:
        if counit(x) != 0:
            return False
        for (left, right), _ in delta(x).items():
            if contains(left.n) and contains(right.n):
                return False
    return True


def decompose(x: AlgebraElement, prime_set: PrimeSet) -> Decomposition:
    """Split by component membership in the generated submonoid."""
    view = SubmonoidView(prime_set)
    inside = x.restrict(view.contains)
    outside = x.restrict(lambda n: not view.contains(n))
    # Explicit checks rather than asserts, so they also hold under -O.
    if inside + outside != x:
        raise RuntimeError("decomposition parts do not sum to the element")
    if inside.support_components() & outside.support_components():
        raise RuntimeError("decomposition parts share a component")
    if not ((inside * outside).is_zero() and (outside * inside).is_zero()):
        raise RuntimeError("decomposition parts do not annihilate each other")
    return Decomposition(inside, outside)


def quotient_morphism_check(prime_set: PrimeSet, x: AlgebraElement, y: AlgebraElement) -> bool:
    """The projection onto the generated components is a bialgebra morphism."""
    view = SubmonoidView(prime_set)
    proj = lambda z: z.restrict(view.contains)
    px, py = proj(x), proj(y)
    if not proj(x * y).equals(px * py):
        return False
    if not proj(x.adjoint()).equals(px.adjoint()):
        return False
    if not delta(x).restrict(view.contains).equals(delta_restricted(view, px)):
        return False
    return counit(px) == counit(x)


class LatticeCheck(NamedTuple):
    name: str
    holds: bool
    witness: tuple | None


class LatticeIsoReport(NamedTuple):
    checks: tuple[LatticeCheck, ...]
    consistent: bool

    def lines(self) -> list[str]:
        out = [
            f"{c.name}: {'ok' if c.holds else 'FAIL'}"
            + ("" if c.witness is None else f"  witness={c.witness}")
            for c in self.checks
        ]
        out.append(f"lattice checks consistent: {'yes' if self.consistent else 'no'}")
        return out


def _product_mask(left: bytearray, right: bytearray, bound: int) -> bytearray:
    """The byte mask of the products in 1..bound of a member of ``left`` and one of ``right``, both byte masks.

    Such a product has a factor up to isqrt(bound): each such member of
    one side marks its multiples by the other side, with one integer OR.
    """
    marked = bytearray(bound + 1)
    root = isqrt(bound)
    for mask, other in ((left, right), (right, left)):
        for a in compress(range(root + 1), mask[:root + 1]):
            _or_multiples(marked, a, other)
    return marked


def _first(bits: int, *label) -> tuple | None:
    """``(n, *label)`` for the least n whose byte is set in ``bits``, a byte mask read as a little-endian int; None if none is."""
    return ((bits & -bits).bit_length() >> 3, *label) if bits else None


def lattice_iso_check(f: PrimeSet, g: PrimeSet, bound: int) -> LatticeIsoReport:
    """Meet, join, inclusion, and separation semantics over components <= bound, on each submonoid's
    trace as one byte mask read as an integer; each witness is the smallest offending component."""
    masks = [_trace_mask(s, bound) for s in (f, g, f.intersection(g), f.union(g))]
    wf, wg, wmeet, wjoin = (int.from_bytes(mask, "little") for mask in masks)
    products = int.from_bytes(_product_mask(masks[0], masks[1], bound), "little")

    meet_escapes = wmeet & ~wf
    escapes = meet_escapes | (wf & ~wjoin)
    low = escapes & -escapes
    monotone = _first(low, "meet not inside left factor" if meet_escapes & low else "left factor not inside join")
    if monotone is None and f.issubset(g):
        monotone = _first(wf & ~wg, "inclusion violated")

    separated = None
    if f != g:
        p = f.separating_prime(g)
        # beyond the window, a prime lies in a generated submonoid exactly when it generates
        in_f, in_g = (masks[0][p], masks[1][p]) if p <= bound else (f.contains(p), g.contains(p))
        separated = None if in_f != in_g else (p,)

    checks = tuple(LatticeCheck(name, witness is None, witness) for name, witness in (
        ("meet membership = intersection of memberships", _first(wmeet ^ (wf & wg))),
        ("join membership = products of the two submonoids", _first(wjoin ^ products)),
        ("monotonicity under inclusion", monotone),
        ("separation", separated),
    ))
    return LatticeIsoReport(checks, all(c.holds for c in checks))
