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

from typing import NamedTuple

from .algebra import AlgebraElement, generator, unit
from .bialgebra import counit, delta, delta_restricted
from .errors import InputError
from .monoids import (
    PrimeSet,
    SubmonoidView,
    SubsetWindow,
    divisor_pairs,
)
from .tensors import TensorElement


class Classification(NamedTuple):
    verdict: str                       # subbialgebra | biideal | ideal_only | zero | none
    witness: tuple[int, int, int] | None
    scope: str = "window"


class Decomposition(NamedTuple):
    subbialgebra_part: AlgebraElement
    biideal_part: AlgebraElement


def _divisor_closure_witness(members, bound) -> tuple[int, int, int] | None:
    for n in sorted(members):
        for m, l in divisor_pairs(n):
            if m not in members or l not in members:
                return (n, m, l)
    return None


def _product_closure_witness(members, bound) -> tuple[int, int, int] | None:
    for a in sorted(members):
        for b in sorted(members):
            if a * b <= bound and a * b not in members:
                return (a * b, a, b)
    return None


def _ideal_witness(members, bound) -> tuple[int, int, int] | None:
    for a in range(1, bound + 1):
        for s in sorted(members):
            if a * s <= bound and a * s not in members:
                return (a * s, a, s)
    return None


def _prime_witness(members, bound) -> tuple[int, int, int] | None:
    for n in sorted(members):
        for m, l in divisor_pairs(n):
            if m not in members and l not in members:
                return (n, m, l)
    return None


def classify_component_set(window: SubsetWindow) -> Classification:
    """Window verdict: subbialgebra, biideal, ideal_only, zero, or none."""
    members = set(window.members)
    bound = window.bound
    if not members:
        return Classification("zero", None)
    if 1 in members:
        witness = _divisor_closure_witness(members, bound)
        if witness is None:
            witness = _product_closure_witness(members, bound)
        if witness is None:
            return Classification("subbialgebra", None)
        return Classification("none", witness)
    ideal_witness = _ideal_witness(members, bound)
    prime_witness = _prime_witness(members, bound)
    if ideal_witness is None and prime_witness is None:
        return Classification("biideal", None)
    if ideal_witness is None:
        return Classification("ideal_only", None)
    return Classification("none", ideal_witness if prime_witness is None else prime_witness)


def check_biideal_on_generators(prime_set: PrimeSet, n: int) -> bool:
    """Verify the coproduct of every generator of component n stays in
    complement (x) all + all (x) complement, and the counit kills it."""
    view = SubmonoidView(prime_set)
    if view.contains(n):
        raise InputError(f"component {n} lies inside the generated submonoid")
    for x in [unit(n)] + [generator(n, i) for i in range(1, n + 1)]:
        if counit(x) != 0:
            return False
        for (left, right), _ in delta(x).items():
            if view.contains(left.n) and view.contains(right.n):
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


def _project_tensor(u: TensorElement, keep) -> TensorElement:
    return TensorElement._raw(
        {
            legs: c
            for legs, c in u.items()
            if keep(legs[0].n) and keep(legs[1].n)
        }
    )


def quotient_morphism_check(prime_set: PrimeSet, x: AlgebraElement, y: AlgebraElement) -> bool:
    """The projection onto the generated components is a bialgebra morphism."""
    view = SubmonoidView(prime_set)
    proj = lambda z: z.restrict(view.contains)
    px, py = proj(x), proj(y)
    if not proj(x * y).equals(px * py):
        return False
    if not proj(x.adjoint()).equals(px.adjoint()):
        return False
    if not _project_tensor(delta(x), view.contains).equals(delta_restricted(view, px)):
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


def lattice_iso_check(f: PrimeSet, g: PrimeSet, bound: int) -> LatticeIsoReport:
    """Meet, join, inclusion, and separation semantics over components <= bound."""
    vf, vg = SubmonoidView(f), SubmonoidView(g)
    vmeet = SubmonoidView(f.intersection(g))
    vjoin = SubmonoidView(f.union(g))
    checks = []

    witness = None
    for n in range(1, bound + 1):
        if vmeet.contains(n) != (vf.contains(n) and vg.contains(n)):
            witness = (n,)
            break
    checks.append(LatticeCheck("meet membership = intersection of memberships", witness is None, witness))

    witness = None
    for n in range(1, bound + 1):
        generated = any(
            vf.contains(m) and vg.contains(n // m) for m, _ in divisor_pairs(n)
        )
        if vjoin.contains(n) != generated:
            witness = (n,)
            break
    checks.append(LatticeCheck("join membership = products of the two submonoids", witness is None, witness))

    witness = None
    for n in range(1, bound + 1):
        if vmeet.contains(n) and not vf.contains(n):
            witness = (n, "meet not inside left factor")
            break
        if vf.contains(n) and not vjoin.contains(n):
            witness = (n, "left factor not inside join")
            break
    if witness is None and f.issubset(g):
        for n in range(1, bound + 1):
            if vf.contains(n) and not vg.contains(n):
                witness = (n, "inclusion violated")
                break
    checks.append(LatticeCheck("monotonicity under inclusion", witness is None, witness))

    if f == g:
        checks.append(LatticeCheck("separation", True, None))
    else:
        p = f.separating_prime(g)
        ok = p is not None and vf.contains(p) != vg.contains(p)
        checks.append(LatticeCheck("separation", ok, None if ok else (p,)))

    return LatticeIsoReport(tuple(checks), all(c.holds for c in checks))
