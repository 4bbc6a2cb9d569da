"""Tensor squares and cubes of the algebra, at the level of finite sums.

A tensor element is a finite map from tuples of monomials (one per leg)
to nonzero scalars, on the same sparse core as `AlgebraElement`.  Leg
products in different components vanish, the adjoint acts legwise, and
equality and canonical form use the same push-down and sibling collapse
as the base algebra, applied per leg: each leg is pushed down over its
whole group, so the keys left lie in a product of per-leg antichains.
"""

from __future__ import annotations

from .algebra import (
    AlgebraElement,
    LinearCombination,
    _collapse_siblings,
    _pushed_down_groups,
    monomial,
)
from .scalars import ONE, Scalar


class TensorElement(LinearCombination):
    __slots__ = ()
    _width = 2

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self._product(other)

    def swap(self) -> "TensorElement":
        """Exchange the two legs of every term."""
        return TensorElement._raw({(r, l): c for (l, r), c in self._terms.items()})


class TripleTensorElement(LinearCombination):
    __slots__ = ()
    _width = 3


def simple_tensor(left: AlgebraElement, right: AlgebraElement) -> TensorElement:
    data: dict[tuple, Scalar] = {}
    for ml, cl in left.items():
        for mr, cr in right.items():
            data[(ml, mr)] = cl * cr
    return TensorElement._raw(data)


def tensor_unit(n: int, m: int) -> TensorElement:
    return TensorElement._raw({(monomial(n), monomial(m)): ONE})


def _collapse_leg(leaves: dict, pos: int) -> bool:
    """Sibling collapse on leg ``pos`` with the other legs held fixed, in place.

    Returns True when anything collapsed.
    """
    buckets: dict[tuple, dict] = {}
    for legs, coeff in leaves.items():
        buckets.setdefault(legs[:pos] + legs[pos + 1:], {})[legs[pos]] = coeff
    changed = False
    for bucket in buckets.values():
        changed = _collapse_siblings(bucket) or changed
    if changed:
        leaves.clear()
        for others, bucket in buckets.items():
            head, tail = others[:pos], others[pos:]
            leaves.update((head + (mono,) + tail, c) for mono, c in bucket.items())
    return changed


def canonical_tensor_form(t: LinearCombination) -> LinearCombination:
    """Deterministic compact representative of a tensor's equality class.

    Per group of (component, degree) leg signatures: push every leg down
    over the group to an antichain, then alternate sibling collapses on
    the legs until nothing moves.  The result is the one the full
    expansion of every leg to the group's maximal nu-length collapses to.
    """
    out: dict[tuple, Scalar] = {}
    for leaves in _pushed_down_groups(t.items()):
        width = len(next(iter(leaves)))
        while any(_collapse_leg(leaves, pos) for pos in range(width)):
            pass
        out.update(leaves)
    return type(t)._raw(out)
