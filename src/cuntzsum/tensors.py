"""Tensor squares and cubes of the algebra, at the level of finite sums.

A tensor element is a finite map from tuples of monomials (one per leg)
to nonzero scalars, on the same sparse core as `AlgebraElement`.  Leg
products in different components vanish, the adjoint acts legwise, and
equality, canonical form and restriction are the base algebra's own
bodies in `algebra`, which work at every width: each leg is pushed down
over its whole group, so the keys left lie in a product of per-leg
antichains, and the legs are then collapsed in turn.
"""

from __future__ import annotations

from .algebra import AlgebraElement, LinearCombination, _canonical_terms, monomial
from .scalars import ONE, Scalar, _SCALAR_TYPES


class TensorElement(LinearCombination):
    __slots__ = ()
    _width = 2

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
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


def canonical_tensor_form(t: LinearCombination) -> LinearCombination:
    """Deterministic compact representative of a tensor's equality class (`_canonical_terms`)."""
    return type(t)._raw(_canonical_terms(t))
