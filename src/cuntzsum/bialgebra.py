"""Comultiplication, counit, and the component-splitting embeddings.

The embedding of component n*m into the component pair (n, m) sends the
a-th generator to ``s_i (x) s_j`` where ``a - 1 = m*(i - 1) + (j - 1)``;
words split letterwise (`_split_monomial`, one ``divmod`` per letter),
so phi is a *-homomorphism by construction.  It sends distinct monomials
to distinct monomial pairs and keeps coefficients, so on a sum it is a
rewrite of keys (`_split_leg`, which takes an element's ``((mono,),
coeff)`` items and splits each ``mono``), for `phi`, both
comultiplications and both triple checks.  The comultiplication of a
component-n element sums the embeddings over all ordered divisor pairs
of n, and the counit keeps the component-1 part.  The
submonoid-restricted comultiplication takes elements supported in the
submonoid and keeps only the divisor pairs with both factors in it, and
the counit laws split the pairs (1, n) and (n, 1) only, with no
factoring; one loop over the divisor pairs that its caller lists,
`_coproduct`, serves all three.  Coassociativity is the
splitting axiom (`wcs`) at each ordered divisor triple of each component
in turn; the first split of either side depends on one divisor pair
only, so it is made once per pair (`_first_splits`) and shared by every
triple through it.  The two sides of a triple are built as term lists
in that memo's order and are equal term for term, the letter split
being associative; only lists that differ are compared as maps
(`_splittings_agree`).
`lift_left` and `lift_right` build the whole triple tensors, as a
reference.
"""

from __future__ import annotations

import functools

from .algebra import (
    AlgebraElement,
    CuntzMonomial,
    _accumulate,
    from_monomial,
    equals,
    monomial,
)
from .errors import InputError
from .scalars import Scalar, _int_text
from .tensors import TensorElement, TripleTensorElement
from . import mutations
from .monoids import MAX_DIVISOR_TRIPLES, divisor_pairs, divisor_triple_count


I_1 = CuntzMonomial(1, (), ())
_tuple_new = tuple.__new__


def _split_monomial(mono: CuntzMonomial, n: int, m: int) -> tuple[CuntzMonomial, CuntzMonomial]:
    """The halves of ``mono`` in components n and m, letter a going to i and j with a - 1 =
    m*(i - 1) + (j - 1), the single source of truth for phi; a component-1 half keeps no letters:
    `I_1`, and the other half is then ``mono`` itself.  Each word is read once, one ``divmod``
    per letter feeding both halves.  The halves are built by ``tuple.__new__``, which skips
    `CuntzMonomial`'s Python-level constructor: the letters are in range by construction."""
    if n == 1:
        return I_1, mono
    if m == 1:
        return mono, I_1
    _, mu, nu = mono
    left_mu, right_mu, left_nu, right_nu = [], [], [], []
    for a in mu:
        i, j = divmod(a - 1, m)
        left_mu.append(i + 1)
        right_mu.append(j + 1)
    for a in nu:
        i, j = divmod(a - 1, m)
        left_nu.append(i + 1)
        right_nu.append(j + 1)
    return (
        _tuple_new(CuntzMonomial, (n, tuple(left_mu), tuple(left_nu))),
        _tuple_new(CuntzMonomial, (m, tuple(right_mu), tuple(right_nu))),
    )


def _split_leg(items, n: int, m: int) -> dict:
    """The ``((mono,), coeff)`` items of an element with each ``mono`` split into components (n, m)."""
    return {_split_monomial(mono, n, m): c for (mono,), c in items}


def phi(n: int, m: int, x: AlgebraElement) -> TensorElement:
    """Embed an element of component n*m into the component pair (n, m)."""
    if n < 1 or m < 1:
        raise InputError("phi requires positive component indices")
    target = n * m
    for mono, _ in x.items():
        if mono.n != target:
            raise InputError(
                f"phi({n},{m}) expects support on component {_int_text(target, 'component')}, found {mono.n}"
            )
    return TensorElement._raw(_split_leg(x._leg_items(), n, m))


def _component_pairs(n: int) -> list[tuple[int, int]]:
    pairs = divisor_pairs(n)
    if mutations.is_active(mutations.DROP_DIVISOR_PAIR) and n == 4:
        pairs = [p for p in pairs if p != (2, 2)]
    return pairs


def _by_component(x: AlgebraElement) -> dict[int, list]:
    """The terms of ``x`` as ``((mono,), coeff)`` items, grouped by component."""
    parts: dict[int, list] = {}
    for key, c in x._leg_items():
        parts.setdefault(key[0].n, []).append((key, c))
    return parts


def _coproduct(x: AlgebraElement, pairs=_component_pairs) -> TensorElement:
    """Sum of the embeddings over the divisor pairs ``pairs(n)`` of each component n (all by default).

    Each pair (m, l) lands in its own component pair, so the embeddings
    never share a term and their union is the sum.
    """
    parts = _by_component(x)
    data: dict[tuple, Scalar] = {}
    for n in sorted(parts):
        for m, l in pairs(n):
            data.update(_split_leg(parts[n], m, l))
    return TensorElement._raw(data)


def delta(x: AlgebraElement) -> TensorElement:
    """Comultiplication: sum of embeddings over ordered divisor pairs."""
    return _coproduct(x)


def delta_restricted(submonoid, x: AlgebraElement) -> TensorElement:
    """Comultiplication over divisor pairs with both factors in the submonoid."""
    for n in sorted(x.support_components()):
        if not submonoid.contains(n):
            raise InputError(f"component {n} lies outside the submonoid")
    keep = submonoid.contains
    return _coproduct(x, lambda n: [(m, l) for m, l in _component_pairs(n) if keep(m) and keep(l)])


# Spec-facing alias.
delta_H = delta_restricted


def counit(x: AlgebraElement) -> Scalar:
    """The component-1 coefficient; zero on all higher components."""
    return x.coefficient(monomial(1))


def _lift(f, u: TensorElement, pos: int) -> TripleTensorElement:
    """Apply an element-to-tensor map to leg ``pos`` and flatten to triples."""
    data: dict[tuple, Scalar] = {}
    for legs, coeff in u.items():
        head, tail = legs[:pos], legs[pos + 1:]
        _accumulate(
            data,
            ((head + pair + tail, coeff * c2) for pair, c2 in f(from_monomial(legs[pos])).items()),
        )
    return TripleTensorElement._raw(data)


def lift_left(f, u: TensorElement) -> TripleTensorElement:
    """Apply an element-to-tensor map to the left leg and flatten to triples."""
    return _lift(f, u, 0)


def lift_right(f, u: TensorElement) -> TripleTensorElement:
    return _lift(f, u, 1)


def _contract(u: TensorElement, pos: int) -> AlgebraElement:
    """Replace leg ``pos`` by its counit value (scalars absorb into coefficients)."""
    keep = 1 - pos
    return AlgebraElement._raw(
        _accumulate({}, ((legs[keep], c) for legs, c in u.items() if legs[pos].n == 1))
    )


def counit_contract_left(u: TensorElement) -> AlgebraElement:
    return _contract(u, 0)


def counit_contract_right(u: TensorElement) -> AlgebraElement:
    return _contract(u, 1)


def _first_splits(items):
    """``(p, q) -> phi(p,q)`` on ``items`` as a key map, each pair split once and kept as long as the lookup."""
    return functools.cache(functools.partial(_split_leg, items))


def _splittings_agree(first, a: int, b: int, c: int, left=True, right=True) -> bool:
    """``(phi(a,b) (x) id) phi(ab,c)`` equals ``(id (x) phi(b,c)) phi(a,bc)`` on the
    items whose first splits ``first(p, q)`` returns (see `_first_splits`).

    A side that is off counts as zero.  Each side is built as a term
    list in the order of the items; two sides that are on are equal
    term for term, since the mixed-radix letter split is associative.
    Lists that differ are compared as maps, and a side against zero is
    pushed down.
    """
    lhs = [(_split_monomial(l, a, b) + (r,), k) for (l, r), k in first(a * b, c).items()] if left else []
    rhs = [((l,) + _split_monomial(r, b, c), k) for (l, r), k in first(a, b * c).items()] if right else []
    if lhs == rhs:
        return True
    lhs, rhs = dict(lhs), dict(rhs)
    return lhs == rhs or TripleTensorElement._raw(lhs).equals(TripleTensorElement._raw(rhs))


def check_coassociativity(x: AlgebraElement) -> bool:
    """Both iterated comultiplications agree as triple tensors.

    Each side is a sum over the ordered divisor triples (a, b, c) of each
    component that it reaches through `_component_pairs`, and terms of
    different triples never cancel, so the check is the splitting axiom
    at each triple in turn, against zero where one side misses it.  The
    left side's first split, phi(ab,c), and the right side's, phi(a,bc),
    are read from one memo per component, so a component's terms are
    split once per divisor pair and then once per triple on each side;
    the memo holds at most d(n) splits and is dropped on return.  An
    element whose terms have more than `MAX_DIVISOR_TRIPLES` triples in
    all is an InputError, raised before any triple is split.
    """
    parts = _by_component(x)
    total = sum(len(parts[n]) * divisor_triple_count(n) for n in sorted(parts))
    if total > MAX_DIVISOR_TRIPLES:
        raise InputError(
            f"the terms have {total} ordered divisor triples in all; "
            f"coassoc accepts at most {MAX_DIVISOR_TRIPLES}"
        )
    pairs = functools.cache(_component_pairs)
    for n in sorted(parts):
        left = {(a, b, c) for ab, c in pairs(n) for a, b in pairs(ab)}
        right = {(a, b, c) for a, bc in pairs(n) for b, c in pairs(bc)}
        first = _first_splits(parts[n])
        for t in sorted(left | right):
            if not _splittings_agree(first, *t, t in left, t in right):
                return False
    return True


def check_counit_laws(x: AlgebraElement) -> bool:
    """``(eps (x) id) delta = id = (id (x) eps) delta`` on ``x``.

    A contraction keeps only the terms with a component-1 leg, which come
    from the divisor pairs (1, n) and (n, 1), so only those pairs are split,
    and no component is factored.
    """
    dx = _coproduct(x, lambda n: ((1, n), (n, 1)))
    return equals(counit_contract_left(dx), x) and equals(counit_contract_right(dx), x)


def check_hom_property(x: AlgebraElement, y: AlgebraElement, submonoid=None) -> bool:
    """Comultiplication is a *-homomorphism and the counit is multiplicative."""
    f = delta if submonoid is None else (lambda z: delta_restricted(submonoid, z))
    xy, fx = x * y, f(x)
    if not f(xy).equals(fx * f(y)):
        return False
    if not f(x.adjoint()).equals(fx.adjoint()):
        return False
    return counit(xy) == counit(x) * counit(y)


def check_wcs_axiom(a: int, b: int, c: int, x: AlgebraElement) -> bool:
    """The two ways of splitting component a*b*c into three legs agree."""
    if min(a, b, c) < 1:
        raise InputError("phi requires positive component indices")
    target = a * b * c
    for mono, _ in x.items():
        if mono.n != target:
            raise InputError(
                f"wcs check for ({a},{b},{c}) expects support on component {_int_text(target, 'component')}"
            )
    return _splittings_agree(_first_splits(list(x._leg_items())), a, b, c)
