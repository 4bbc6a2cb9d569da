"""Exact elements of the direct sum of all Cuntz algebras.

Component n is the algebra on isometries s_1,...,s_n with the relations
``s_i^* s_j = delta_ij I`` and ``sum_i s_i s_i^* = I``; component 1 is the
scalars, with s_1 identified with the unit.  An element is a finite linear
combination of monomials ``s_mu s_nu^*`` with Gaussian-rational
coefficients, supported on finitely many components, and monomials in
different components multiply to zero.

Equality of elements is decidable.  Within one component and one gauge
degree ``|mu| - |nu|``, the monomials form a forest under refinement,
``s_mu s_nu^* = sum_i s_{mu i} s_{nu i}^*``, and monomials on an antichain
of that forest are linearly independent (the normal form of the Cuntz
relations).  Equality and canonical form push each term down only along
the paths that lead to deeper terms, at about ``n`` terms per level
crossed, rather than expanding every term to the deepest nu-length.
"""

from __future__ import annotations

from itertools import product, repeat
from typing import Iterable, Iterator, NamedTuple

from . import mutations
from .errors import InputError
from .scalars import ONE, ZERO, Scalar, _SCALAR_TYPES


class CuntzMonomial(NamedTuple):
    """``s_mu s_nu^*`` in component ``n``; ``(n, (), ())`` is the unit I_n."""

    n: int
    mu: tuple[int, ...]
    nu: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.mu) - len(self.nu)

    def is_unit(self) -> bool:
        return not self.mu and not self.nu

    def adjoint(self) -> "CuntzMonomial":
        return CuntzMonomial(self.n, self.nu, self.mu)

    def sort_key(self):
        # Groups by component, then degree class, then expansion level.
        return (self.n, self.degree, len(self.nu), self.nu, self.mu)


def _check_letters(n: int, letters: Iterable[int]) -> None:
    if n < 1:
        raise InputError(f"component index must be >= 1, got {n}")
    for letter in letters:
        if not 1 <= letter <= n:
            raise InputError(f"letter {letter} out of range 1..{n} in component {n}")


def monomial(n: int, mu: Iterable[int] = (), nu: Iterable[int] = ()) -> CuntzMonomial:
    """Validating constructor; collapses every component-1 word to I_1."""
    mu = tuple(mu)
    nu = tuple(nu)
    _check_letters(n, mu + nu)
    if n == 1:
        return CuntzMonomial(1, (), ())
    return CuntzMonomial(n, mu, nu)


class RawWord(NamedTuple):
    """Unreduced product of generators/adjoints; empty letters means the unit."""

    n: int
    letters: tuple[tuple[int, bool], ...]  # (index, starred)


def _mono_mul(a: CuntzMonomial, b: CuntzMonomial) -> CuntzMonomial | None:
    """(s_mu s_nu^*)(s_alpha s_beta^*) or None when the product is zero."""
    if a.n != b.n:
        return None
    nu, alpha = a.nu, b.mu
    if len(alpha) >= len(nu):
        if alpha[: len(nu)] != nu:
            return None
        return CuntzMonomial(a.n, a.mu + alpha[len(nu):], b.nu)
    if nu[: len(alpha)] != alpha:
        return None
    return CuntzMonomial(a.n, a.mu, b.nu + nu[len(alpha):])


def _accumulate(data: dict, pairs) -> dict:
    """Add each ``(key, coeff)`` into ``data``, dropping zero totals; return ``data``."""
    for key, coeff in pairs:
        acc = data.get(key)
        if acc is not None:
            coeff = acc + coeff
        if coeff.is_zero():
            data.pop(key, None)
        else:
            data[key] = coeff
    return data


class LinearCombination:
    """Finitely supported map from monomial keys to nonzero scalars.

    The one sparse core behind algebra elements and their tensor powers.
    By default a key is a tuple of ``_width`` monomials, one per leg;
    `AlgebraElement` is the width-1 case keyed by the bare monomial and
    overrides the key hooks `_check_key`, `_legs`, `_adjoint_key` and
    `_key_mul`.  Values are immutable; operators build new values of the
    same class.  ``==`` compares the stored term maps; use :meth:`equals`
    for equality in the algebra (e.g. ``I_2`` versus
    ``s_1 s_1^* + s_2 s_2^*``).
    """

    __slots__ = ("_terms",)
    _width: int

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        check = self._check_key
        self._terms = _accumulate({}, ((check(k), Scalar.coerce(c)) for k, c in items))

    @classmethod
    def _raw(cls, data: dict):
        el = object.__new__(cls)
        el._terms = data
        return el

    @classmethod
    def _check_key(cls, key):
        """The validated key, each leg rebuilt by `monomial`; `_raw` skips this."""
        legs = tuple(key)
        if len(legs) != cls._width or not all(isinstance(m, CuntzMonomial) for m in legs):
            raise TypeError(f"expected {cls._width} CuntzMonomial legs, got {legs!r}")
        return tuple(monomial(*m) for m in legs)

    @staticmethod
    def _legs(key) -> tuple:
        return key

    @staticmethod
    def _adjoint_key(key):
        return tuple(m.adjoint() for m in key)

    @staticmethod
    def _key_mul(a, b):
        legs = []
        for x, y in zip(a, b):
            leg = _mono_mul(x, y)
            if leg is None:
                return None
            legs.append(leg)
        return tuple(legs)

    def items(self):
        return self._terms.items()

    def terms(self) -> list:
        legs = self._legs
        return sorted(
            self._terms.items(), key=lambda kv: tuple(m.sort_key() for m in legs(kv[0]))
        )

    def coefficient(self, key) -> Scalar:
        return self._terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)._raw(_accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self):
        return type(self)._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def _product(self, other):
        key_mul, right = self._key_mul, other._terms.items()
        products = (
            (key, ca * cb)
            for ka, ca in self._terms.items()
            for kb, cb in right
            if (key := key_mul(ka, kb)) is not None
        )
        return type(self)._raw(_accumulate({}, products))

    def scale(self, coeff):
        coeff = Scalar.coerce(coeff)
        if coeff.is_zero():
            return type(self)._raw({})
        return type(self)._raw({k: c * coeff for k, c in self._terms.items()})

    def adjoint(self):
        adjoint_key = self._adjoint_key
        return type(self)._raw(
            {adjoint_key(k): c.conjugate() for k, c in self._terms.items()}
        )

    def _leg_items(self):
        legs = self._legs
        return ((legs(k), c) for k, c in self._terms.items())

    def restrict(self, keep):
        """The terms whose every leg lies in a component ``n`` with ``keep(n)``."""
        legs = self._legs
        return type(self)._raw(
            {k: c for k, c in self._terms.items() if all(keep(m.n) for m in legs(k))}
        )

    def equals(self, other) -> bool:
        """Exact equality, legwise as in `equals`."""
        return _vanishes(self - other)

    def __repr__(self):
        if not self._terms:
            return f"{type(self).__name__}(0)"
        return f"{type(self).__name__}({len(self._terms)} terms)"


class AlgebraElement(LinearCombination):
    """An element of the algebra: the width-1 combination, keyed by monomials."""

    __slots__ = ()

    @staticmethod
    def _check_key(mono):
        if not isinstance(mono, CuntzMonomial):
            raise TypeError(f"expected CuntzMonomial key, got {mono!r}")
        return monomial(*mono)

    @staticmethod
    def _legs(mono) -> tuple:
        return (mono,)

    _adjoint_key = staticmethod(CuntzMonomial.adjoint)
    _key_mul = staticmethod(_mono_mul)

    def support_components(self) -> set[int]:
        return {m.n for m in self._terms}

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._product(other)

    def equals(self, other: "AlgebraElement") -> bool:
        return equals(self, other)

    def __repr__(self):
        if not self._terms:
            return "AlgebraElement(0)"
        bits = ", ".join(f"{m.n}:{m.mu}|{m.nu}:{c.literal()}" for m, c in self.terms())
        return f"AlgebraElement({bits})"


ZERO_ELEMENT = AlgebraElement._raw({})


def unit(n: int) -> AlgebraElement:
    return AlgebraElement._raw({monomial(n): ONE})


def generator(n: int, i: int) -> AlgebraElement:
    return AlgebraElement._raw({monomial(n, (i,)): ONE})


def from_monomial(mono: CuntzMonomial, coeff=1) -> AlgebraElement:
    return AlgebraElement({mono: coeff})


def reduce_word(word: RawWord) -> AlgebraElement:
    """Rewrite a raw word to zero or a single monomial.

    Repeatedly cancels an adjacent ``s_i^* s_j`` pair: to the unit when
    i == j, to zero otherwise.  Each step removes two letters, so the
    loop terminates with a word of shape (unstarred)*(starred)*.
    """
    letters = _validated_letters(word)
    reduced = _reduce_letters(letters)
    if reduced is None:
        return ZERO_ELEMENT
    return from_monomial(_letters_to_monomial(word.n, reduced))


def reduction_trace(word: RawWord) -> list[int]:
    """Word lengths after each rewrite step (first entry: input length)."""
    letters = _validated_letters(word)
    lengths = [len(letters)]
    _reduce_letters(letters, lengths)
    return lengths


def _validated_letters(word: RawWord):
    _check_letters(word.n, (i for i, _ in word.letters))
    return list(word.letters)


def _reduce_letters(letters, lengths=None) -> list | None:
    """Cancel leftmost ``s_i^* s_j`` pairs in place; None once i != j makes the word zero.

    Appends the word length after each cancellation to ``lengths``.
    """
    pos = 0
    while pos < len(letters) - 1:
        if letters[pos][1] and not letters[pos + 1][1]:
            if letters[pos][0] != letters[pos + 1][0] and not mutations.is_active(
                mutations.SKIP_DELTA_CHECK
            ):
                return None
            del letters[pos : pos + 2]
            if lengths is not None:
                lengths.append(len(letters))
            # Only the pair straddling the cut can have become a redex.
            pos = max(pos - 1, 0)
        else:
            pos += 1
    return letters


def _letters_to_monomial(n: int, letters) -> CuntzMonomial:
    split = len(letters)
    for k, (_, starred) in enumerate(letters):
        if starred:
            split = k
            break
    mu = tuple(i for i, _ in letters[:split])
    nu = tuple(i for i, _ in reversed(letters[split:]))
    return monomial(n, mu, nu)


def _refinements(mono: CuntzMonomial, level: int) -> Iterator[CuntzMonomial]:
    """All s_{mu gamma} s_{nu gamma}^* with ``len(nu) + len(gamma) == level``."""
    gap = level - len(mono.nu)
    if gap == 0 or mono.n == 1:
        yield mono
        return
    for gamma in product(range(1, mono.n + 1), repeat=gap):
        yield CuntzMonomial(mono.n, mono.mu + gamma, mono.nu + gamma)


def expand_to_level(x: AlgebraElement, n: int, k: int) -> AlgebraElement:
    """Replace every component-n monomial by its level-k refinements.

    A reference expansion, costing ``n^gap`` terms per monomial: `equals`
    and `canonical_form` never call it.  The result equals ``x`` in the
    algebra.  Component 1 is returned unchanged; a monomial already deeper
    than ``k`` is an input error.
    """
    if n == 1:
        return x
    data: dict[CuntzMonomial, Scalar] = {}
    for mono, coeff in x.items():
        if mono.n != n:
            data[mono] = coeff
            continue
        if len(mono.nu) > k:
            raise InputError(
                f"cannot expand component {n} to level {k}: monomial at level {len(mono.nu)}"
            )
        _accumulate(data, zip(_refinements(mono, k), repeat(coeff)))
    return AlgebraElement._raw(data)


# Largest number of keys one equality or canonical-form call may make by
# pushing terms down, over all its groups and legs: output size, n keys per
# level below a projection in component n.  ``eq "I(100000)" "s(100000,1) *
# s(100000,1)^*"`` makes this many in about 0.2 s; 10^6 took 4 s and 329 MB.
MAX_PUSHED_KEYS = 100_000


def _push_down(group: dict, pos: int, budget: int) -> int:
    """Refine leg ``pos`` of one group until its values form an antichain, in place.

    ``group`` maps monomial tuples of one (component, degree) signature to
    nonzero coefficients.  With ``s_mu s_nu^*`` the parent of
    ``s_{mu i} s_{nu i}^*``, every strict ancestor of every value of leg
    ``pos`` in the group is marked.  Then, shallowest first, each key whose
    leg is marked gives its coefficient to the ``n`` keys with that leg
    refined one level, until no key's leg is marked.  The marks come from
    the whole group, not from the keys that share the other legs: with
    ``p_i = s_i s_i^*`` in component 2, ``I (x) I - sum_ij p_i (x) p_j``
    is zero, yet no two of its keys with one leg in common are comparable.
    Each refinement spends ``n`` of ``budget``; returns what is left, and
    raises InputError once it would go below zero.
    """
    marked: set[CuntzMonomial] = set()
    for legs in group:
        n, mu, nu = legs[pos]
        while mu and nu and mu[-1] == nu[-1]:
            mu, nu = mu[:-1], nu[:-1]
            parent = CuntzMonomial(n, mu, nu)
            if parent in marked:
                break  # its ancestors are marked already
            marked.add(parent)
    by_level: dict[int, list[tuple]] = {}
    for legs in group:
        if legs[pos] in marked:
            by_level.setdefault(len(legs[pos].nu), []).append(legs)
    while by_level:
        level = min(by_level)
        for legs in by_level.pop(level):
            coeff = group.pop(legs, None)
            if coeff is None:
                continue  # cancelled, or queued twice
            n, mu, nu = legs[pos]
            budget -= n
            if budget < 0:
                raise InputError(f"pushing terms down would make more than {MAX_PUSHED_KEYS} keys")
            head, tail = legs[:pos], legs[pos + 1:]
            children = [
                head + (CuntzMonomial(n, mu + (i,), nu + (i,)),) + tail
                for i in range(1, n + 1)
            ]
            _accumulate(group, zip(children, repeat(coeff)))
            for child in children:
                if child[pos] in marked:
                    by_level.setdefault(level + 1, []).append(child)
    return budget


def _pushed_down_groups(terms) -> Iterator[dict]:
    """The nonzero pushed-down groups of a sum of monomial tuples.

    ``terms`` yields ``(legs, coeff)`` with distinct ``legs``, each a tuple
    of monomials, and nonzero ``coeff``.  Terms are grouped by per-leg
    component and gauge degree, and every leg outside component 1 is
    pushed down over its group (`_push_down`), making at most
    `MAX_PUSHED_KEYS` keys in all.  The keys left in a group lie in a
    product of per-leg antichains of the refinement trees, where monomials
    are linearly independent, so a group is zero exactly when it is empty.
    Yields each nonzero group; a lone term is never refined.
    """
    groups: dict[tuple, dict] = {}
    for legs, coeff in terms:
        signature = tuple((m.n, m.degree) for m in legs)
        groups.setdefault(signature, {})[legs] = coeff
    budget = MAX_PUSHED_KEYS
    for signature, group in groups.items():
        if len(group) > 1:
            for pos, (n, _) in enumerate(signature):
                if n != 1:
                    budget = _push_down(group, pos, budget)
        if group:
            yield group


def _vanishes(x: LinearCombination) -> bool:
    return x.is_zero() or next(_pushed_down_groups(x._leg_items()), None) is None


def equals(x: AlgebraElement, y: AlgebraElement) -> bool:
    """Exact equality in the algebra: ``x - y`` pushes down to no terms."""
    return _vanishes(x - y)


def _collapse_leg(group: dict, pos: int) -> None:
    """Deepest-first sibling collapse on leg ``pos`` of one group, in place.

    The ``n`` keys that agree off leg ``pos``, carry ``s_{mu i} s_{nu i}^*``
    (i = 1..n) on it and share a coefficient become their parent key, with
    ``s_mu s_nu^*`` there, which is queued to complete a family a level up.
    """
    by_level: dict[int, list[tuple]] = {}
    for legs in group:
        by_level.setdefault(len(legs[pos].nu), []).append(legs)
    for level in range(max(by_level), 0, -1):
        families: dict[tuple, list[tuple]] = {}
        for legs in by_level.get(level, ()):
            n, mu, nu = legs[pos]
            if mu and mu[-1] == nu[-1]:
                parent = legs[:pos] + (CuntzMonomial(n, mu[:-1], nu[:-1]),) + legs[pos + 1:]
                families.setdefault(parent, []).append(legs)
        for parent, children in families.items():
            if len(children) != parent[pos].n:
                continue
            # Keys pushed down from one term share one Scalar object, so
            # the identity test spares most of the (slow) value comparisons.
            shared = group[children[0]]
            if any(group[k] is not shared and group[k] != shared for k in children):
                continue
            for k in children:
                del group[k]
            group[parent] = shared
            by_level.setdefault(level - 1, []).append(parent)


def _canonical_terms(x: LinearCombination) -> dict:
    """The canonical terms of ``x`` at any width, keyed by leg tuples.

    Per group of (component, degree) leg signatures: push every leg down
    over the group to an antichain (`_push_down`), then collapse sibling
    families once on each leg, in leg order (`_collapse_leg`).  This is the
    form the full expansion of every leg to the group's maximal nu-length
    collapses to, since that expansion refines each antichain node to
    leaves that all carry its coefficient.  The pass is deterministic, so
    the result is a canonical form, and it equals ``x`` in the algebra.

    Leg order matters (``p_1 (x) p_1 + p_2 (x) p_1 + p_1 (x) p_2 + 2 p_2
    (x) p_2`` collapses differently leg 1 first), but one pass per leg is
    enough.  A pass on leg ``p`` only merges keys.  A family on an earlier
    leg ``q`` that is new after it has only keys newly collapsed on ``p``:
    an old key beside one would break leg ``p``'s antichain.  A new key
    ``(.., a_j, .., Y, ..)`` collapsed a complete cover of ``Y``, which in
    the antichain is all leg-``p`` values below ``Y``: the same for every
    ``j``, with one coefficient.  For such a ``y`` the keys ``(.., a_j, ..,
    y, ..)`` were a complete family on leg ``q`` before, against its pass.
    """
    out: dict[tuple, Scalar] = {}
    for group in _pushed_down_groups(x._leg_items()):
        for pos in range(len(next(iter(group)))):
            _collapse_leg(group, pos)
        out.update(group)
    return out


def canonical_form(x: AlgebraElement) -> AlgebraElement:
    """Unique compact representative of the equality class of ``x`` (`_canonical_terms`)."""
    return AlgebraElement._raw({legs[0]: c for legs, c in _canonical_terms(x).items()})


def coefficient_extract(x: AlgebraElement, n: int, mu, nu) -> Scalar:
    """Coefficient of ``s_mu s_nu^*`` read off by word reduction.

    Computes ``s_mu^* . x . s_nu`` term by term through `reduce_word` and
    returns the accumulated unit coefficient.  Independent of the level
    expansion used by `equals`, so the two can cross-check each other.
    """
    target = monomial(n, mu, nu)  # validates the letters
    mu, nu = target.mu, target.nu
    prefix = tuple((i, True) for i in reversed(mu))
    total = Scalar(0)
    for mono, coeff in x.items():
        if mono.n != n:
            continue
        letters = (
            prefix
            + tuple((i, False) for i in mono.mu)
            + tuple((i, True) for i in reversed(mono.nu))
            + tuple((i, False) for i in nu)
        )
        reduced = reduce_word(RawWord(n, letters))
        for rm, rc in reduced.items():
            if rm.is_unit():
                total = total + coeff * rc
    return total
