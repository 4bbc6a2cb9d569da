"""Multiplicative monoid combinatorics: primes, generated submonoids,
windowed subset predicates, complement duality, and the prime-set lattice.

Membership in a submonoid generated by a set of primes is decided
globally through prime factorization; its window trace is sieved
directly from the primes.  Claims about arbitrary subsets are verified
exhaustively inside a finite window and reported as such.  Over (N, *)
each window search reads a byte mask of the subset with C-level slices;
the free monoid on {a, b} has its own four searches, ordered scans over
words, without commutativity.

Each n below 2^16 is factored from a 64 KiB smallest-prime-factor table,
built once and never written after, so threads share it; larger n are
trial-divided up to MAX_FACTOR.  Each window's mask is built per call.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from itertools import compress, filterfalse
from math import isqrt
from typing import Iterable, NamedTuple

from . import mutations
from .errors import InputError


def is_prime(n: int) -> bool:
    n = _integer(n, "is_prime")
    if n == 1:
        return mutations.is_active(mutations.ONE_IS_PRIME)
    if 1 < n < _TABLE_SIZE:
        return not _factor_table()[n]
    return n > 1 and _trial_factors(_check_factorable(n, "prime_factorize")) == (n,)


def primes_up_to(bound: int) -> list[int]:
    """The primes up to ``bound``, ascending, from a sieve over a byte mask; ``bound`` at most MAX_BOUND."""
    if bound > MAX_BOUND:
        raise InputError(f"primes_up_to requires bound <= {MAX_BOUND}, got {bound}")
    if bound < 1:
        return []
    mask = bytearray(b"\0\0" + b"\1" * (bound - 1))
    for p in range(2, isqrt(bound) + 1):
        if mask[p]:
            mask[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    mask[1] = mutations.is_active(mutations.ONE_IS_PRIME)
    return list(compress(range(bound + 1), mask))


def next_prime_after(n: int) -> int:
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


# Largest n that `prime_factorize` and `divisor_pairs` accept.  Trial
# division runs up to sqrt(n): `cuntzsum delta "I(999999999989)"`, a prime
# just below this limit, takes 0.24 s in a fresh process (0.19 s of it
# start-up, 2-CPU Xeon); a 19-digit prime would take 10^9 steps.
MAX_FACTOR = 10**12


# Largest window bound that `window_of` and `subset_window` accept.  Every
# (N, *) window is a byte mask of bound + 1 bytes, read with slices whose
# lengths sum to at most about bound * ln(bound): at this bound `lattice`
# takes about 0.004 s in process with two finite prime sets, 0.005 s with
# two cofinite ones and 0.09-0.14 s with a list of every prime up to it
# (half of it checking the list), and `classify` of a `list:` spec of
# 20,000 members about 0.03 s (2-CPU Xeon).
MAX_BOUND = 10**5


# Largest number of ordered divisor triples (a, b, c), abc = n, summed
# over the terms of an element (n the term's component), that the
# coassociativity check accepts.  It splits each term once per divisor
# pair and then once per triple on each side: as a `coassoc` command in
# a fresh process, with a start-up of about 0.10 s, I(720720), with
# 7,290, takes about 0.14 s and I(12612600), with 19,440, about 0.22 s
# (median of 9, 2-CPU Xeon); I(963761198400), with 1,837,080, would take
# about 12 s at the same rate per triple.
MAX_DIVISOR_TRIPLES = 20_000


# Largest word length of a free-monoid window that `complement_duality_check`
# accepts.  A window of length L holds 2^(L+1) - 1 words, and its product
# searches visit about L * 2^(L+1) pairs: the duality report of all
# nonempty words takes about 1 s at length 14 and 5.6 s at 16, in
# process (2-CPU Xeon).
MAX_WORD_LENGTH = 14


def _check_bound(bound: int, most: int = MAX_BOUND) -> None:
    if not 1 <= bound <= most:
        raise InputError(f"window bound must be in 1..{most}, got {bound}")


def _integer(value, caller: str) -> int:
    """``value`` through `operator.index`, as a window's members: a float or a string is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{caller} requires an integer, got {value!r}") from None


def _check_factorable(n, caller: str) -> int:
    n = _integer(n, caller)
    if n < 1:
        raise InputError(f"{caller} requires n >= 1, got {n}")
    if n > MAX_FACTOR:
        raise InputError(f"{caller} requires n <= {MAX_FACTOR}, got {n}")
    return n


# Size of the smallest-prime-factor table: a composite below 2^16 has one of at most 255, a byte.
_TABLE_SIZE = 1 << 16
_smallest_factors: bytearray | None = None


def _factor_table() -> bytearray:
    """Byte n is the smallest prime factor of n < 2^16, or 0 for a prime and for 0 and 1; built on first use
    into a local and published with one assignment, so a thread sees no table or a whole one."""
    global _smallest_factors
    if _smallest_factors is None:
        table = bytearray(_TABLE_SIZE)
        # from the largest p down, so each composite keeps the least p that divides it
        for p in range(255, 1, -1):
            table[p * p::p] = bytes((p,)) * len(range(p * p, _TABLE_SIZE, p))
        _smallest_factors = table
    return _smallest_factors


def _factors(n: int) -> tuple[int, ...]:
    """Prime factors of n, ascending: walked from `_factor_table` below 2^16, else `_trial_factors`."""
    if n >= _TABLE_SIZE:
        return _trial_factors(n)
    table, factors = _factor_table(), []
    while p := table[n]:
        factors.append(p)
        n //= p
    return tuple(factors + [n] if n > 1 else factors)


@functools.lru_cache(maxsize=64)
def _trial_factors(n: int) -> tuple[int, ...]:
    """Prime factors of n >= 2^16 by trial division; memoised so `coassoc` factors a component once."""
    twos = (n & -n).bit_length() - 1  # the exponent of 2 in n
    factors, n, d = [2] * twos, n >> twos, 3
    while True:
        for d in range(d, isqrt(n) + 1, 2):
            if n % d == 0:
                break
        else:
            return tuple(factors + [n] if n > 1 else factors)
        factors.append(d)
        n //= d


def prime_factorize(n: int) -> list[int]:
    """Prime factors with multiplicity, ascending; empty for n = 1."""
    return list(_factors(_check_factorable(n, "prime_factorize")))


def divisor_pairs(n: int) -> list[tuple[int, int]]:
    """Ordered pairs (m, l) with m*l == n, in increasing m; built from the factors, not kept."""
    n = _check_factorable(n, "divisor_pairs")
    divisors, last, new = [1], 1, []
    for p in _factors(n):
        # a repeated p multiplies only the divisors the previous p made
        new = [d * p for d in (new if p == last else divisors)]
        divisors += new
        last = p
    return [(m, n // m) for m in sorted(divisors)]


def divisor_triple_count(n: int) -> int:
    """Number of ordered triples (a, b, c) with abc == n: the product of C(e+2, 2) over n's prime exponents e."""
    n = _check_factorable(n, "divisor_triple_count")
    count = 1
    for e in Counter(_factors(n)).values():
        count *= (e + 2) * (e + 1) // 2
    return count


@dataclass(frozen=True, slots=True)
class PrimeSet:
    """A finite or cofinite set of prime numbers.

    ``primes`` may be any iterable of ints; it is stored as a frozenset.
    """

    primes: frozenset[int] = frozenset()
    cofinite: bool = False

    def __post_init__(self):
        primes = frozenset(_integer(p, "a prime set") for p in self.primes)
        for p in primes:
            if not is_prime(p):
                raise InputError(f"{p} is not prime")
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "cofinite", bool(self.cofinite))

    @classmethod
    def _unchecked(cls, primes: frozenset[int], cofinite: bool) -> "PrimeSet":
        """The prime set of ``primes``, already known to be prime, without `__post_init__`'s checks."""
        result = object.__new__(cls)
        object.__setattr__(result, "primes", primes)
        object.__setattr__(result, "cofinite", cofinite)
        return result

    @classmethod
    def finite(cls, primes: Iterable[int]) -> "PrimeSet":
        return cls(primes)

    @classmethod
    def excluding(cls, primes: Iterable[int]) -> "PrimeSet":
        return cls(primes, cofinite=True)

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls((), cofinite=True)

    def contains(self, p: int) -> bool:
        return (p in self.primes) != self.cofinite

    def _combine(self, other: "PrimeSet", op) -> "PrimeSet":
        """The prime set containing p exactly when ``op(self.contains(p), other.contains(p))``."""
        cofinite = op(self.cofinite, other.cofinite)
        # Beyond every listed prime both sides are in their own mode.
        listed = frozenset(
            p for p in self.primes | other.primes
            if op(self.contains(p), other.contains(p)) != cofinite
        )
        return PrimeSet._unchecked(listed, cofinite)

    def union(self, other: "PrimeSet") -> "PrimeSet":
        return self._combine(other, operator.or_)

    def intersection(self, other: "PrimeSet") -> "PrimeSet":
        return self._combine(other, operator.and_)

    def issubset(self, other: "PrimeSet") -> bool:
        return self.intersection(other) == self

    def separating_prime(self, other: "PrimeSet") -> int | None:
        """Smallest prime in the symmetric difference, None when equal."""
        if self == other:
            return None
        listed = sorted(self.primes | other.primes)
        for p in listed:
            if self.contains(p) != other.contains(p):
                return p
        # Modes differ beyond every listed prime.
        return next_prime_after(max(listed, default=1))

    def describe(self) -> str:
        inside = ",".join(str(p) for p in sorted(self.primes)) or "-"
        return f"coprimes:{inside}" if self.cofinite else f"primes:{inside}"

    def __repr__(self):
        return f"PrimeSet({self.describe()})"


@dataclass(frozen=True, slots=True)
class SubmonoidView:
    """Submonoid generated by a prime set; membership decided globally."""

    generator_set: PrimeSet

    def contains(self, n: int) -> bool:
        return n >= 1 and all(
            map(self.generator_set.contains, _factors(_check_factorable(n, "prime_factorize")))
        )

    def __repr__(self):
        return f"SubmonoidView({self.generator_set.describe()})"


@dataclass(frozen=True, slots=True)
class PowerSubmonoid:
    """The submonoid {1, k, k^2, ...}; not factorial for composite k."""

    base: int

    def __post_init__(self):
        object.__setattr__(self, "base", _integer(self.base, "a power submonoid"))
        if self.base < 2:
            raise InputError(f"power submonoid needs base >= 2, got {self.base}")

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        while n % self.base == 0:
            n //= self.base
        return n == 1

    def __repr__(self):
        return f"PowerSubmonoid({self.base})"


NATURALS = SubmonoidView(PrimeSet.all_primes())


def submonoid_member(view: SubmonoidView, n: int) -> bool:
    n = _integer(n, "membership")
    if n < 1:
        raise InputError(f"membership requires n >= 1, got {n}")
    return view.contains(n)


class SubsetWindow(NamedTuple):
    """An explicit subset of {1..bound}."""

    bound: int
    members: frozenset[int]


def _window_mask(bound: int, members: Iterable[int]) -> bytearray:
    """The byte mask of an (N, *) window, byte n 1 for a member: the one check of a window, whose members are what `operator.index` accepts, in 1..bound."""
    _check_bound(bound)
    members = members if isinstance(members, Collection) else list(members)
    mask = bytearray(bound + 1)
    try:
        # ints inside the window, the usual members, pass on C-level min and max
        if not members or 1 <= min(members) and max(members) <= bound:
            for n in members:
                mask[n] = 1
            return mask
    except TypeError:  # a member that is no int
        pass
    strays = sorted((m for m in members if not hasattr(type(m), "__index__")), key=repr)
    if strays:
        raise InputError(f"members {strays} are not integers")
    members = list(map(operator.index, members))
    outside = sorted(n for n in members if not 1 <= n <= bound)
    if outside:
        raise InputError(f"members {outside} outside window 1..{bound}")
    return _window_mask(bound, members)


def subset_window(bound: int, members: Iterable[int]) -> SubsetWindow:
    members = members if isinstance(members, Collection) else list(members)
    _window_mask(bound, members)
    # keeps the members' own int objects: new ones would add 2.8 MB to a window of 10^5 members
    return SubsetWindow(bound, frozenset(map(operator.index, members)))


def _or_multiples(mask: bytearray, q: int, factors) -> None:
    """Set byte q*t of ``mask`` wherever byte t >= 1 of the byte mask ``factors`` is set, q*t within ``mask``."""
    k = (len(mask) - 1) // q
    both = int.from_bytes(mask[q::q], "little") | int.from_bytes(factors[1:k + 1], "little")
    mask[q::q] = both.to_bytes(k, "little")


def _trace_mask(prime_set: PrimeSet, bound: int) -> bytearray:
    """The byte mask of the n in 1..bound whose prime factors all lie in ``prime_set``, sieved from its primes:
    a cofinite set clears the multiples of each excluded one, a finite set marks each power of each listed one
    times the trace before it.  A listed 1 (a prime only under the one-is-prime mutation) is skipped."""
    _check_bound(bound)
    primes = [p for p in prime_set.primes if 1 < p <= bound]
    if prime_set.cofinite:
        mask = bytearray(b"\0" + b"\1" * bound)
        for q in primes:
            mask[q::q] = bytes(bound // q)
        return mask
    mask = bytearray(bound + 1)
    mask[1] = 1
    for p in primes:
        before, q = mask[:bound // p + 1], p
        while q <= bound:
            _or_multiples(mask, q, before)
            q *= p
    return mask


def window_of(view: SubmonoidView, bound: int) -> SubsetWindow:
    """The window trace of a generated submonoid: the n in 1..bound whose prime factors all generate it."""
    return SubsetWindow(bound, frozenset(compress(range(bound + 1), _trace_mask(view.generator_set, bound))))


def _complement_of_trace(view: SubmonoidView, bound: int) -> SubsetWindow:
    """The n in 1..bound outside `window_of` ``(view, bound)``: its trace mask with bytes 1..bound flipped."""
    mask = _trace_mask(view.generator_set, bound).translate(_FLIP)
    mask[0] = 0
    return SubsetWindow(bound, frozenset(compress(range(bound + 1), mask)))


# ---------------------------------------------------------------------------
# Windowed subset predicates
#
# The `_check_*` searches are the only deciders of these properties,
# for the duality reports and for `classify` alike.  Each takes a member
# set and the window's bound and reports its first failure as
# ``(product, left, right)`` with product == op(left, right), and
# `classify` passes that triple on unchanged.  They assume a nonempty
# member set inside the window; `_guard` settles the empty and the
# improper (whole-window) cases before any search runs.
#
# Over (N, *) a search reads the member set S as one byte mask
# (`_window_mask`), built once per set and shared by its searches.  It
# loops in Python only over the elements up to isqrt(bound), or over the
# primitive ones (those that no smaller one of their kind divides), with
# a C-level slice, `find` or integer AND for each, and then names the
# witness of the ordered scan below: the first outer element that fails,
# and its first failing partner.
#
# The free monoid's own four searches (`FreeMonoid`) run that ordered
# scan with its ``op``, over a set of words in shortlex order (by length,
# then alphabetically), so each inner loop over the members stops at the
# first one too long for its product to stay in the window.  The
# subsemigroup and ideal scans share one product search,
# `_check_products`: members times members, and window elements times
# members on both sides.

class PredicateResult(NamedTuple):
    holds: bool
    witness: tuple | None


_HOLDS = PredicateResult(True, None)


def _shortlex(word: str):
    return (len(word), word)


def _check_products(monoid, outer, members: set, bound: int, two_sided: bool) -> PredicateResult:
    """First product of an ``outer`` element ``a`` and a member ``s`` that leaves ``members``.

    ``outer`` and ``s`` run in shortlex order.  The witness is
    ``(op(a, s), a, s)``, or, when ``two_sided``, ``(op(s, a), s, a)``
    when only the right product leaves.
    """
    ordered = sorted(members, key=_shortlex)
    op = monoid.op
    for a in outer:
        cap = bound - len(a)
        for s in ordered:
            if len(s) > cap:
                break
            prod = op(a, s)
            if prod not in members:
                return PredicateResult(False, (prod, a, s))
            if two_sided:
                prod = op(s, a)
                if prod not in members:
                    return PredicateResult(False, (prod, s, a))
    return _HOLDS


# Translates a byte mask into its window complement's; byte 0 flips as well, so a mask made this
# way to be searched must clear it.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _first_set_clear(x: bytes, y: bytes) -> int:
    """1 + the first index where ``x`` is 1 and ``y`` is 0, for 0/1 byte strings of one length; 0 if none."""
    bits = int.from_bytes(x, "little") & ~int.from_bytes(y, "little")
    return (bits & -bits).bit_length() + 7 >> 3


def _primitives(mask: bytearray):
    """The n >= 1 set in ``mask`` that no smaller such n divides, ascending; clears ``mask`` as it goes."""
    n = mask.find(1, 1)
    while n > 0:
        yield n
        mask[n::n] = bytes((len(mask) - 1) // n)
        n = mask.find(1, n + 1)


def _product_witness(outer, mask: bytearray, bound: int) -> PredicateResult:
    """``(a*s, a, s)`` for the first a in ``outer`` that takes a member s out of ``mask`` within the window, s the least."""
    for a in outer:
        s = _first_set_clear(mask[1:bound // a + 1], mask[a::a])
        if s:
            return PredicateResult(False, (a * s, a, s))
    return _HOLDS


def _split_witness(s: int, mask: bytearray, outside: int) -> PredicateResult:
    """``(s, b, c)`` for the first divisor pair of s with at least ``outside`` of b, c not in ``mask``; holds past the window."""
    if s >= len(mask):
        return _HOLDS
    for b, c in divisor_pairs(s):
        if 2 - mask[b] - mask[c] >= outside:
            return PredicateResult(False, (s, b, c))
    raise AssertionError(f"no failing divisor pair of {s}")


def _check_subsemigroup(members: bytearray, bound: int) -> PredicateResult:
    """First ``(ab, a, b)`` with ``ab`` in the window but not in ``members``."""
    # a product in the window has a factor up to isqrt(bound), so the first member to fail is there
    root = isqrt(bound)
    return _product_witness(compress(range(root + 1), members[:root + 1]), members, bound)


def _check_ideal(members: bytearray, bound: int) -> PredicateResult:
    """First product leaving ``members``: cofactor ``a`` outer, member ``s`` inner."""
    # S is an ideal iff it holds the multiples of each primitive member (one past bound // 2 has no
    # other); if not, the least cofactor that takes some member out of S fails first
    for p in _primitives(bytearray(members)):
        if 2 * p > bound:
            break
        if 0 in members[p::p]:
            return _product_witness(range(2, bound + 1), members, bound)
    return _HOLDS


def _check_factorial(members: bytearray, bound: int) -> PredicateResult:
    """First ``(s, b, c)`` with ``s = bc`` in ``members`` but ``b`` or ``c`` outside."""
    # S is factorial iff it meets no multiple of a primitive element c of its complement C; the least
    # member it meets fails first, and no c past half of that can lower it
    first = bound + 1
    for c in _primitives(members.translate(_FLIP)):
        if 2 * c >= first:
            break
        i = members[c::c].find(1)
        if i > 0:
            first = min(first, c * (i + 1))
    return _split_witness(first, members, outside=1)


def _check_prime(members: bytearray, bound: int) -> PredicateResult:
    """First ``(s, b, c)`` with ``s = bc`` in ``members`` but ``b`` and ``c`` outside."""
    # S is prime iff no member is c*d with c <= d both in C; each c's least such product is at its
    # least d, and no c with c*c past the least product found can lower it
    first = bound + 1
    for c in filterfalse(members.__getitem__, range(2, isqrt(bound) + 1)):
        if c * c >= first:
            break
        d = _first_set_clear(members[c * c::c], members[c:bound // c + 1])
        if d:
            first = min(first, c * (c + d - 1))
    return _split_witness(first, members, outside=2)


def _check_splits(monoid, members: set, fails) -> PredicateResult:
    """First ``(s, b, c)`` over members s in order and their factor pairs with ``fails(b, c)``."""
    for s in sorted(members, key=_shortlex):
        for b, c in monoid.factor_pairs(s):
            if fails(b, c):
                return PredicateResult(False, (s, b, c))
    return _HOLDS


class FreeMonoid:
    """Words over the alphabet {a, b}; the window is a length cap, and the four searches are ordered scans."""

    alphabet = "ab"
    unit = ""
    op = operator.add

    def elements(self, bound):
        """Words by length, then in alphabet order."""
        return ["".join(w) for k in range(bound + 1) for w in itertools.product(self.alphabet, repeat=k)]

    @staticmethod
    def factor_pairs(a):
        return [(a[:i], a[i:]) for i in range(len(a) + 1)]

    def _check_subsemigroup(self, members: set, bound: int) -> PredicateResult:
        return _check_products(self, sorted(members, key=_shortlex), members, bound, two_sided=False)

    def _check_ideal(self, members: set, bound: int) -> PredicateResult:
        return _check_products(self, self.elements(bound), members, bound, two_sided=True)

    def _check_factorial(self, members: set, bound: int) -> PredicateResult:
        return _check_splits(self, members, lambda b, c: b not in members or c not in members)

    def _check_prime(self, members: set, bound: int) -> PredicateResult:
        return _check_splits(self, members, lambda b, c: b not in members and c not in members)


FREE_MONOID_AB = FreeMonoid()


def _guard(size: int, window_size: int | None = None) -> PredicateResult | None:
    """The verdict no search is needed for a set of ``size`` members: empty, or (given the window's size) improper.

    The members lie in the window, so they fill it when they are as many.
    """
    if not size:
        return PredicateResult(False, ("empty",))
    if size == window_size:
        return PredicateResult(False, ("improper",))
    return None


def _window_verdict(check, window: SubsetWindow, proper: bool) -> PredicateResult:
    mask = _window_mask(*window)
    return _guard(mask.count(1), window.bound if proper else None) or check(mask, window.bound)


def is_subsemigroup(window: SubsetWindow) -> PredicateResult:
    return _window_verdict(_check_subsemigroup, window, proper=False)


def is_ideal(window: SubsetWindow) -> PredicateResult:
    return _window_verdict(_check_ideal, window, proper=False)


def is_factorial(window: SubsetWindow) -> PredicateResult:
    return _window_verdict(_check_factorial, window, proper=True)


def is_prime_subset(window: SubsetWindow) -> PredicateResult:
    return _window_verdict(_check_prime, window, proper=True)


class SideVerdicts(NamedTuple):
    """Predicate results for one side (a subset or its complement)."""

    proper_subsemigroup: PredicateResult
    proper_ideal: PredicateResult
    prime: PredicateResult
    factorial: PredicateResult
    factorial_submonoid: PredicateResult
    prime_ideal: PredicateResult


class DualityReport(NamedTuple):
    """Windowed complement-duality verdicts for a subset S.

    ``equivalences`` pairs each property of one side with its dual on the
    other: proper subsemigroup vs prime, proper ideal vs factorial (both
    orientations), and factorial submonoid vs prime ideal.
    """

    subset: SideVerdicts
    complement: SideVerdicts
    equivalences: tuple[tuple[str, bool], ...]
    consistent: bool

    def lines(self) -> list[str]:
        out = []
        for label, side in (("S", self.subset), ("S^c", self.complement)):
            for name, res in zip(side._fields, side):
                tail = "" if res.witness is None else f"  witness={res.witness}"
                out.append(f"{label} {name.replace('_', ' ')}: {'yes' if res.holds else 'no'}{tail}")
        for name, ok in self.equivalences:
            out.append(f"equivalence {name}: {'consistent' if ok else 'BROKEN'}")
        out.append(f"duality consistent: {'yes' if self.consistent else 'no'}")
        return out


def _and_results(*results: PredicateResult) -> PredicateResult:
    for res in results:
        if not res.holds:
            return res
    return _HOLDS


def _side_verdicts(searches, members, has_unit, size: int, bound: int, window_size: int) -> SideVerdicts:
    """The verdicts of a side of ``size`` elements by its monoid's subsemigroup, ideal, prime and factorial ``searches``."""
    guard = _guard(size, window_size)
    if guard is not None:
        # each of the six properties needs a nonempty proper subset
        return SideVerdicts(*[guard] * len(SideVerdicts._fields))
    sub, ideal, prime, fact = [search(members, bound) for search in searches]
    unit_in = _HOLDS if has_unit else PredicateResult(False, ("missing unit",))
    return SideVerdicts(
        proper_subsemigroup=sub,
        proper_ideal=ideal,
        prime=prime,
        factorial=fact,
        factorial_submonoid=_and_results(fact, sub, unit_in),
        prime_ideal=_and_results(prime, ideal),
    )


def complement_duality_check(window: SubsetWindow, monoid: FreeMonoid | None = None) -> DualityReport:
    """Check the subsemigroup/prime and ideal/factorial complement pairings.

    ``window`` holds elements of (N, *) up to ``window.bound``.  For the
    free monoid pass ``SubsetWindow(bound, frozenset(words))``, words of
    length up to ``bound``, and ``FREE_MONOID_AB``.
    """
    bound = window.bound
    if monoid is None:
        found = _window_mask(*window)
        size, window_size, has_unit = found.count(1), bound, found[1]
        dual_found = found.translate(_FLIP)
        dual_found[0] = 0
        searches = (_check_subsemigroup, _check_ideal, _check_prime, _check_factorial)
    else:
        _check_bound(bound, MAX_WORD_LENGTH)
        found = set(window.members)
        universe = set(monoid.elements(bound))
        if not universe.issuperset(found):
            raise InputError(f"members outside the window of bound {bound}")
        size, window_size, has_unit = len(found), len(universe), monoid.unit in found
        dual_found = universe - found
        searches = (monoid._check_subsemigroup, monoid._check_ideal, monoid._check_prime, monoid._check_factorial)

    # the unit lies in the window, so in exactly one side
    side = _side_verdicts(searches, found, has_unit, size, bound, window_size)
    dual = _side_verdicts(searches, dual_found, not has_unit, window_size - size, bound, window_size)

    equivalences = (
        ("S proper subsemigroup <=> S^c prime", side.proper_subsemigroup.holds == dual.prime.holds),
        ("S proper ideal <=> S^c factorial", side.proper_ideal.holds == dual.factorial.holds),
        ("S^c proper subsemigroup <=> S prime", dual.proper_subsemigroup.holds == side.prime.holds),
        ("S^c proper ideal <=> S factorial", dual.proper_ideal.holds == side.factorial.holds),
        ("S factorial submonoid <=> S^c prime ideal", side.factorial_submonoid.holds == dual.prime_ideal.holds),
        ("S^c factorial submonoid <=> S prime ideal", dual.factorial_submonoid.holds == side.prime_ideal.holds),
    )
    return DualityReport(side, dual, equivalences, all(ok for _, ok in equivalences))
