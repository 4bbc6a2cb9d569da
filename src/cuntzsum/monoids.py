"""Multiplicative monoid combinatorics: primes, generated submonoids,
windowed subset predicates, complement duality, and the prime-set lattice.

Membership in a submonoid generated by a set of primes is decided
globally through prime factorization; its window trace is sieved
directly from the primes.  Claims about arbitrary subsets are verified
exhaustively inside a finite window and reported as such.  Over (N, *)
each window search works on whole sets, from the smaller of the subset
and its complement; a free-monoid backend runs the same predicates as
ordered scans, without commutativity.

One trial-division loop factors every n up to MAX_FACTOR, for primality,
membership and the divisor pairs alike.  The (N, *) window searches
read one shared divisor table, built on first use and grown by doubling
up to MAX_BOUND.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, filterfalse, islice
from math import isqrt
from typing import Iterable, NamedTuple

from . import mutations
from .errors import InputError


def is_prime(n: int) -> bool:
    if n == 1:
        return mutations.is_active(mutations.ONE_IS_PRIME)
    return n > 1 and prime_factorize(n) == [n]


def primes_up_to(bound: int) -> list[int]:
    return [n for n in range(1, bound + 1) if is_prime(n)]


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


# Largest window bound that `window_of` and `subset_window` accept.  A
# generated submonoid's trace is sieved, and each (N, *) window search
# runs one set operation per element of the smaller side, so time and
# memory grow with the bound: at this bound `lattice` takes about 0.06 s
# in process with one finite prime set, about 0.2 s with two cofinite
# ones and about 0.3 s with a list of every prime up to it, and
# `classify` of a `list:` spec of 20,000 members about 0.3 s, most of it
# building the divisor table.  Of the commands, only `classify` of a
# `list:` spec and `suite` build that table, about 20 MB at this bound;
# it covers 1..MAX_BOUND, and no other number table is kept.
MAX_BOUND = 10**5


# Largest number of ordered divisor triples (a, b, c), abc = n, summed
# over the terms of an element (n the term's component), that the
# coassociativity check accepts.  It splits each term once per divisor
# pair and then once per triple on each side: as a `coassoc` command in
# a fresh process, with the same start-up (about 0.17 s), I(720720), with
# 7,290, takes about 0.23 s and I(12612600), with 19,440, about 0.39 s
# (2-CPU Xeon); I(963761198400), with 1,837,080, would take about 35 s
# at the same rate per triple.
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


def _check_factorable(n: int, caller: str) -> None:
    if n < 1:
        raise InputError(f"{caller} requires n >= 1, got {n}")
    if n > MAX_FACTOR:
        raise InputError(f"{caller} requires n <= {MAX_FACTOR}, got {n}")


class _GrowingTable:
    """A table indexed by 0 <= n < len(table), built on first use.

    A lookup past the end rebuilds the table at the next power of two
    above n (capped at MAX_BOUND + 1) under a lock and publishes it with
    one assignment.  Readers take no lock: each sees a whole table, or
    the empty one left while a rebuild runs, and then waits on the lock.
    """

    def __init__(self, build):
        self._build = build
        self._table = ()
        self._lock = threading.Lock()

    def covering(self, n: int):
        """The current table if it covers n (n <= MAX_BOUND), else a grown one."""
        table = self._table
        if n < len(table):
            return table
        with self._lock:
            table = self._table
            if n >= len(table):
                size = max(len(table), 64)
                while size <= n:
                    size *= 2
                # drop the old table first, so a rebuild holds one table, not two
                self._table = table = ()
                table = self._build(min(size, MAX_BOUND + 1))
                self._table = table
        return table


def _divisor_lists(size: int) -> list[list[int]]:
    """divisors[n] lists the divisors of n in increasing order for 1 <= n < size."""
    divisors = [[] for _ in range(size)]
    for m in range(1, size):
        for multiple in divisors[m::m]:
            multiple.append(m)
    return divisors


_DIVISORS = _GrowingTable(_divisor_lists)


@functools.lru_cache(maxsize=64)
def _trial_factors(n: int) -> tuple[int, ...]:
    """Prime factors of n, ascending, by trial division; memoised so `coassoc` factors a component once."""
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
    _check_factorable(n, "prime_factorize")
    return list(_trial_factors(n))


def divisor_pairs(n: int) -> list[tuple[int, int]]:
    """Ordered pairs (m, l) with m*l == n, in increasing m; read from the factors, not a table."""
    _check_factorable(n, "divisor_pairs")
    divisors = [1]
    for p, e in Counter(_trial_factors(n)).items():
        divisors = [d * p**k for k in range(e + 1) for d in divisors]
    return [(m, n // m) for m in sorted(divisors)]


def divisor_triple_count(n: int) -> int:
    """Number of ordered triples (a, b, c) with abc == n: the product of C(e+2, 2) over n's prime exponents e."""
    _check_factorable(n, "divisor_triple_count")
    count = 1
    for e in Counter(_trial_factors(n)).values():
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
        primes = frozenset(int(p) for p in self.primes)
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
        return n >= 1 and all(map(self.generator_set.contains, prime_factorize(n)))

    def __repr__(self):
        return f"SubmonoidView({self.generator_set.describe()})"


@dataclass(frozen=True, slots=True)
class PowerSubmonoid:
    """The submonoid {1, k, k^2, ...}; not factorial for composite k."""

    base: int

    def __post_init__(self):
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
    if n < 1:
        raise InputError(f"membership requires n >= 1, got {n}")
    return view.contains(n)


class SubsetWindow(NamedTuple):
    """An explicit subset of {1..bound}."""

    bound: int
    members: frozenset[int]


def subset_window(bound: int, members: Iterable[int]) -> SubsetWindow:
    _check_bound(bound)
    members = frozenset(map(int, members))
    if members and not 1 <= min(members) <= max(members) <= bound:
        bad = [m for m in members if not 1 <= m <= bound]
        raise InputError(f"members {sorted(bad)} outside window 1..{bound}")
    return SubsetWindow(bound, members)


def window_of(view: SubmonoidView, bound: int) -> SubsetWindow:
    """The window trace of a generated submonoid: the n in 1..bound whose
    prime factors all lie in its generator set, sieved from those primes.

    A finite set multiplies out the powers of its primes; a cofinite one
    keeps the window less the multiples of each excluded prime.  A listed
    1 (a prime only under the one-is-prime mutation) is no prime factor
    of any n, so it is skipped.
    """
    _check_bound(bound)
    primes = [p for p in view.generator_set.primes if 1 < p <= bound]
    if view.generator_set.cofinite:
        keep = bytearray([1]) * (bound + 1)
        keep[0] = 0
        for q in primes:
            keep[q::q] = bytes(len(range(q, bound + 1, q)))
        return SubsetWindow(bound, frozenset(compress(range(bound + 1), keep)))
    members = {1}
    for p in primes:
        # the members up to bound // p, read from the shorter of the set and that range,
        # so a long prime list costs about bound * sum(1/p) lookups, not |primes| * |trace|
        cap = bound // p
        if len(members) <= cap:
            layer = set(filter(cap.__ge__, members))
        else:
            layer = set(filter(members.__contains__, range(1, cap + 1)))
        while layer:
            layer = set(map(p.__mul__, layer))
            members |= layer
            layer = set(filter(cap.__ge__, layer))
    return SubsetWindow(bound, frozenset(members))


# ---------------------------------------------------------------------------
# Generic monoid backends


class NaturalsMonoid:
    """(N, *) within the window {1..bound}; its searches work on whole sets, not on ``op``."""

    max_bound = MAX_BOUND
    unit = 1
    op = operator.mul

    @staticmethod
    def elements(bound):
        return range(1, bound + 1)

    factor_pairs = staticmethod(divisor_pairs)


class FreeMonoid:
    """Words over the alphabet {a, b}; the window is a length cap."""

    max_bound = MAX_WORD_LENGTH
    alphabet = "ab"
    unit = ""
    op = operator.add

    def elements(self, bound):
        """Words by length, then in alphabet order."""
        return ["".join(w) for k in range(bound + 1) for w in itertools.product(self.alphabet, repeat=k)]

    @staticmethod
    def factor_pairs(a):
        return [(a[:i], a[i:]) for i in range(len(a) + 1)]


NATURALS_MONOID = NaturalsMonoid()
FREE_MONOID_AB = FreeMonoid()


# ---------------------------------------------------------------------------
# Windowed subset predicates
#
# The `_check_*` searches are the only deciders of these properties,
# for the duality reports and for `classify` alike.  Each reports its
# first failure as ``(product, left, right)`` with product == op(left,
# right), and `classify` passes that triple on unchanged.  They assume a
# nonempty member set inside the window; `_guard` settles the empty and
# the improper (whole-window) cases before any search runs.
#
# Over (N, *) a search works on whole sets.  It decides from the
# smaller of the member set S and its window complement C, with one
# C-level set operation per element of that side, and then names the
# witness of the ordered scan below: the first outer element that
# fails, and its first failing partner.
#
# The free monoid runs that ordered scan with its ``op``, over words in
# shortlex order (by length, then alphabetically), so each inner loop
# over the members stops at the first one too long for its product to
# stay in the window.  The subsemigroup and ideal scans share one
# product search, `_check_products`: members times members, and window
# elements times members on both sides.

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


def _smaller_complement(members: set, bound: int):
    """The window complement of ``members``, ascending and lazy, when it is the smaller side; else None."""
    if 2 * len(members) <= bound:
        return None
    return filterfalse(members.__contains__, range(1, bound + 1))


def _first_member(members: set, candidates) -> int:
    """The first of ``candidates`` that lies in ``members``, or 0."""
    return next(filter(members.__contains__, candidates), 0)


def _member_cofactors(c: int, divisors: list, members: set):
    """c // s for the divisors s of c in ``members``, ascending."""
    return map(c.__floordiv__, filter(members.__contains__, reversed(divisors)))


def _leaves(a: int, ordered: list, members: set, bound: int) -> bool:
    """Whether a times some member up to bound // a lies outside ``members``."""
    return not members.issuperset(map(a.__mul__, islice(ordered, bisect_right(ordered, bound // a))))


def _product_witness(a: int, ordered: list, members: set) -> PredicateResult:
    """``(a*s, a, s)`` for the first member s with a*s outside ``members``; holds for a == 0."""
    if not a:
        return _HOLDS
    s = next(s for s in ordered if a * s not in members)
    return PredicateResult(False, (a * s, a, s))


def _split_witness(s: int, members: set, outside: int) -> PredicateResult:
    """``(s, b, c)`` for the first divisor pair of s with at least ``outside`` of b, c not in ``members``; holds for s == 0."""
    if not s:
        return _HOLDS
    for b, c in divisor_pairs(s):
        if (b not in members) + (c not in members) >= outside:
            return PredicateResult(False, (s, b, c))
    raise AssertionError(f"no failing divisor pair of {s}")


def _check_subsemigroup(monoid, members: set, bound: int) -> PredicateResult:
    """First ``(ab, a, b)`` with ``ab`` in the window but not in ``members``."""
    if not isinstance(monoid, NaturalsMonoid):
        return _check_products(monoid, sorted(members, key=_shortlex), members, bound, two_sided=False)
    ordered = sorted(members)
    complement = _smaller_complement(members, bound)
    if complement is None:
        outer = islice(ordered, bisect_right(ordered, bound // ordered[0]))
        first = next((a for a in outer if _leaves(a, ordered, members, bound)), 0)
    else:
        # S is closed iff no c in C splits into two members; the least left factor of a split fails first
        divisors = _DIVISORS.covering(bound)
        first = min(filter(None, (
            _first_member(members, _member_cofactors(c, divisors[c], members)) for c in complement
        )), default=0)
    return _product_witness(first, ordered, members)


def _check_ideal(monoid, members: set, bound: int) -> PredicateResult:
    """First product leaving ``members``: cofactor ``a`` outer, member ``s`` inner."""
    if not isinstance(monoid, NaturalsMonoid):
        return _check_products(monoid, monoid.elements(bound), members, bound, two_sided=True)
    ordered = sorted(members)
    complement = _smaller_complement(members, bound)
    if complement is None:
        outer = range(1, bound // ordered[0] + 1)
        first = next((a for a in outer if _leaves(a, ordered, members, bound)), 0)
    else:
        # S is an ideal iff C is divisor-closed; c = a*s has its least a at its largest member divisor s
        divisors = _DIVISORS.covering(bound)
        first = min(filter(None, (
            next(_member_cofactors(c, divisors[c], members), 0) for c in complement
        )), default=0)
    return _product_witness(first, ordered, members)


def _check_factorial(monoid, members: set, bound: int) -> PredicateResult:
    """First ``(s, b, c)`` with ``s = bc`` in ``members`` but ``b`` or ``c`` outside."""
    if not isinstance(monoid, NaturalsMonoid):
        return _check_splits(monoid, members, lambda b, c: b not in members or c not in members)
    complement = _smaller_complement(members, bound)
    if complement is None:
        divisors = _DIVISORS.covering(bound)
        first = next((s for s in sorted(members) if not members.issuperset(divisors[s])), 0)
    else:
        # S is factorial iff it meets no multiple of C; the least member it meets fails first
        first = min(filter(None, (
            _first_member(members, range(c, bound + 1, c)) for c in complement
        )), default=0)
    return _split_witness(first, members, outside=1)


def _check_prime(monoid, members: set, bound: int) -> PredicateResult:
    """First ``(s, b, c)`` with ``s = bc`` in ``members`` but ``b`` and ``c`` outside."""
    if not isinstance(monoid, NaturalsMonoid):
        return _check_splits(monoid, members, lambda b, c: b not in members and c not in members)
    complement = _smaller_complement(members, bound)
    if complement is None:
        divisors = _DIVISORS.covering(bound)
        first = next((s for s in sorted(members) if _splits_outside(s, divisors[s], members)), 0)
    else:
        # S is prime iff it meets no product in C*C; the least member it meets fails first
        ordered = list(complement)
        first = min(filter(None, (
            _first_member(members, map(c.__mul__, islice(ordered, i, bisect_right(ordered, bound // c))))
            for i, c in enumerate(islice(ordered, bisect_right(ordered, isqrt(bound))))
        )), default=0)
    return _split_witness(first, members, outside=2)


def _splits_outside(s: int, divisors: list, members: set) -> bool:
    """Whether some divisor pair of s has both factors outside ``members``."""
    outside = set(divisors).difference(members)
    return not outside.isdisjoint(map(s.__floordiv__, outside))


def _check_splits(monoid, members: set, fails) -> PredicateResult:
    """First ``(s, b, c)`` over members s in order and their factor pairs with ``fails(b, c)``."""
    for s in sorted(members, key=_shortlex):
        for b, c in monoid.factor_pairs(s):
            if fails(b, c):
                return PredicateResult(False, (s, b, c))
    return _HOLDS


def _guard(members: set, window_size: int | None = None) -> PredicateResult | None:
    """The verdict no search is needed for: empty, or (given the window's size) improper.

    ``members`` lie in the window, so they fill it when they are as many.
    """
    if not members:
        return PredicateResult(False, ("empty",))
    if len(members) == window_size:
        return PredicateResult(False, ("improper",))
    return None


def _window_verdict(check, window: SubsetWindow, proper: bool) -> PredicateResult:
    # a SubsetWindow built directly is checked as `subset_window` checks its input
    bound, members = subset_window(*window)
    members = set(members)
    return _guard(members, bound if proper else None) or check(NATURALS_MONOID, members, bound)


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


def _side_verdicts(monoid, members: set, bound: int, window_size: int) -> SideVerdicts:
    guard = _guard(members, window_size)
    if guard is not None:
        # each of the six properties needs a nonempty proper subset
        return SideVerdicts(*[guard] * len(SideVerdicts._fields))
    sub = _check_subsemigroup(monoid, members, bound)
    ideal = _check_ideal(monoid, members, bound)
    prime = _check_prime(monoid, members, bound)
    fact = _check_factorial(monoid, members, bound)
    unit_in = PredicateResult(monoid.unit in members, None if monoid.unit in members else ("missing unit",))
    return SideVerdicts(
        proper_subsemigroup=sub,
        proper_ideal=ideal,
        prime=prime,
        factorial=fact,
        factorial_submonoid=_and_results(fact, sub, unit_in),
        prime_ideal=_and_results(prime, ideal),
    )


def complement_duality_check(window: SubsetWindow, monoid=NATURALS_MONOID) -> DualityReport:
    """Check the subsemigroup/prime and ideal/factorial complement pairings.

    ``window`` holds elements of ``monoid`` up to ``window.bound`` in its
    size, over (N, *) by default.  For the free monoid pass
    ``SubsetWindow(bound, frozenset(words))`` and ``FREE_MONOID_AB``.
    """
    bound = window.bound
    _check_bound(bound, monoid.max_bound)
    universe = set(monoid.elements(bound))
    members = set(window.members)
    if not universe.issuperset(members):
        raise InputError(f"members outside the window of bound {bound}")
    comp = universe - members

    side = _side_verdicts(monoid, members, bound, len(universe))
    dual = _side_verdicts(monoid, comp, bound, len(universe))

    equivalences = (
        ("S proper subsemigroup <=> S^c prime", side.proper_subsemigroup.holds == dual.prime.holds),
        ("S proper ideal <=> S^c factorial", side.proper_ideal.holds == dual.factorial.holds),
        ("S^c proper subsemigroup <=> S prime", dual.proper_subsemigroup.holds == side.prime.holds),
        ("S^c proper ideal <=> S factorial", dual.proper_ideal.holds == side.factorial.holds),
        ("S factorial submonoid <=> S^c prime ideal", side.factorial_submonoid.holds == dual.prime_ideal.holds),
        ("S^c factorial submonoid <=> S prime ideal", dual.factorial_submonoid.holds == side.prime_ideal.holds),
    )
    return DualityReport(side, dual, equivalences, all(ok for _, ok in equivalences))
