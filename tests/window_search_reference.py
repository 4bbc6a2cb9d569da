"""The former two-strategy (N, *) window searches, kept as a second reference.

Each search decides from the smaller of the member set S and its window
complement C, with one set operation per element of that side, and
names the witness of the ordered scan: the first outer element that
fails, and its first failing partner.  The divisor lists are built per
call by a plain loop, not read from a shared table.  The byte-mask
searches of `cuntzsum.monoids` replaced these; the differential tests in
`test_windows.py` compare the two, witness included.  The independent
per-n oracle stays `window_reference`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import filterfalse, islice
from math import isqrt

from cuntzsum.classify import Classification
from cuntzsum.monoids import PredicateResult, SideVerdicts

_HOLDS = PredicateResult(True, None)


def divisor_lists(size):
    """divisors[n] lists the divisors of n in increasing order for 1 <= n < size."""
    divisors = [[] for _ in range(size)]
    for m in range(1, size):
        for multiple in range(m, size, m):
            divisors[multiple].append(m)
    return divisors


def _smaller_complement(members, bound):
    """The window complement of ``members``, ascending and lazy, when it is the smaller side; else None."""
    if 2 * len(members) <= bound:
        return None
    return filterfalse(members.__contains__, range(1, bound + 1))


def _first_member(members, candidates):
    return next(filter(members.__contains__, candidates), 0)


def _member_cofactors(c, divisors, members):
    """c // s for the divisors s of c in ``members``, ascending."""
    return map(c.__floordiv__, filter(members.__contains__, reversed(divisors)))


def _leaves(a, ordered, members, bound):
    """Whether a times some member up to bound // a lies outside ``members``."""
    return not members.issuperset(map(a.__mul__, islice(ordered, bisect_right(ordered, bound // a))))


def _product_witness(a, ordered, members):
    if not a:
        return _HOLDS
    s = next(s for s in ordered if a * s not in members)
    return PredicateResult(False, (a * s, a, s))


def _split_witness(s, divisors, members, outside):
    if not s:
        return _HOLDS
    for b, c in zip(divisors[s], reversed(divisors[s])):
        if (b not in members) + (c not in members) >= outside:
            return PredicateResult(False, (s, b, c))
    raise AssertionError(f"no failing divisor pair of {s}")


def check_subsemigroup(members, bound):
    ordered = sorted(members)
    complement = _smaller_complement(members, bound)
    if complement is None:
        outer = islice(ordered, bisect_right(ordered, bound // ordered[0]))
        first = next((a for a in outer if _leaves(a, ordered, members, bound)), 0)
    else:
        divisors = divisor_lists(bound + 1)
        first = min(filter(None, (
            _first_member(members, _member_cofactors(c, divisors[c], members)) for c in complement
        )), default=0)
    return _product_witness(first, ordered, members)


def check_ideal(members, bound):
    ordered = sorted(members)
    complement = _smaller_complement(members, bound)
    if complement is None:
        outer = range(1, bound // ordered[0] + 1)
        first = next((a for a in outer if _leaves(a, ordered, members, bound)), 0)
    else:
        divisors = divisor_lists(bound + 1)
        first = min(filter(None, (
            next(_member_cofactors(c, divisors[c], members), 0) for c in complement
        )), default=0)
    return _product_witness(first, ordered, members)


def check_factorial(members, bound):
    divisors = divisor_lists(bound + 1)
    complement = _smaller_complement(members, bound)
    if complement is None:
        first = next((s for s in sorted(members) if not members.issuperset(divisors[s])), 0)
    else:
        first = min(filter(None, (
            _first_member(members, range(c, bound + 1, c)) for c in complement
        )), default=0)
    return _split_witness(first, divisors, members, outside=1)


def _splits_outside(s, divisors, members):
    outside = set(divisors).difference(members)
    return not outside.isdisjoint(map(s.__floordiv__, outside))


def check_prime(members, bound):
    divisors = divisor_lists(bound + 1)
    complement = _smaller_complement(members, bound)
    if complement is None:
        first = next((s for s in sorted(members) if _splits_outside(s, divisors[s], members)), 0)
    else:
        ordered = list(complement)
        first = min(filter(None, (
            _first_member(members, map(c.__mul__, islice(ordered, i, bisect_right(ordered, bound // c))))
            for i, c in enumerate(islice(ordered, bisect_right(ordered, isqrt(bound))))
        )), default=0)
    return _split_witness(first, divisors, members, outside=2)


def _guard(members, window_size=None):
    if not members:
        return PredicateResult(False, ("empty",))
    if len(members) == window_size:
        return PredicateResult(False, ("improper",))
    return None


def is_subsemigroup(window):
    members = set(window.members)
    return _guard(members) or check_subsemigroup(members, window.bound)


def is_ideal(window):
    members = set(window.members)
    return _guard(members) or check_ideal(members, window.bound)


def is_factorial(window):
    members = set(window.members)
    return _guard(members, window.bound) or check_factorial(members, window.bound)


def is_prime_subset(window):
    members = set(window.members)
    return _guard(members, window.bound) or check_prime(members, window.bound)


def _and_results(*results):
    return next((res for res in results if not res.holds), _HOLDS)


def side_verdicts(members, bound):
    """The six verdicts of one side of `complement_duality_check` over (N, *)."""
    members = set(members)
    guard = _guard(members, bound)
    if guard is not None:
        return SideVerdicts(*[guard] * len(SideVerdicts._fields))
    sub = check_subsemigroup(members, bound)
    ideal = check_ideal(members, bound)
    prime = check_prime(members, bound)
    fact = check_factorial(members, bound)
    unit_in = _HOLDS if 1 in members else PredicateResult(False, ("missing unit",))
    return SideVerdicts(sub, ideal, prime, fact, _and_results(fact, sub, unit_in), _and_results(prime, ideal))


def classify_component_set(window) -> Classification:
    members, bound = set(window.members), window.bound
    if not members:
        return Classification("zero", None)
    if 1 in members:
        factorial = check_factorial(members, bound)
        if not factorial.holds:
            return Classification("none", factorial.witness)
        closed = check_subsemigroup(members, bound)
        if not closed.holds:
            return Classification("none", closed.witness)
        return Classification("subbialgebra", None)
    ideal = check_ideal(members, bound)
    prime = check_prime(members, bound)
    if ideal.holds:
        return Classification("biideal" if prime.holds else "ideal_only", None)
    return Classification("none", prime.witness or ideal.witness)
