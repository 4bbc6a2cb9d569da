"""Differential tests of the shared window predicates, the sieved
submonoid traces and the lattice check against the per-n reference loops
in `window_reference`, of the byte-mask searches against the former
two-strategy searches in `window_search_reference`, and a check of every
search's ``(product, left, right)`` witness: the four byte-mask searches
over (N, *) and the free monoid's four ordered scans."""

import functools
import itertools
import operator
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import window_reference as ref
import window_search_reference as old
from cuntzsum import (
    FREE_MONOID_AB,
    PrimeSet,
    SubmonoidView,
    SubsetWindow,
    classify_component_set,
    complement_duality_check,
    is_factorial,
    is_ideal,
    is_prime_subset,
    is_subsemigroup,
    lattice_iso_check,
    mutations,
    subset_window,
    window_of,
)
from cuntzsum.monoids import (
    MAX_BOUND,
    _check_factorial,
    _check_ideal,
    _check_prime,
    _check_subsemigroup,
    _complement_of_trace,
    _window_mask,
    primes_up_to,
)

PRIMES = (2, 3, 5, 7, 11, 13, 37)


@st.composite
def prime_sets(draw):
    primes = draw(st.sets(st.sampled_from(PRIMES), max_size=4))
    return PrimeSet(primes, cofinite=draw(st.booleans()))


@st.composite
def windows(draw, max_bound=80):
    bound = draw(st.integers(1, max_bound))
    universe = frozenset(range(1, bound + 1))
    shape = draw(st.sampled_from(("random", "with-unit", "empty", "full", "trace", "complement")))
    if shape in ("trace", "complement"):
        members = window_of(SubmonoidView(draw(prime_sets())), bound).members
        if shape == "complement":
            members = universe - members
    elif shape == "empty":
        members = frozenset()
    elif shape == "full":
        members = universe
    else:
        members = draw(st.sets(st.integers(1, bound)))
        if shape == "with-unit":
            members = members | {1}
    return subset_window(bound, members)


@st.composite
def near_traces(draw):
    """A window at bound 200-600 a few members away from a trace or from its
    complement, so that S is the small side in some and C in others."""
    bound = draw(st.integers(200, 600))
    members = window_of(SubmonoidView(draw(prime_sets())), bound).members
    if draw(st.booleans()):
        members = frozenset(range(1, bound + 1)) - members
    less = draw(st.sets(st.sampled_from(sorted(members)), max_size=3)) if members else set()
    more = draw(st.sets(st.integers(1, bound), max_size=3))
    return subset_window(bound, (members - less) | more)


@st.composite
def free_windows(draw, max_bound=4):
    """A window of the free monoid on {a, b}: words of length <= bound."""
    bound = draw(st.integers(0, max_bound))
    members = draw(st.sets(st.sampled_from(FREE_MONOID_AB.elements(bound))))
    if draw(st.booleans()):
        members.add(FREE_MONOID_AB.unit)
    return SubsetWindow(bound, frozenset(members))


# What the witness (p, l, r) of the subsemigroup, ideal, factorial and prime search must show
# about the member set S.
_WITNESS_CONDITIONS = (
    lambda S, p, l, r: l in S and r in S and p not in S,
    lambda S, p, l, r: (l in S or r in S) and p not in S,
    lambda S, p, l, r: p in S and not (l in S and r in S),
    lambda S, p, l, r: p in S and l not in S and r not in S,
)
NATURALS_SEARCHES = (_check_subsemigroup, _check_ideal, _check_factorial, _check_prime)
FREE_SEARCHES = (
    FREE_MONOID_AB._check_subsemigroup,
    FREE_MONOID_AB._check_ideal,
    FREE_MONOID_AB._check_factorial,
    FREE_MONOID_AB._check_prime,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(windows().map(lambda window: (True, window)), free_windows().map(lambda window: (False, window))))
def test_every_search_witness_is_product_left_right(case):
    naturals, window = case
    members = set(window.members)
    assume(members)  # the searches assume a nonempty member set
    if naturals:
        # over (N, *) the searches read the member set as a byte mask
        searches, found, op = NATURALS_SEARCHES, _window_mask(*window), operator.mul
        universe = range(1, window.bound + 1)
    else:
        searches, found, op = FREE_SEARCHES, members, FREE_MONOID_AB.op
        universe = FREE_MONOID_AB.elements(window.bound)
    for search, condition in zip(searches, _WITNESS_CONDITIONS):
        result = search(found, window.bound)
        if result.holds:
            continue
        p, l, r = result.witness
        assert p == op(l, r), search.__name__
        assert p in universe, search.__name__
        assert condition(members, p, l, r), search.__name__


@settings(max_examples=400, deadline=None)
@given(windows())
def test_classify_matches_reference(window):
    assert classify_component_set(window) == ref.classify_component_set(window)


@settings(max_examples=300, deadline=None)
@given(windows())
def test_predicates_match_reference(window):
    _assert_predicates_match_reference(window)


@settings(max_examples=100, deadline=None)
@given(near_traces())
def test_small_side_searches_match_reference(window):
    assert classify_component_set(window) == ref.classify_component_set(window)
    _assert_predicates_match_reference(window)


def _assert_predicates_match_reference(window):
    members, bound = set(window.members), window.bound
    verdicts = {
        is_factorial: ref.divisor_closure_witness(members, bound),
        is_prime_subset: ref.prime_witness(members, bound),
        is_subsemigroup: ref.product_closure_witness(members, bound),
        is_ideal: ref.ideal_witness(members, bound),
    }
    for predicate, witness in verdicts.items():
        result = predicate(window)
        if not members:
            assert result == (False, ("empty",))
        elif len(members) == bound and predicate in (is_factorial, is_prime_subset):
            assert result == (False, ("improper",))
        else:
            assert result == (witness is None, witness), predicate.__name__


@st.composite
def dense_windows(draw):
    """A window up to bound 3,000: random at a density from near-empty to near-full,
    or the multiples or the non-multiples of 2, 3, 6 or 7; with 1 flipped or not."""
    bound = draw(st.integers(1, 3000))
    kind = draw(st.sampled_from(("random", "multiples", "non-multiples")))
    if kind == "random":
        density = draw(st.sampled_from((0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999)))
        rng = draw(st.randoms(use_true_random=False))
        members = {n for n in range(1, bound + 1) if rng.random() < density}
    else:
        q = draw(st.sampled_from((2, 3, 6, 7)))
        members = {n for n in range(1, bound + 1) if (n % q == 0) == (kind == "multiples")}
    if draw(st.booleans()):
        members ^= {1}
    return subset_window(bound, members)


@settings(max_examples=100, deadline=None)
@given(dense_windows())
def test_searches_match_the_former_two_strategy_searches(window):
    bound = window.bound
    complement = frozenset(range(1, bound + 1)) - window.members
    for w in (window, subset_window(bound, complement)):
        for predicate in (is_subsemigroup, is_ideal, is_factorial, is_prime_subset):
            assert predicate(w) == getattr(old, predicate.__name__)(w), predicate.__name__
        assert classify_component_set(w) == old.classify_component_set(w)
    report = complement_duality_check(window)
    assert report.subset == old.side_verdicts(window.members, bound)
    assert report.complement == old.side_verdicts(complement, bound)


@settings(max_examples=150, deadline=None)
@given(prime_sets(), prime_sets(), st.integers(1, 300))
def test_lattice_check_matches_reference(f, g, bound):
    assert lattice_iso_check(f, g, bound) == ref.lattice_iso_check(f, g, bound)


# Finite, cofinite, empty and all-primes sets, built on first use: the list of every prime up to
# MAX_BOUND takes about half a second.
FIXED_SETS = {
    "primes:2": lambda: PrimeSet.finite([2]),
    "primes:2,3,5,7": lambda: PrimeSet.finite([2, 3, 5, 7]),
    "every prime up to MAX_BOUND": lambda: PrimeSet.finite(primes_up_to(MAX_BOUND)),
    "coprimes:2": lambda: PrimeSet.excluding([2]),
    "coprimes:2,3": lambda: PrimeSet.excluding([2, 3]),
    "all primes": PrimeSet.all_primes,
    "empty": lambda: PrimeSet.finite([]),
}


@functools.cache
def fixed_set(name):
    return FIXED_SETS[name]()


# the traces are byte masks read as integers, so the bounds straddle a byte's range of values;
# at 4096, where the reference takes about 0.15 s a pair, each unordered pair is checked once
@pytest.mark.parametrize("bound", [255, 256, 257, 4096])
def test_lattice_check_matches_reference_on_fixed_pairs(bound):
    sets = list(map(fixed_set, FIXED_SETS))
    pairs = itertools.product(sets, repeat=2) if bound < 4096 else itertools.combinations_with_replacement(sets, 2)
    for f, g in pairs:
        assert lattice_iso_check(f, g, bound) == ref.lattice_iso_check(f, g, bound), (f, g)


# the reference takes about 6.5 s a pair at MAX_BOUND (2-CPU Xeon), so two pairs stand for the rest
@pytest.mark.parametrize("f, g", [("every prime up to MAX_BOUND", "primes:2"), ("primes:2,3,5,7", "coprimes:2")])
def test_lattice_check_matches_reference_at_max_bound(f, g):
    f, g = fixed_set(f), fixed_set(g)
    assert lattice_iso_check(f, g, MAX_BOUND) == ref.lattice_iso_check(f, g, MAX_BOUND)


def _random_pairs(count=12):
    rng = Random(4)
    draw = lambda: PrimeSet(rng.sample(PRIMES, rng.randint(0, 3)), cofinite=rng.random() < 0.3)
    return [(draw(), draw(), rng.randint(1, 120)) for _ in range(count)]


# generators past 255, so that some witnesses lie past the first byte's range of values
_PAST_ONE_BYTE = [
    (f, g, bound)
    for f, g in [
        (PrimeSet.finite([257]), PrimeSet.finite([263])),
        (PrimeSet.finite([2, 263]), PrimeSet.excluding([2, 3])),
        (PrimeSet.excluding([3]), PrimeSet.finite([251, 257])),
    ]
    for bound in (256, 257, 600)
]


_union, _intersection = PrimeSet.union, PrimeSet.intersection

# Broken lattice operations; both implementations see the same breakage,
# so their reports (witnesses and labels included) must still agree.
SABOTAGE = {
    "join is the left factor": ("union", lambda self, other: self),
    "join is the meet": ("union", lambda self, other: _intersection(self, other)),
    "meet is the join": ("intersection", lambda self, other: _union(self, other)),
    "meet is the right factor": ("intersection", lambda self, other: other),
    "meet is trivial": ("intersection", lambda self, other: PrimeSet.finite([])),
    "every pair is included": ("issubset", lambda self, other: True),
    "separated by 2": ("separating_prime", lambda self, other: 2),
    "separated beyond the window": ("separating_prime", lambda self, other: 401),
}


@pytest.mark.parametrize("name", SABOTAGE)
def test_broken_lattice_reports_match_reference(monkeypatch, name):
    attr, broken = SABOTAGE[name]
    monkeypatch.setattr(PrimeSet, attr, broken)
    failing = 0
    for f, g, bound in _random_pairs() + _PAST_ONE_BYTE:
        report = lattice_iso_check(f, g, bound)
        assert report == ref.lattice_iso_check(f, g, bound), (f, g, bound)
        failing += not report.consistent
    assert failing, "the sabotage broke no check, so the comparison shows nothing"


def test_broken_lattice_witnesses_reach_past_one_byte(monkeypatch):
    monkeypatch.setattr(PrimeSet, "intersection", SABOTAGE["meet is the join"][1])
    report = lattice_iso_check(PrimeSet.finite([257]), PrimeSet.finite([263]), 300)
    assert report == ref.lattice_iso_check(PrimeSet.finite([257]), PrimeSet.finite([263]), 300)
    assert report.checks[0].witness == (257,)


@pytest.mark.parametrize("f, g", [([2], [3]), ([3], [2]), ([2, 3], [5]), ([5], [2, 7])])
def test_broken_lattice_names_the_lower_of_two_escapes(monkeypatch, f, g):
    # the meet is the right factor and the join the true meet, so both inclusions of the
    # monotonicity check fail, and the one at the smaller component must be named
    monkeypatch.setattr(PrimeSet, "intersection", SABOTAGE["meet is the right factor"][1])
    monkeypatch.setattr(PrimeSet, "union", _intersection)
    f, g = PrimeSet.finite(f), PrimeSet.finite(g)
    report = lattice_iso_check(f, g, 60)
    assert report == ref.lattice_iso_check(f, g, 60)
    assert report.checks[2].witness is not None


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_lattice_separation_by_a_listed_unit_matches_reference(bound):
    # only the one-is-prime mutation lets 1 into a prime set; it lies in every trace
    with mutations.enabled(mutations.ONE_IS_PRIME):
        f, g = PrimeSet([1, 2]), PrimeSet([2])
        assert f.separating_prime(g) == 1
        assert lattice_iso_check(f, g, bound) == ref.lattice_iso_check(f, g, bound)


def test_lattice_check_traces_each_submonoid_once(monkeypatch):
    calls = [0]
    contains = SubmonoidView.contains

    def counting(self, n):
        calls[0] += 1
        return contains(self, n)

    monkeypatch.setattr(SubmonoidView, "contains", counting)
    pairs = _random_pairs() + [(PrimeSet.finite([2]), PrimeSet.finite([2, 37]), 30)]
    for f, g, bound in pairs:
        calls[0] = 0
        lattice_iso_check(f, g, bound)
        assert calls[0] <= 4 * bound, (f, g, bound, calls[0])


@st.composite
def trace_cases(draw):
    """A prime set (finite, cofinite, empty or all primes) and a bound up to 2,000."""
    kind = draw(st.sampled_from(("finite", "cofinite", "empty", "all")))
    if kind == "empty":
        prime_set = PrimeSet.finite([])
    elif kind == "all":
        prime_set = PrimeSet.all_primes()
    else:
        prime_set = PrimeSet(draw(st.sets(st.sampled_from(PRIMES + (997, 1999)), max_size=4)), kind == "cofinite")
    return prime_set, draw(st.integers(1, 2000))


def _reference_trace(prime_set, bound):
    view = ref.SubmonoidView(prime_set)
    return frozenset(n for n in range(1, bound + 1) if view.contains(n))


@settings(max_examples=100, deadline=None)
@given(trace_cases())
def test_sieved_trace_matches_reference(case):
    prime_set, bound = case
    assert window_of(SubmonoidView(prime_set), bound).members == _reference_trace(prime_set, bound)


@pytest.mark.parametrize("name", FIXED_SETS)
def test_sieved_trace_matches_reference_at_max_bound(name):
    prime_set = fixed_set(name)
    assert window_of(SubmonoidView(prime_set), MAX_BOUND).members == _reference_trace(prime_set, MAX_BOUND)


def _complement_by_difference(prime_set, bound):
    universe = frozenset(range(1, bound + 1))
    return subset_window(bound, universe - window_of(SubmonoidView(prime_set), bound).members)


@settings(max_examples=100, deadline=None)
@given(trace_cases())
def test_trace_complement_is_the_window_minus_the_trace(case):
    prime_set, bound = case
    assert _complement_of_trace(SubmonoidView(prime_set), bound) == _complement_by_difference(prime_set, bound)


@pytest.mark.parametrize("bound", [1, 2, 255, 256, 1000, MAX_BOUND])
@pytest.mark.parametrize("name", FIXED_SETS)
def test_trace_complement_at_fixed_bounds(name, bound):
    prime_set = fixed_set(name)
    complement = _complement_of_trace(SubmonoidView(prime_set), bound)
    assert complement == _complement_by_difference(prime_set, bound)
    assert all(type(n) is int for n in complement.members)


@pytest.mark.parametrize("primes", [[1], [1, 2], [1, 3, 7]])
@pytest.mark.parametrize("cofinite", [False, True])
def test_sieved_trace_skips_a_listed_unit(primes, cofinite):
    # only the one-is-prime mutation lets 1 into a prime set; 1 is no prime factor of any n
    with mutations.enabled(mutations.ONE_IS_PRIME):
        prime_set = PrimeSet(primes, cofinite)
        trace = window_of(SubmonoidView(prime_set), 300).members
    assert trace == _reference_trace(prime_set, 300)


def test_naturals_searches_and_traces_call_no_contains(monkeypatch):
    calls = []
    contains = SubmonoidView.contains

    def counted(*args):
        calls.append("contains")
        return contains(*args)

    monkeypatch.setattr(SubmonoidView, "contains", counted)
    # the counter sees direct calls
    SubmonoidView(PrimeSet.finite([2])).contains(4)
    assert calls == ["contains"]

    calls.clear()
    rng = Random(9)
    for prime_set in (PrimeSet.finite([]), PrimeSet.finite([2, 3]), PrimeSet.excluding([3]), PrimeSet.all_primes()):
        for bound in (1, 60, 400):
            universe = frozenset(range(1, bound + 1))
            trace = window_of(SubmonoidView(prime_set), bound).members
            nudged = trace ^ frozenset(rng.sample(sorted(universe), min(3, bound)))
            for members in (trace, universe - trace, nudged, universe - nudged):
                window = subset_window(bound, members)
                complement_duality_check(window)
                classify_component_set(window)
                if members:
                    for search in NATURALS_SEARCHES:
                        search(_window_mask(bound, members), bound)
    assert calls == []
