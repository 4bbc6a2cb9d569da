"""Differential tests of the shared window predicates and the set-based
lattice check against the per-n reference loops in `window_reference`,
and a check of every search's ``(product, left, right)`` witness in both
monoid backends."""

from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import window_reference as ref
from cuntzsum import (
    FREE_MONOID_AB,
    PrimeSet,
    SubmonoidView,
    SubsetWindow,
    classify_component_set,
    is_factorial,
    is_ideal,
    is_prime_subset,
    is_subsemigroup,
    lattice_iso_check,
    subset_window,
    window_of,
)
from cuntzsum.monoids import NATURALS_MONOID, _check_factorial, _check_ideal, _check_prime, _check_subsemigroup

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
def free_windows(draw, max_bound=4):
    """A window of the free monoid on {a, b}: words of length <= bound."""
    bound = draw(st.integers(0, max_bound))
    members = draw(st.sets(st.sampled_from(FREE_MONOID_AB.elements(bound))))
    if draw(st.booleans()):
        members.add(FREE_MONOID_AB.unit)
    return SubsetWindow(bound, frozenset(members))


# What each search's witness (p, l, r) must show about the member set S.
_WITNESS_CONDITIONS = {
    _check_subsemigroup: lambda S, p, l, r: l in S and r in S and p not in S,
    _check_ideal: lambda S, p, l, r: (l in S or r in S) and p not in S,
    _check_factorial: lambda S, p, l, r: p in S and not (l in S and r in S),
    _check_prime: lambda S, p, l, r: p in S and l not in S and r not in S,
}


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    windows().map(lambda window: (NATURALS_MONOID, window)),
    free_windows().map(lambda window: (FREE_MONOID_AB, window)),
))
def test_every_search_witness_is_product_left_right(case):
    monoid, window = case
    members = set(window.members)
    assume(members)  # the searches assume a nonempty member set
    for search, condition in _WITNESS_CONDITIONS.items():
        result = search(monoid, members, window.bound)
        if result.holds:
            continue
        p, l, r = result.witness
        assert p == monoid.op(l, r), search.__name__
        assert monoid.size(p) <= window.bound, search.__name__
        assert condition(members, p, l, r), search.__name__


@settings(max_examples=400, deadline=None)
@given(windows())
def test_classify_matches_reference(window):
    assert classify_component_set(window) == ref.classify_component_set(window)


@settings(max_examples=300, deadline=None)
@given(windows())
def test_predicates_match_reference(window):
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


@settings(max_examples=150, deadline=None)
@given(prime_sets(), prime_sets(), st.integers(1, 300))
def test_lattice_check_matches_reference(f, g, bound):
    assert lattice_iso_check(f, g, bound) == ref.lattice_iso_check(f, g, bound)


def _random_pairs(count=12):
    rng = Random(4)
    draw = lambda: PrimeSet(rng.sample(PRIMES, rng.randint(0, 3)), cofinite=rng.random() < 0.3)
    return [(draw(), draw(), rng.randint(1, 120)) for _ in range(count)]


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
    for f, g, bound in _random_pairs():
        report = lattice_iso_check(f, g, bound)
        assert report == ref.lattice_iso_check(f, g, bound), (f, g, bound)
        failing += not report.consistent
    assert failing, "the sabotage broke no check, so the comparison shows nothing"


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
