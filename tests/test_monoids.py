import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cuntzsum import (
    FREE_MONOID_AB,
    NATURALS,
    InputError,
    PowerSubmonoid,
    PrimeSet,
    SubmonoidView,
    SubsetWindow,
    classify_component_set,
    complement_duality_check,
    divisor_pairs,
    is_factorial,
    is_ideal,
    is_prime,
    is_prime_subset,
    is_subsemigroup,
    prime_factorize,
    submonoid_member,
    subset_window,
    window_of,
)
from cuntzsum import monoids, mutations
from cuntzsum.monoids import MAX_BOUND, MAX_WORD_LENGTH, PredicateResult, next_prime_after

# Every entry that takes an (N, *) window as a bound and its members.
WINDOW_ENTRIES = {
    "subset_window": subset_window,
    **{
        func.__name__: lambda bound, members, func=func: func(SubsetWindow(bound, members))
        for func in (is_subsemigroup, is_ideal, is_factorial, is_prime_subset,
                     classify_component_set, complement_duality_check)
    },
}

# Every entry that reads one number, by the name its error gives.
NUMBER_ENTRIES = {
    "a prime set": lambda n: PrimeSet.finite([2, n]),
    "a power submonoid": PowerSubmonoid,
    "prime_factorize": prime_factorize,
    "divisor_pairs": divisor_pairs,
    "is_prime": is_prime,
    "membership": lambda n: submonoid_member(NATURALS, n),
}


class _Three:
    def __index__(self):
        return 3


@pytest.mark.parametrize("caller", NUMBER_ENTRIES)
def test_non_integers_are_refused_not_truncated(caller):
    entry = NUMBER_ENTRIES[caller]
    for value in (12.0, 2.9, "3", Fraction(4), None):
        with pytest.raises(InputError, match=f"^{caller} requires an integer, got {re.escape(repr(value))}$"):
            entry(value)
    # a number is read through operator.index, as a window's members are
    assert entry(_Three()) == entry(3)


class TestFactorization:
    def test_examples(self):
        assert prime_factorize(12) == [2, 2, 3]
        assert prime_factorize(1) == []
        assert prime_factorize(97) == [97]
        # trial-division oracle for the primality of 97
        assert all(97 % d for d in range(2, 97))

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            prime_factorize(0)

    def test_soundness_range(self):
        for n in range(1, 10001):
            factors = prime_factorize(n)
            product = 1
            for p in factors:
                product *= p
            assert product == n
            assert factors == sorted(factors)
            assert all(is_prime(p) for p in factors)

    def test_factorization_limit(self):
        from cuntzsum.monoids import MAX_FACTOR

        assert is_prime(999999999989)  # the largest prime below the limit
        assert divisor_pairs(MAX_FACTOR)[-1] == (MAX_FACTOR, 1)
        # primality and membership factor through prime_factorize's gate and say so
        message = "prime_factorize requires n <= 1000000000000, got 1000000000001"
        for func in (prime_factorize, is_prime, NATURALS.contains, lambda n: submonoid_member(NATURALS, n)):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                func(MAX_FACTOR + 1)
        message = "divisor_pairs requires n <= 1000000000000, got 1000000000001"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            divisor_pairs(MAX_FACTOR + 1)

    def test_unit_is_not_prime(self):
        assert not is_prime(1)
        assert is_prime(2)
        assert not is_prime(0)
        assert not is_prime(-7)
        assert next_prime_after(31) == 37
        with mutations.enabled(mutations.ONE_IS_PRIME):
            assert is_prime(1)
            assert not is_prime(0) and not is_prime(-7)


class TestFactorPairs:
    def test_naturals(self):
        assert divisor_pairs(6) == [(1, 6), (2, 3), (3, 2), (6, 1)]
        assert divisor_pairs(1) == [(1, 1)]
        assert divisor_pairs(12)[0] == (1, 12)

    def test_free_monoid_prefix_splits(self):
        assert FREE_MONOID_AB.factor_pairs("ab") == [("", "ab"), ("a", "b"), ("ab", "")]


class TestPrimeSet:
    def test_validation(self):
        with pytest.raises(InputError, match="^4 is not prime$"):
            PrimeSet.finite([4])
        with pytest.raises(InputError):
            PrimeSet.finite([1])

    def test_immutable(self):
        f = PrimeSet.finite([2, 3])
        with pytest.raises(AttributeError):
            f.primes = frozenset([5])
        with pytest.raises(AttributeError):
            f.cofinite = True
        assert f == PrimeSet.finite([2, 3])

    def test_equal_sets_hash_equal(self):
        # any iterable of ints, in any order, normalises to one value
        f, g = PrimeSet.finite([3, 2, 3]), PrimeSet((2, 3))
        assert f == g and hash(f) == hash(g)
        assert len({f, g, PrimeSet.excluding([2, 3])}) == 2

    def test_contains(self):
        f = PrimeSet.finite([2, 3])
        assert f.contains(2) and not f.contains(5)
        cof = PrimeSet.excluding([2])
        assert not cof.contains(2) and cof.contains(7)

    def test_mode_arithmetic(self):
        f = PrimeSet.finite([2, 3])
        g = PrimeSet.excluding([2])
        assert g.intersection(f) == PrimeSet.finite([3])
        assert f.union(g) == PrimeSet.excluding([])
        assert PrimeSet.finite([2]).union(PrimeSet.finite([3])) == PrimeSet.finite([2, 3])
        assert PrimeSet.finite([2, 3]).intersection(PrimeSet.finite([3, 5])) == PrimeSet.finite([3])
        assert PrimeSet.excluding([2]).intersection(PrimeSet.excluding([3])) == PrimeSet.excluding([2, 3])
        assert PrimeSet.excluding([2, 3]).union(PrimeSet.excluding([3, 5])) == PrimeSet.excluding([3])

    def test_union_and_intersection_recheck_no_prime(self, monkeypatch):
        f, g = PrimeSet.finite([2, 3, 7, 97]), PrimeSet.excluding([3, 5])
        calls = []

        def counting(n, original=monoids.is_prime):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(monoids, "is_prime", counting)
        results = [op(x, y) for x in (f, g) for y in (f, g) for op in (PrimeSet.union, PrimeSet.intersection)]
        assert calls == []
        # the unchecked results equal the validated sets of the same primes
        rebuilt = [PrimeSet(r.primes, r.cofinite) for r in results]
        assert results == rebuilt and list(map(hash, results)) == list(map(hash, rebuilt))
        assert calls
        assert f.union(g) == PrimeSet.excluding([5]) and f.intersection(g) == PrimeSet.finite([2, 7, 97])

    def test_meet_verified_by_membership(self):
        g = PrimeSet.excluding([2])
        f = PrimeSet.finite([2, 3])
        meet = g.intersection(f)
        vg, vf, vm = SubmonoidView(g), SubmonoidView(f), SubmonoidView(meet)
        for n in range(1, 101):
            assert vm.contains(n) == (vg.contains(n) and vf.contains(n))

    def test_subset_and_separation(self):
        assert PrimeSet.finite([2]).issubset(PrimeSet.finite([2, 5]))
        assert PrimeSet.finite([3]).issubset(PrimeSet.excluding([2]))
        assert not PrimeSet.excluding([2]).issubset(PrimeSet.finite([2, 3]))
        assert PrimeSet.excluding([2, 3]).issubset(PrimeSet.excluding([3]))
        assert not PrimeSet.excluding([3]).issubset(PrimeSet.excluding([2, 3]))
        assert PrimeSet.finite([2]).separating_prime(PrimeSet.finite([2, 5])) == 5
        assert PrimeSet.finite([2]).separating_prime(PrimeSet.finite([2])) is None
        # finite vs cofinite always differ, beyond the listed primes if needed
        p = PrimeSet.finite([2, 3]).separating_prime(PrimeSet.excluding([]))
        assert p == 5


class TestSubmonoidMembership:
    def test_examples(self):
        view = SubmonoidView(PrimeSet.finite([2, 3]))
        assert submonoid_member(view, 12)
        assert not submonoid_member(view, 10)
        assert submonoid_member(view, 1)
        assert submonoid_member(SubmonoidView(PrimeSet.finite([])), 1)

    def test_power_submonoid(self):
        h = PowerSubmonoid(4)
        assert [n for n in range(1, 70) if h.contains(n)] == [1, 4, 16, 64]
        with pytest.raises(InputError, match=r"^power submonoid needs base >= 2, got 1$"):
            PowerSubmonoid(1)

    def test_views_are_immutable_values(self):
        view = SubmonoidView(PrimeSet.finite([2]))
        with pytest.raises(AttributeError):
            view.generator_set = PrimeSet.finite([3])
        h = PowerSubmonoid(4)
        with pytest.raises(AttributeError):
            h.base = 2
        assert view.contains(8) and h.contains(16)
        same = SubmonoidView(PrimeSet.finite([2]))
        assert view == same and hash(view) == hash(same)
        assert len({view, same, SubmonoidView(PrimeSet.finite([3]))}) == 2
        assert PowerSubmonoid(4) == h and PowerSubmonoid(2) != h
        assert len({h, PowerSubmonoid(4), PowerSubmonoid(2)}) == 2

    def test_input_validation(self):
        with pytest.raises(InputError):
            submonoid_member(SubmonoidView(PrimeSet.finite([2])), 0)


class TestWindowPredicates:
    def test_even_numbers(self):
        evens = subset_window(100, range(2, 101, 2))
        assert is_prime_subset(evens).holds
        assert is_ideal(evens).holds

    def test_powers_of_four_not_factorial(self):
        powers = subset_window(256, [1, 4, 16, 64, 256])
        res = is_factorial(powers)
        assert not res.holds
        assert res.witness == (4, 2, 2)

    def test_full_window_not_factorial(self):
        full = subset_window(50, range(1, 51))
        res = is_factorial(full)
        assert not res.holds and res.witness == ("improper",)

    def test_subsemigroup_witness(self):
        res = is_subsemigroup(subset_window(10, [2, 3]))
        assert not res.holds and res.witness == (4, 2, 2)

    def test_window_validation(self):
        with pytest.raises(InputError):
            subset_window(10, [11])

    @pytest.mark.parametrize("predicate", [is_subsemigroup, is_ideal, is_factorial, is_prime_subset])
    @pytest.mark.parametrize(
        "bound, members, message",
        [(3, {1, 2, 5}, "outside window"), (10, {1, 1000}, "outside window"),
         (10, {0, 2}, "outside window"), (MAX_BOUND + 1, {2}, "window bound"), (0, {1}, "window bound")],
    )
    def test_directly_built_window_outside_its_bound_rejected(self, predicate, bound, members, message):
        with pytest.raises(InputError, match=message):
            predicate(SubsetWindow(bound, frozenset(members)))

    @pytest.mark.parametrize("entry", WINDOW_ENTRIES)
    @pytest.mark.parametrize(
        "members", [frozenset({2.5}), frozenset({2, "4"}), frozenset({None, 3}), [2.5, "3", True]],
        ids=["float", "str", "None", "mixed-list"],
    )
    def test_non_integer_members_rejected(self, entry, members):
        with pytest.raises(InputError, match="are not integers$"):
            WINDOW_ENTRIES[entry](10, members)

    @pytest.mark.parametrize("entry", WINDOW_ENTRIES)
    def test_members_are_what_operator_index_accepts_each_counted_once(self, entry):
        call = WINDOW_ENTRIES[entry]
        with pytest.raises(InputError, match=r"^members \['3', 2\.5\] are not integers$"):
            call(10, [2.5, "3", True])
        # a repeated member is one member, so {1, 2} in 1..3 is proper; True is the integer 1
        assert call(3, [1, 1, 2]) == call(3, [True, 2]) == call(3, frozenset({1, 2}))

    def test_a_repeated_member_leaves_the_set_proper(self):
        # three members listed in a window of three, but only two distinct: not ("improper",)
        assert is_factorial(SubsetWindow(3, [1, 1, 2])) == PredicateResult(True, None)


class TestComplementDuality:
    def test_members_outside_the_window_rejected(self):
        # over (N, *) the window's members pass the same check as in `subset_window`
        with pytest.raises(InputError, match=r"^members \[2000\] outside window 1\.\.10$"):
            complement_duality_check(SubsetWindow(10, frozenset({2, 2000})))
        with pytest.raises(InputError, match="outside the window"):
            complement_duality_check(SubsetWindow(2, frozenset({"aaa"})), FREE_MONOID_AB)
        with pytest.raises(InputError, match="window bound"):
            complement_duality_check(SubsetWindow(MAX_BOUND + 1, frozenset({2})))

    def test_free_monoid_word_length_limit(self):
        # 2^41 words would be listed at length 40; the limit rejects it before any listing
        with pytest.raises(InputError, match=f"^window bound must be in 1..{MAX_WORD_LENGTH}, got 40$"):
            complement_duality_check(SubsetWindow(40, frozenset()), FREE_MONOID_AB)
        report = complement_duality_check(SubsetWindow(MAX_WORD_LENGTH, frozenset()), FREE_MONOID_AB)
        assert report.subset.prime == PredicateResult(False, ("empty",))
        assert report.complement.prime == PredicateResult(False, ("improper",))

    def test_generated_submonoid(self):
        view = SubmonoidView(PrimeSet.finite([2]))
        report = complement_duality_check(window_of(view, 200))
        assert report.subset.factorial_submonoid.holds
        assert report.complement.prime_ideal.holds
        assert report.consistent

    def test_even_complement_is_factorial(self):
        evens = subset_window(200, range(2, 201, 2))
        report = complement_duality_check(evens)
        assert report.subset.proper_ideal.holds
        assert report.complement.factorial.holds
        assert report.complement.factorial_submonoid.holds
        assert report.consistent

    def test_powers_of_four_fail_both_sides(self):
        powers = subset_window(200, [1, 4, 16, 64])
        report = complement_duality_check(powers)
        assert not report.subset.factorial_submonoid.holds
        assert report.subset.factorial.witness == (4, 2, 2)
        assert not report.complement.prime_ideal.holds
        assert report.complement.proper_ideal.witness is not None
        assert report.consistent  # both sides fail, so the pairing is consistent

    def test_report_lines(self):
        report = complement_duality_check(subset_window(20, [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]))
        lines = report.lines()
        assert any("duality consistent: yes" in line for line in lines)


class TestFreeMonoidBackend:
    def test_letter_submonoid_duality(self):
        universe = FREE_MONOID_AB.elements(5)
        a_words = {w for w in universe if set(w) <= {"a"}}
        report = complement_duality_check(SubsetWindow(5, frozenset(a_words)), FREE_MONOID_AB)
        assert report.subset.factorial_submonoid.holds
        assert report.complement.prime_ideal.holds
        assert report.consistent

    def test_even_length_words(self):
        universe = FREE_MONOID_AB.elements(5)
        even = {w for w in universe if len(w) % 2 == 0}
        report = complement_duality_check(SubsetWindow(5, frozenset(even)), FREE_MONOID_AB)
        assert report.subset.proper_subsemigroup.holds
        assert report.complement.prime.holds
        assert not report.subset.factorial.holds
        assert report.consistent

    def test_elements_enumeration(self):
        assert len(FREE_MONOID_AB.elements(3)) == 1 + 2 + 4 + 8

    def test_left_ideal_is_not_two_sided(self):
        # words ending in b absorb every left factor but not a right one:
        # the witness puts the member b on the left of the product
        ending_in_b = {w for w in FREE_MONOID_AB.elements(4) if w.endswith("b")}
        assert FREE_MONOID_AB._check_ideal(ending_in_b, 4) == PredicateResult(False, ("ba", "b", "a"))

    def test_unit_laws_on_sampled_elements(self):
        monoid = FREE_MONOID_AB
        for a in ["", "a", "ab", "bba"]:
            assert monoid.op(monoid.unit, a) == a
            assert monoid.op(a, monoid.unit) == a
            assert (monoid.unit, a) in monoid.factor_pairs(a)
            assert (a, monoid.unit) in monoid.factor_pairs(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.sets(st.integers(1, 60)))
def test_duality_consistent_for_arbitrary_windows(bound, members):
    members = {m for m in members if m <= bound}
    report = complement_duality_check(subset_window(bound, members))
    assert report.consistent


@settings(max_examples=30, deadline=None)
@given(st.sets(st.sampled_from([2, 3, 5, 7, 11]), max_size=3))
def test_generated_submonoids_are_factorial(primes):
    view = SubmonoidView(PrimeSet.finite(primes))
    window = window_of(view, 150)
    report = complement_duality_check(window)
    assert report.subset.factorial_submonoid.holds
    assert report.complement.prime_ideal.holds
    assert report.consistent
