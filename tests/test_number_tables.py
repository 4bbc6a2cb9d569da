"""Factorization and divisor pairs against plain trial division: for
every small n, every n the smallest-prime-factor table covers, a sample
up to MAX_BOUND, around each power of two up to it and past it; the
table and the window layer built from eight threads at once; the prime
sieve; and the biideal check against its per-term form."""

import sys
import threading
import types
from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzsum import classify, monoids, mutations
from cuntzsum.algebra import generator, monomial, unit
from cuntzsum.classify import check_biideal_on_generators, classify_component_set, lattice_iso_check
from cuntzsum.cli import main
from cuntzsum.errors import InputError
from cuntzsum.monoids import (
    MAX_BOUND,
    PrimeSet,
    SubmonoidView,
    divisor_pairs,
    divisor_triple_count,
    is_factorial,
    is_ideal,
    is_prime,
    is_prime_subset,
    is_subsemigroup,
    prime_factorize,
    primes_up_to,
    subset_window,
    window_of,
)

PRIME_SETS = [
    PrimeSet.finite([]),
    PrimeSet.finite([2]),
    PrimeSet.finite([2, 3]),
    PrimeSet.finite([3, 5, 7]),
    PrimeSet.finite([11, 9091]),
    PrimeSet.excluding([2]),
    PrimeSet.excluding([3, 7]),
    PrimeSet.all_primes(),
]


def trial_factors(n):
    factors, d = [], 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    return factors + [n] if n > 1 else factors


def trial_pairs(n):
    divisors = sorted({d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})
    return [(m, n // m) for m in divisors]


def assert_matches_trial_division(n):
    factors = trial_factors(n)
    assert prime_factorize(n) == factors, n
    assert is_prime(n) == (factors == [n]), n
    for prime_set in PRIME_SETS:
        assert SubmonoidView(prime_set).contains(n) == all(prime_set.contains(p) for p in factors), (n, prime_set)


TABLE_SIZE = 1 << 16


def test_every_n_the_table_covers_matches_trial_division():
    for n in [*range(1, TABLE_SIZE), TABLE_SIZE, TABLE_SIZE + 1]:
        factors = trial_factors(n)
        assert prime_factorize(n) == factors, n
        assert is_prime(n) == (factors == [n]), n


def run_from_eight_threads(work):
    """``work(k)`` for k in 0..7, each in its own thread, with a 1 us switch interval; their results in order."""
    found, errors = [None] * 8, []

    def worker(k):
        try:
            found[k] = work(k)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return found


@pytest.mark.parametrize("round_", range(4))
def test_table_built_from_eight_threads_equals_a_serial_build(monkeypatch, round_):
    monkeypatch.setattr(monoids, "_smallest_factors", None)
    serial = monoids._factor_table()
    assert len(serial) == TABLE_SIZE
    monkeypatch.setattr(monoids, "_smallest_factors", None)
    start = threading.Barrier(8)

    def work(k):
        start.wait(timeout=60)
        # a copy of the table as this thread gets it, so a table published before it is whole shows
        return bytes(monoids._factor_table())

    tables = run_from_eight_threads(work)
    assert all(table == serial for table in tables)
    assert monoids._smallest_factors == serial


def test_divisor_pairs_are_a_new_list_each_call():
    for n in (1, 12, 2520, 55440, TABLE_SIZE - 1, TABLE_SIZE, 963761198400):
        first = divisor_pairs(n)
        assert first == trial_pairs(n) and first is not divisor_pairs(n)
        first.clear()
        assert divisor_pairs(n) == trial_pairs(n)
    assert len(divisor_pairs(55440)) == 120  # the most divisors of any n below 2^16


def test_primes_up_to_matches_trial_division_and_factors_nothing():
    every_prime = [n for n in range(2, MAX_BOUND + 1) if trial_factors(n) == [n]]
    before = monoids._trial_factors.cache_info()
    for bound in range(0, 2001):
        assert primes_up_to(bound) == [p for p in every_prime if p <= bound], bound
    assert primes_up_to(MAX_BOUND) == every_prime
    assert monoids._trial_factors.cache_info() == before
    assert primes_up_to(-3) == []
    with mutations.only(mutations.ONE_IS_PRIME):
        assert primes_up_to(1) == [1] and primes_up_to(10) == [1, 2, 3, 5, 7]
    with pytest.raises(InputError, match="primes_up_to requires bound <= 100000, got 100001"):
        primes_up_to(MAX_BOUND + 1)


def biideal_per_term(prime_set, n):
    """`check_biideal_on_generators` as it was: membership asked for both legs of every coproduct term."""
    view = SubmonoidView(prime_set)
    if view.contains(n):
        raise InputError(f"component {n} lies inside the generated submonoid")
    for x in [unit(n)] + [generator(n, i) for i in range(1, n + 1)]:
        if classify.counit(x) != 0:
            return False
        for (left, right), _ in classify.delta(x).items():
            if view.contains(left.n) and view.contains(right.n):
                return False
    return True


# the prime sets of the classifier-soundness suite
SOUNDNESS_PRIME_SETS = [
    PrimeSet.finite([]),
    PrimeSet.finite([2]),
    PrimeSet.finite([2, 3]),
    PrimeSet.finite([3, 5]),
    PrimeSet.excluding([2]),
]


def test_biideal_check_asks_each_divisor_once_and_agrees_with_the_per_term_check(monkeypatch):
    asked = Counter()

    def counting(view, n, original=SubmonoidView.contains):
        asked[n] += 1
        return original(view, n)

    for prime_set in SOUNDNESS_PRIME_SETS:
        for n in range(1, 61):
            if SubmonoidView(prime_set).contains(n):
                continue
            expected = biideal_per_term(prime_set, n)
            asked.clear()
            with monkeypatch.context() as patch:
                patch.setattr(SubmonoidView, "contains", counting)
                assert check_biideal_on_generators(prime_set, n) == expected, (prime_set, n)
            assert sum(asked.values()) <= len(trial_pairs(n)) + 1, (prime_set, n)


@pytest.mark.parametrize("legs", [(2, 4), (8, 16)])
def test_biideal_check_fails_with_the_per_term_check(monkeypatch, legs):
    # a coproduct that put I(a) (x) I(b), both inside the submonoid of primes:2, into component 12 would
    # leave the biideal on its complement, whether or not a and b divide 12
    def leaky_delta(x, original=classify.delta):
        extra = [((monomial(legs[0]), monomial(legs[1])), 1)] if x.support_components() == {12} else []
        return types.SimpleNamespace(items=lambda: [*original(x).items(), *extra])

    monkeypatch.setattr(classify, "delta", leaky_delta)
    prime_set = PrimeSet.finite([2])
    assert biideal_per_term(prime_set, 12) is False
    assert check_biideal_on_generators(prime_set, 12) is False
    assert check_biideal_on_generators(prime_set, 7) is biideal_per_term(prime_set, 7) is True


def test_every_small_n_matches_trial_division():
    for n in range(1, 5001):
        assert_matches_trial_division(n)
        assert divisor_pairs(n) == trial_pairs(n), n


@settings(max_examples=300, deadline=None)
@given(st.integers(1, MAX_BOUND))
def test_factorization_up_to_max_bound_matches_trial_division(n):
    assert_matches_trial_division(n)


def test_powers_of_two_and_past_max_bound():
    sizes, size = [], 64
    while size <= MAX_BOUND:
        sizes.append(size)
        size *= 2
    probes = sorted({n for s in sizes for n in (s - 1, s, s + 1)} | {MAX_BOUND - 1, MAX_BOUND, MAX_BOUND + 1})
    for n in probes:
        assert_matches_trial_division(n)
        assert divisor_pairs(n) == trial_pairs(n), n
    # MAX_BOUND + 1 = 11 * 9091; 98280 has 128 divisors
    assert prime_factorize(MAX_BOUND + 1) == [11, 9091]
    assert divisor_pairs(98280) == trial_pairs(98280)


@pytest.mark.parametrize("n", [1, 2, 12, 720720, 963761198400, 999999999989])
def test_divisor_triple_count(n):
    assert divisor_triple_count(n) == sum(len(divisor_pairs(l)) for _, l in divisor_pairs(n))


# 999983**2 is a prime square: its root is the last divisor the loop may try
@pytest.mark.parametrize("n", [10**12, 963761198400, 999999999989, 2 * 499999999979, 999983**2])
def test_large_n_matches_trial_division(n):
    assert n > MAX_BOUND
    assert prime_factorize(n) == trial_factors(n)
    assert divisor_pairs(n) == trial_pairs(n)


def test_coassoc_trial_divides_each_large_component_once(capsys, monkeypatch):
    primes = (100003, 100019, 100043)
    memo = monoids._trial_factors
    memo.cache_clear()
    asked = Counter()

    def counting(n):
        asked[n] += 1
        return memo(n)

    monkeypatch.setattr(monoids, "_trial_factors", counting)
    assert main(["coassoc", " + ".join(f"I({p})" for p in primes)]) == 0
    assert capsys.readouterr().out == "true\n"
    # the triple count and the divisor pairs both ask about each p ...
    assert all(asked[p] >= 2 for p in primes), asked
    # ... and each distinct n asked about was trial-divided once
    assert memo.cache_info().misses == len(asked)


@pytest.mark.parametrize("round_", range(4))
def test_window_layer_from_eight_threads_agrees_with_one_thread(round_):
    bounds = [5000, 37, 1500, 64, 65, 3000, 129, 700]
    # each prime set is paired with the next for the lattice check
    pairs = zip(PRIME_SETS, PRIME_SETS[1:] + PRIME_SETS[:1])
    jobs = [(prime_set, other, bound) for prime_set, other in pairs for bound in bounds]

    def result(job):
        prime_set, other, bound = job
        window = window_of(SubmonoidView(prime_set), bound)
        complement = subset_window(bound, set(range(1, bound + 1)) - window.members)
        return window, lattice_iso_check(prime_set, other, bound), [
            (is_subsemigroup(w), is_ideal(w), is_factorial(w), is_prime_subset(w), classify_component_set(w))
            for w in (window, complement)
        ]

    expected = [result(job) for job in jobs]

    def work(k):
        # each thread starts at its own offset, so the threads run different jobs at once
        order = list(range(k, len(jobs))) + list(range(k))
        got = {i: result(jobs[i]) for i in order}
        return [got[i] for i in range(len(jobs))]

    assert all(found == expected for found in run_from_eight_threads(work))
