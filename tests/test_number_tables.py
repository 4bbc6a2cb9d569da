"""Factorization and divisor pairs against plain trial division: for
every small n, a sample up to MAX_BOUND, around each power of two up to
it and past it; and the window layer run from eight threads at once."""

import sys
import threading
from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzsum import monoids
from cuntzsum.classify import classify_component_set, lattice_iso_check
from cuntzsum.cli import main
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
    found = [None] * 8
    errors = []

    def worker(k):
        try:
            # each thread starts at its own offset, so the threads run different jobs at once
            order = list(range(k, len(jobs))) + list(range(k))
            got = {i: result(jobs[i]) for i in order}
            found[k] = [got[i] for i in range(len(jobs))]
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
    assert all(result == expected for result in found)
