import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from cuntzsum import (
    InputError,
    PrimeSet,
    Scalar,
    SubmonoidView,
    SubsetWindow,
    ZERO_ELEMENT,
    check_biideal_on_generators,
    classify_component_set,
    decompose,
    delta,
    delta_restricted,
    equals,
    generator,
    is_factorial,
    lattice_iso_check,
    quotient_morphism_check,
    subset_window,
    unit,
    window_of,
)


def brute_force_verdict(members, bound):
    """Independent checker written straight from the definitions."""
    members = set(members)
    if not members:
        return "zero"

    def pairs(n):
        return [(m, n // m) for m in range(1, n + 1) if n % m == 0]

    if 1 in members:
        divisor_closed = all(
            m in members and l in members for n in members for m, l in pairs(n)
        )
        product_closed = all(
            a * b in members for a in members for b in members if a * b <= bound
        )
        return "subbialgebra" if divisor_closed and product_closed else "none"
    ideal = all(
        a * s in members for a in range(1, bound + 1) for s in members if a * s <= bound
    )
    prime = all(m in members or l in members for n in members for m, l in pairs(n))
    if ideal and prime:
        return "biideal"
    if ideal:
        return "ideal_only"
    return "none"


class TestClassify:
    def test_even_numbers_are_a_biideal(self):
        result = classify_component_set(subset_window(100, range(2, 101, 2)))
        assert result.verdict == "biideal" and result.witness is None

    def test_powers_of_two_with_unit(self):
        members = [1, 2, 4, 8, 16, 32, 64]
        result = classify_component_set(subset_window(100, members))
        assert result.verdict == "subbialgebra" and result.witness is None

    def test_powers_of_four_counterexample(self):
        result = classify_component_set(subset_window(100, [1, 4, 16, 64]))
        assert result.verdict == "none"
        assert result.witness == (4, 2, 2)

    def test_zero_and_ideal_only(self):
        assert classify_component_set(subset_window(10, [])).verdict == "zero"
        multiples_of_four = subset_window(100, range(4, 101, 4))
        assert classify_component_set(multiples_of_four).verdict == "ideal_only"

    def test_full_window_is_a_subbialgebra(self):
        result = classify_component_set(subset_window(30, range(1, 31)))
        assert result.verdict == "subbialgebra"

    def test_brute_force_agreement_small(self):
        bound = 8
        for size in range(0, bound + 1):
            for members in combinations(range(1, bound + 1), size):
                assert (
                    classify_component_set(subset_window(bound, members)).verdict
                    == brute_force_verdict(members, bound)
                ), members

    def test_none_verdicts_carry_witnesses(self):
        for members in ([2, 3], [1, 2, 3, 5], [5], [1, 6]):
            result = classify_component_set(subset_window(30, members))
            assert result.verdict == "none"
            assert result.witness is not None
            n, m, l = result.witness
            assert m * l == n

    @pytest.mark.parametrize(
        "window, message",
        [
            # the predicates refuse this window; the classifier used to call it a biideal
            (SubsetWindow(10, frozenset({11})), r"members \[11\] outside window 1\.\.10"),
            # a bound past MAX_BOUND used to end in an IndexError from the divisor table
            (SubsetWindow(200_000, frozenset({150_000})), "window bound must be in 1..100000"),
            # a member 0 used to end in a ZeroDivisionError
            (SubsetWindow(10, frozenset({0})), r"members \[0\] outside window 1\.\.10"),
        ],
    )
    def test_a_hand_built_window_is_checked_like_the_predicates_check_it(self, window, message):
        with pytest.raises(InputError, match=message):
            classify_component_set(window)
        with pytest.raises(InputError, match=message):
            is_factorial(window)


class TestBiidealGenerators:
    def test_examples(self):
        assert check_biideal_on_generators(PrimeSet.finite([3]), 2)
        assert check_biideal_on_generators(PrimeSet.finite([]), 5)
        assert check_biideal_on_generators(PrimeSet.finite([2]), 6)

    def test_inside_submonoid_rejected(self):
        with pytest.raises(InputError):
            check_biideal_on_generators(PrimeSet.finite([2]), 4)

    def test_all_small_components(self):
        for primes in ([], [2], [2, 3], [3, 5]):
            prime_set = PrimeSet.finite(primes)
            view = SubmonoidView(prime_set)
            for n in range(1, 25):
                if not view.contains(n):
                    assert check_biideal_on_generators(prime_set, n)


class TestDecompose:
    def test_split_by_membership(self):
        x = generator(2, 1) + generator(3, 1)
        parts = decompose(x, PrimeSet.finite([2]))
        assert parts.subbialgebra_part == generator(2, 1)
        assert parts.biideal_part == generator(3, 1)

    def test_component_one_always_inside(self):
        x = unit(1).scale(Scalar(2, 1))
        for primes in ([], [2], [5, 7]):
            parts = decompose(x, PrimeSet.finite(primes))
            assert parts.subbialgebra_part == x
            assert parts.biideal_part.is_zero()

    def test_zero(self):
        parts = decompose(ZERO_ELEMENT, PrimeSet.finite([2]))
        assert parts.subbialgebra_part.is_zero() and parts.biideal_part.is_zero()

    def test_parts_annihilate(self):
        x = unit(2) + generator(2, 1) + generator(6, 5) + unit(3).scale(2)
        parts = decompose(x, PrimeSet.finite([2]))
        assert equals(parts.subbialgebra_part + parts.biideal_part, x)
        assert (parts.subbialgebra_part * parts.biideal_part).is_zero()
        assert (parts.biideal_part * parts.subbialgebra_part).is_zero()

    def test_inexact_split_raises_under_optimize(self):
        # The exactness checks must not be asserts, which -O strips.
        script = (
            "from cuntzsum import AlgebraElement, PrimeSet, decompose, generator\n"
            "AlgebraElement.restrict = lambda self, keep: AlgebraElement()\n"
            "try:\n"
            "    decompose(generator(2, 1) + generator(3, 1), PrimeSet.finite([2]))\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: decomposition parts do not sum")


class TestQuotientMorphism:
    def test_component_four_keeps_all_terms(self):
        prime_set = PrimeSet.finite([2])
        view = SubmonoidView(prime_set)
        x = generator(4, 1)
        assert quotient_morphism_check(prime_set, x, x)
        # the projected coproduct keeps all three terms: 1, 2, 4 are all
        # inside the generated submonoid
        projected = delta(x).restrict(view.contains)
        assert projected == delta(x)
        assert projected.equals(delta_restricted(view, x))

    def test_empty_prime_set_projects_to_scalars(self):
        prime_set = PrimeSet.finite([])
        x = unit(1).scale(Scalar(3)) + generator(5, 2)
        assert quotient_morphism_check(prime_set, x, generator(2, 1))

    def test_zero(self):
        assert quotient_morphism_check(PrimeSet.finite([2]), ZERO_ELEMENT, ZERO_ELEMENT)

    def test_cofinite(self):
        prime_set = PrimeSet.excluding([2])
        x = generator(6, 1) + unit(3)
        y = generator(9, 2).adjoint()
        assert quotient_morphism_check(prime_set, x, y)


class TestLatticeIso:
    def test_disjoint_primes(self):
        report = lattice_iso_check(PrimeSet.finite([2]), PrimeSet.finite([3]), 100)
        assert report.consistent
        meet = SubmonoidView(PrimeSet.finite([2]).intersection(PrimeSet.finite([3])))
        assert window_of(meet, 100).members == {1}

    def test_equal_sets(self):
        f = PrimeSet.finite([2, 5])
        assert lattice_iso_check(f, f, 50).consistent

    def test_inclusion_and_separation(self):
        f, g = PrimeSet.finite([2]), PrimeSet.finite([2, 5])
        report = lattice_iso_check(f, g, 100)
        assert report.consistent
        separation = [c for c in report.checks if c.name == "separation"][0]
        assert separation.holds
        assert f.separating_prime(g) == 5

    def test_cofinite_pairs(self):
        report = lattice_iso_check(PrimeSet.excluding([2]), PrimeSet.finite([2, 3]), 200)
        assert report.consistent
        report = lattice_iso_check(PrimeSet.excluding([2]), PrimeSet.excluding([3]), 200)
        assert report.consistent

    def test_report_lines(self):
        lines = lattice_iso_check(PrimeSet.finite([2]), PrimeSet.finite([3]), 30).lines()
        assert any("consistent: yes" in line for line in lines)


def test_order_anti_isomorphism_on_chains():
    f = PrimeSet.finite([2])
    g = PrimeSet.finite([2, 3])
    vf, vg = SubmonoidView(f), SubmonoidView(g)
    for n in range(1, 1001):
        if not vg.contains(n):
            assert not vf.contains(n)
