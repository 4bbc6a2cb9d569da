"""Acceptance gate: one test per criterion, zero tolerance, timed budgets.

Every check here is exact (integer/rational identities); each test prints
one PASS/FAIL line with its runtime against the stated budget.

Criterion 10 uses s(6,2) as its non-cocommutativity witness: every
component-splitting embedding sends a first generator to the pair of
first generators, so the coproduct of s(n,1) is swap-symmetric for every
n, and a witness needs a generator index >= 2.
"""

import time
from itertools import combinations
from random import Random

import pytest

from test_classify import brute_force_verdict

from cuntzsum import (
    FREE_MONOID_AB,
    PowerSubmonoid,
    PrimeSet,
    SubmonoidView,
    SubsetWindow,
    check_coassociativity,
    check_counit_laws,
    check_hom_property,
    check_wcs_axiom,
    classify_component_set,
    complement_duality_check,
    decompose,
    delta,
    delta_restricted,
    divisor_pairs,
    equals,
    from_monomial,
    generator,
    lattice_iso_check,
    monomial,
    mutations,
    run_property_suite,
    subset_window,
    tensor_unit,
    unit,
    window_of,
)
from cuntzsum.cli import main
from cuntzsum.suites import SuiteConfig
from cuntzsum.tensors import TensorElement


class _Gate:
    def __init__(self, number, name, budget_seconds):
        self.label = f"ACCEPTANCE {number:>2} {name}"
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.label}: {status} ({elapsed:.2f}s, budget {self.budget}s)", flush=True)
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded its {self.budget}s budget"
        return False


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _random_word(rng, max_n=12, max_len=3):
    n = rng.randint(1, max_n)
    total = rng.randint(0, max_len)
    left = rng.randint(0, total)
    mu = tuple(rng.randint(1, n) for _ in range(left))
    nu = tuple(rng.randint(1, n) for _ in range(total - left))
    return from_monomial(monomial(n, mu, nu))


def _random_element(rng, max_n=12, max_len=2, max_terms=3):
    out = _random_word(rng, max_n, max_len)
    for _ in range(rng.randint(0, max_terms - 1)):
        out = out + _random_word(rng, max_n, max_len)
    return out


def test_criterion_01_golden_coproduct(capsys):
    with _Gate(1, "golden coproduct of s(4,1)", 1.0):
        code, out = _cli(capsys, "delta", "s(4,1)")
        assert code == 0
        assert out == (
            "(I(1)) ⊗ (s(4,1)) + (s(2,1)) ⊗ (s(2,1)) + (s(4,1)) ⊗ (I(1))\n"
        )


def test_criterion_02_golden_restricted_coproduct(capsys):
    with _Gate(2, "restricted coproduct over powers of 4", 1.0):
        code, out = _cli(capsys, "deltaH", "--primes-powers", "4", "s(4,1)")
        assert code == 0
        assert out == "(I(1)) ⊗ (s(4,1)) + (s(4,1)) ⊗ (I(1))\n"
        # the suite asserts the restricted and full coproducts differ here
        from cuntzsum.suites import _rng, _suite_restricted_vs_full

        cfg = SuiteConfig()
        failures = []
        checks = _suite_restricted_vs_full(
            cfg, _rng(cfg, "restricted-vs-full-coproduct"), failures.append
        )
        assert checks >= 4 and not failures, failures
        assert not delta_restricted(PowerSubmonoid(4), generator(4, 1)).equals(
            delta(generator(4, 1))
        )


def test_criterion_03_bialgebra_axioms():
    with _Gate(3, "coassociativity and counit laws", 60.0):
        failures = []
        for n in range(1, 25):
            for k in range(1, n + 1):
                x = generator(n, k)
                if not check_coassociativity(x):
                    failures.append(f"coassoc s({n},{k})")
                if not check_counit_laws(x):
                    failures.append(f"counit s({n},{k})")
        rng = Random(33)
        for _ in range(200):
            x = _random_word(rng, max_n=12, max_len=3)
            if not check_coassociativity(x):
                failures.append(f"coassoc {x!r}")
            if not check_counit_laws(x):
                failures.append(f"counit {x!r}")
        assert not failures, failures[:5]


def test_criterion_04_homomorphism_property():
    with _Gate(4, "coproduct is a *-homomorphism", 60.0):
        failures = []
        for n in range(1, 25):
            expected = TensorElement()
            for m, l in divisor_pairs(n):
                expected = expected + tensor_unit(m, l)
            if not delta(unit(n)).equals(expected):
                failures.append(f"unit coproduct at {n}")
        rng = Random(44)
        for _ in range(200):
            x = _random_element(rng)
            y = _random_element(rng)
            if not check_hom_property(x, y):
                failures.append(f"pair {x!r} ; {y!r}")
        assert not failures, failures[:5]


def test_criterion_05_wcs_axiom():
    with _Gate(5, "component-splitting axiom", 30.0):
        failures = []
        for a in range(1, 25):
            for b in range(1, 24 // a + 1):
                for c in range(1, 24 // (a * b) + 1):
                    n = a * b * c
                    if not check_wcs_axiom(a, b, c, unit(n)):
                        failures.append(f"unit ({a},{b},{c})")
                    for k in range(1, n + 1):
                        if not check_wcs_axiom(a, b, c, generator(n, k)):
                            failures.append(f"s({n},{k}) ({a},{b},{c})")
        assert not failures, failures[:5]


def test_criterion_06_classification_against_brute_force():
    with _Gate(6, "classifier agrees with brute force", 30.0):
        bound = 12
        for size in range(0, bound + 1):
            for members in combinations(range(1, bound + 1), size):
                got = classify_component_set(subset_window(bound, members)).verdict
                want = brute_force_verdict(members, bound)
                assert got == want, (members, got, want)
        # generated-closure hints at a larger bound
        for primes in ([], [2], [2, 3], [3], [5, 7]):
            view = SubmonoidView(PrimeSet.finite(primes))
            inside = window_of(view, 100)
            outside = subset_window(
                100, frozenset(range(1, 101)) - inside.members
            )
            assert (
                classify_component_set(inside).verdict
                == brute_force_verdict(inside.members, 100)
                == "subbialgebra"
            )
            if outside.members:
                assert (
                    classify_component_set(outside).verdict
                    == brute_force_verdict(outside.members, 100)
                    == "biideal"
                )
        result = classify_component_set(subset_window(100, [1, 4, 16, 64]))
        assert result.verdict == "none" and result.witness == (4, 2, 2)


def test_criterion_07_duality_facts():
    with _Gate(7, "complement duality on both backends", 30.0):
        rng = Random(77)
        failures = []
        checked = 0
        while checked < 100:
            style = checked % 4
            if style == 0:
                view = SubmonoidView(
                    PrimeSet.finite(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 3)))
                )
                window = window_of(view, 1000)
            elif style == 1:
                view = SubmonoidView(
                    PrimeSet.finite(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 3)))
                )
                members = frozenset(n for n in range(1, 1001) if not view.contains(n))
                window = subset_window(1000, members)
            elif style == 2:
                size = rng.randint(0, 50)
                window = subset_window(1000, rng.sample(range(1, 1001), size))
            else:
                base = rng.choice([2, 3, 4, 5, 6])
                window = subset_window(
                    1000, [base**k for k in range(10) if base**k <= 1000]
                )
            if not complement_duality_check(window).consistent:
                failures.append(f"window style {style} seed state {checked}")
            checked += 1
        universe = FREE_MONOID_AB.elements(6)
        free_sets = [
            {w for w in universe if set(w) <= {"a"}},
            {w for w in universe if "b" in w},
            {w for w in universe if "ab" in w},
            {w for w in universe if len(w) % 2 == 0},
            {"ab" * k for k in range(4)},
        ]
        for _ in range(20):
            free_sets.append(set(rng.sample(universe, rng.randint(0, len(universe)))))
        for members in free_sets:
            if not complement_duality_check(SubsetWindow(6, frozenset(members)), FREE_MONOID_AB).consistent:
                failures.append(f"free monoid set of size {len(members)}")
        assert not failures, failures[:5]


def test_criterion_08_decomposition():
    with _Gate(8, "direct-sum decomposition", 30.0):
        prime_sets = [
            PrimeSet.finite([]),
            PrimeSet.finite([2]),
            PrimeSet.finite([2, 3]),
            PrimeSet.excluding([2]),
        ]
        rng = Random(88)
        for i in range(200):
            x = _random_element(rng, max_terms=4)
            prime_set = prime_sets[i % 4]
            parts = decompose(x, prime_set)
            assert equals(parts.subbialgebra_part + parts.biideal_part, x)
            assert not (
                parts.subbialgebra_part.support_components()
                & parts.biideal_part.support_components()
            )
            assert (parts.subbialgebra_part * parts.biideal_part).is_zero()
            assert (parts.biideal_part * parts.subbialgebra_part).is_zero()


def test_criterion_09_lattice_isomorphism():
    with _Gate(9, "prime-set lattice semantics", 30.0):
        rng = Random(99)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        for _ in range(50):
            f = PrimeSet.finite(rng.sample(primes, rng.randint(0, 4)))
            g = PrimeSet.finite(rng.sample(primes, rng.randint(0, 4)))
            report = lattice_iso_check(f, g, 1000)
            assert report.consistent, (f.describe(), g.describe(), report.lines())


def test_criterion_10_non_cocommutativity_as_stated(capsys):
    with _Gate(10, "leg swap moves the coproduct of s(6,2)", 1.0):
        code, out = _cli(capsys, "delta", "s(6,2)")
        assert code == 0
        # swapping the legs turns s(2,1) ⊗ s(3,2) into s(3,2) ⊗ s(2,1), but
        # the (3,2) slot holds only s(3,1) ⊗ s(2,2), and s(3,1), s(3,2) are
        # linearly independent (s_i^* s_j = δ_ij)
        assert out == (
            "(I(1)) ⊗ (s(6,2)) + (s(2,1)) ⊗ (s(3,2)) + "
            "(s(3,1)) ⊗ (s(2,2)) + (s(6,2)) ⊗ (I(1))\n"
        )
        d = delta(generator(6, 2))
        assert not d.swap().equals(d), (
            "the leg swap fixes the coproduct of s(6,2), yet it should move "
            "s(2,1) ⊗ s(3,2) to s(3,2) ⊗ s(2,1), which the coproduct does not contain"
        )


def test_criterion_11_mutation_sensitivity():
    with _Gate(11, "mutation sensitivity of the suites", 120.0):
        for mutation in mutations.ALL_MUTATIONS:
            with mutations.enabled(mutation):
                report = run_property_suite(SuiteConfig())
            failing = [r for r in report.results if not r.passed]
            assert failing, f"mutation {mutation} went undetected"
            assert all(r.failures for r in failing)
        report = run_property_suite(SuiteConfig())
        assert report.all_passed, "baseline suites must be green"
        # the default report's suites and check counts, pinned: a change to either is a change to the report
        assert [(r.name, r.checks) for r in report.results] == [
            ("rewriting-termination", 16683), ("relation-laws", 186), ("star-algebra-laws", 251),
            ("oracle-agreement", 100), ("canonical-idempotence", 200), ("coassociativity", 500),
            ("counit-laws", 502), ("hom-property", 274), ("non-cocommutativity", 2),
            ("restricted-vs-full-coproduct", 25), ("wcs-axiom", 609), ("factorization", 10002),
            ("generated-submonoids-factorial", 60), ("prime-set-lattice", 120), ("complement-duality", 100),
            ("free-monoid-duality", 15), ("order-structure", 34), ("classifier-soundness", 130),
            ("decomposition-exactness", 800), ("quotient-morphism", 100), ("order-anti-isomorphism", 15),
            ("window-counterexample", 3), ("parser-roundtrip", 3006),
        ]
        assert sum(r.checks for r in report.results) == 33717
