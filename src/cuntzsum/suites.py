"""Seeded, deterministic property suites covering every module invariant.

Each suite draws its own RNG from (seed, suite name), counts the checks
it runs, and reports witnesses for failures.  The runner aggregates the
results; a clean run is the package's definition of done, and the
mutation switches in `cuntzsum.mutations` must each break at least one
suite.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from random import Random

from .algebra import (
    AlgebraElement,
    CuntzMonomial,
    RawWord,
    ZERO_ELEMENT,
    canonical_form,
    coefficient_extract,
    equals,
    from_monomial,
    generator,
    monomial,
    reduce_word,
    reduction_trace,
    unit,
    _accumulate,
    _refinements,
)
from .bialgebra import (
    check_coassociativity,
    check_counit_laws,
    check_hom_property,
    check_wcs_axiom,
    counit,
    delta,
    delta_restricted,
)
from .classify import (
    check_biideal_on_generators,
    classify_component_set,
    decompose,
    lattice_iso_check,
    quotient_morphism_check,
)
from .errors import InputError
from .exprs import (
    deserialize_element,
    parse_element,
    render_element,
    serialize_element,
)
from .monoids import (
    FREE_MONOID_AB,
    MAX_BOUND,
    NATURALS,
    PowerSubmonoid,
    PrimeSet,
    SubmonoidView,
    SubsetWindow,
    complement_duality_check,
    divisor_pairs,
    is_prime,
    prime_factorize,
    primes_up_to,
    subset_window,
    window_of,
)
from .scalars import ONE, Scalar
from .tensors import TensorElement, simple_tensor, tensor_unit


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    bound: int = 1000
    max_component: int = 24
    max_word_len: int = 3
    sample_count: int = 200


@dataclass
class SuiteResult:
    name: str
    checks: int
    failures: list[str]
    seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class SuiteReport:
    config: SuiteConfig
    results: list[SuiteResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "ok  " if r.passed else "FAIL"
            out.append(f"{status} {r.name:<32} checks={r.checks:<6} {r.seconds:.2f}s")
            for witness in r.failures[:5]:
                out.append(f"     witness: {witness}")
            if len(r.failures) > 5:
                out.append(f"     ... and {len(r.failures) - 5} more failures")
        total = sum(r.checks for r in self.results)
        failed = sum(len(r.failures) for r in self.results)
        seconds = sum(r.seconds for r in self.results)
        verdict = "all suites passed" if self.all_passed else "SUITE FAILURES PRESENT"
        out.append(f"{len(self.results)} suites, {total} checks, {failed} failures, {seconds:.2f}s: {verdict}")
        return out


# ---------------------------------------------------------------------------
# Random generators


def _rng(cfg: SuiteConfig, name: str) -> Random:
    return Random(f"{cfg.seed}:{name}")


def random_scalar(rng: Random) -> Scalar:
    while True:
        value = Scalar(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.3 else 0,
        )
        if not value.is_zero():
            return value


def random_monomial(rng: Random, max_n: int, max_len: int) -> CuntzMonomial:
    n = rng.randint(1, max_n)
    total = rng.randint(0, max_len)
    left = rng.randint(0, total)
    mu = tuple(rng.randint(1, n) for _ in range(left))
    nu = tuple(rng.randint(1, n) for _ in range(total - left))
    return monomial(n, mu, nu)


def random_element(rng: Random, max_n: int, max_len: int, max_terms: int = 3) -> AlgebraElement:
    count = rng.randint(1, max_terms)
    terms = ((random_monomial(rng, max_n, max_len), random_scalar(rng)) for _ in range(count))
    return AlgebraElement._raw(_accumulate({}, terms))


def random_element_in(rng: Random, components, max_len: int, max_terms: int = 3) -> AlgebraElement:
    data: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        n = rng.choice(list(components))
        total = rng.randint(0, max_len)
        left = rng.randint(0, total)
        mu = tuple(rng.randint(1, n) for _ in range(left)) if n > 1 else ()
        nu = tuple(rng.randint(1, n) for _ in range(total - left)) if n > 1 else ()
        _accumulate(data, ((monomial(n, mu, nu), random_scalar(rng)),))
    return AlgebraElement._raw(data)


def random_prime_set(rng: Random, cofinite_chance: float = 0.2) -> PrimeSet:
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    chosen = rng.sample(primes, rng.randint(0, 4))
    if rng.random() < cofinite_chance:
        return PrimeSet.excluding(chosen)
    return PrimeSet.finite(chosen)


# ---------------------------------------------------------------------------
# Suites


def _word_products(n, alphabet, max_length):
    """Each word over ``alphabet`` of length <= ``max_length``, in `iproduct`
    order, with its product: the left fold of its letters from unit(n).

    A word's fold is its prefix's fold times one letter, and the word at
    index ``len(alphabet) * i + j`` of a level has prefix ``i`` of the level
    before and last letter ``j``.  So each word costs one product; only the
    level before is kept, and the deepest level is streamed.
    """
    letters = [generator(n, i).adjoint() if starred else generator(n, i) for i, starred in alphabet]
    previous = [unit(n)]
    for length in range(max_length + 1):
        folds = previous if length == 0 else (p * x for p in previous for x in letters)
        current = []
        for pattern, folded in zip(iproduct(alphabet, repeat=length), folds):
            yield pattern, folded
            if length < max_length:
                current.append(folded)
        previous = current


def _suite_rewriting_termination(cfg, rng, fail):
    checks = 0
    alphabet = [(1, False), (1, True), (2, False), (2, True)]
    # the product path: each word's product is its prefix's times one letter
    for pattern, folded in _word_products(2, alphabet, 6):
        word = RawWord(2, pattern)
        trace = reduction_trace(word)
        if any(a - b != 2 for a, b in zip(trace, trace[1:])):
            fail(f"non-shortening step on {pattern}")
        result = reduce_word(word)
        if len(result) > 1 or any(c != ONE for _, c in result.items()):
            fail(f"reduction of {pattern} not a 0/1-coefficient monomial")
        if folded != result:
            fail(f"rewrite and product paths disagree on {pattern}")
        checks += 3
    for n in range(2, 7):
        for _ in range(60):
            length = rng.randint(7, 12)
            pattern = tuple(
                (rng.randint(1, n), rng.random() < 0.5) for _ in range(length)
            )
            trace = reduction_trace(RawWord(n, pattern))
            if any(a - b != 2 for a, b in zip(trace, trace[1:])):
                fail(f"non-shortening step on n={n} word {pattern}")
            checks += 1
    return checks


def _suite_relation_laws(cfg, rng, fail):
    checks = 0
    if not equals(generator(1, 1), unit(1)):
        fail("component 1 generator is not the unit")
    checks += 1
    for n in range(2, 7):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                via_rewrite = reduce_word(RawWord(n, ((i, True), (j, False))))
                via_product = generator(n, i).adjoint() * generator(n, j)
                expected = unit(n) if i == j else ZERO_ELEMENT
                if not equals(via_rewrite, expected):
                    fail(f"rewrite of s({n},{i})^* s({n},{j}) wrong")
                if not equals(via_product, expected):
                    fail(f"product s({n},{i})^* s({n},{j}) wrong")
                checks += 2
        total = ZERO_ELEMENT
        for i in range(1, n + 1):
            total = total + generator(n, i) * generator(n, i).adjoint()
        if not equals(total, unit(n)):
            fail(f"sum of range projections is not the unit in component {n}")
        checks += 1
    return checks


def _suite_star_algebra_laws(cfg, rng, fail):
    checks = 0
    for _ in range(max(20, cfg.sample_count // 4)):
        x = random_element(rng, 6, 2)
        y = random_element(rng, 6, 2)
        z = random_element(rng, 6, 2)
        if not equals((x * y) * z, x * (y * z)):
            fail(f"associativity: {render_element(x)} ; {render_element(y)} ; {render_element(z)}")
        if not equals(x * (y + z), x * y + x * z):
            fail(f"distributivity: {render_element(x)}")
        if not equals((x * y).adjoint(), y.adjoint() * x.adjoint()):
            fail(f"adjoint antimultiplicativity: {render_element(x)}")
        if x.adjoint().adjoint() != x:
            fail(f"involution: {render_element(x)}")
        blown = ZERO_ELEMENT
        for n in sorted(x.support_components()):
            blown = blown + unit(n) * x
        if not equals(blown, x):
            fail(f"component units do not act as identity on {render_element(x)}")
        checks += 5
    if not (generator(2, 1) * generator(3, 1)).is_zero():
        fail("cross-component product is nonzero")
    checks += 1
    return checks


def _expanded_support(diff: AlgebraElement):
    groups: dict[tuple[int, int], list[CuntzMonomial]] = {}
    for mono, _ in diff.items():
        groups.setdefault((mono.n, mono.degree), []).append(mono)
    points = set()
    for (_, _), monos in groups.items():
        level = max(len(m.nu) for m in monos)
        for m in monos:
            for refined in _refinements(m, level):
                points.add(refined)
    return sorted(points, key=lambda m: m.sort_key())


def _suite_oracle_agreement(cfg, rng, fail):
    checks = 0
    for _ in range(max(20, cfg.sample_count // 4)):
        x = random_element(rng, 6, cfg.max_word_len, max_terms=2)
        for y in (canonical_form(x), x + random_element(rng, 6, cfg.max_word_len, max_terms=2)):
            verdict = equals(x, y)
            agree = True
            for point in _expanded_support(x - y):
                cx = coefficient_extract(x, point.n, point.mu, point.nu)
                cy = coefficient_extract(y, point.n, point.mu, point.nu)
                if cx != cy:
                    agree = False
                    break
            if verdict != agree:
                fail(
                    f"equals={verdict} but extract agreement={agree} for "
                    f"{render_element(x)} vs {render_element(y)}"
                )
            checks += 1
    return checks


def _suite_canonical_idempotence(cfg, rng, fail):
    checks = 0
    for _ in range(max(40, cfg.sample_count // 2)):
        x = random_element(rng, 6, cfg.max_word_len)
        cf = canonical_form(x)
        if canonical_form(cf) != cf:
            fail(f"canonical form not idempotent on {render_element(x)}")
        if not equals(x, cf):
            fail(f"canonical form changed the value of {render_element(x)}")
        checks += 2
    return checks


def _coassoc_inputs(cfg, rng):
    for n in range(1, min(24, cfg.max_component) + 1):
        for k in range(1, n + 1):
            yield generator(n, k)
    cap = min(12, cfg.max_component)
    for _ in range(cfg.sample_count):
        yield from_monomial(random_monomial(rng, cap, cfg.max_word_len))


def _suite_coassociativity(cfg, rng, fail):
    checks = 0
    for x in _coassoc_inputs(cfg, rng):
        if not check_coassociativity(x):
            fail(f"coassociativity fails at {render_element(x)}")
        checks += 1
    return checks


def _suite_counit_laws(cfg, rng, fail):
    checks = 0
    for x in _coassoc_inputs(cfg, rng):
        if not check_counit_laws(x):
            fail(f"counit law fails at {render_element(x)}")
        checks += 1
    if counit(generator(2, 1)) != 0:
        fail("counit nonzero on a component-2 generator")
    if counit(unit(1).scale(Scalar(Fraction(3, 2)))) != Scalar(Fraction(3, 2)):
        fail("counit is not the identity on component 1")
    checks += 2
    return checks


def _suite_hom_property(cfg, rng, fail):
    checks = 0
    for n in range(1, cfg.max_component + 1):
        expected = TensorElement()
        for m, l in divisor_pairs(n):
            expected = expected + tensor_unit(m, l)
        if not delta(unit(n)).equals(expected):
            fail(f"coproduct of the unit wrong in component {n}")
        checks += 1
    for _ in range(cfg.sample_count):
        x = random_element(rng, 12, 2, max_terms=2)
        y = random_element(rng, 12, 2, max_terms=2)
        if not check_hom_property(x, y):
            fail(f"hom property fails at {render_element(x)} ; {render_element(y)}")
        checks += 1
    restricted = (
        (SubmonoidView(PrimeSet.finite([2])), (1, 2, 4, 8)),
        (PowerSubmonoid(4), (1, 4, 16)),
    )
    for submonoid, components in restricted:
        for _ in range(25):
            x = random_element_in(rng, components, 2, max_terms=2)
            y = random_element_in(rng, components, 2, max_terms=2)
            if not check_hom_property(x, y, submonoid=submonoid):
                fail(f"restricted hom property fails over {submonoid!r}")
            checks += 1
    return checks


def _suite_non_cocommutativity(cfg, rng, fail):
    d = delta(generator(6, 2))
    if d.swap().equals(d):
        fail("leg swap fixes the coproduct of the second generator of component 6")
    d12 = delta(generator(12, 5))
    if d12.swap().equals(d12):
        fail("leg swap fixes the coproduct of generator 5 of component 12")
    return 2


def _suite_restricted_vs_full(cfg, rng, fail):
    checks = 0
    h = PowerSubmonoid(4)
    x = generator(4, 1)
    two_terms = simple_tensor(unit(1), x) + simple_tensor(x, unit(1))
    three_terms = two_terms + simple_tensor(generator(2, 1), generator(2, 1))
    restricted = delta_restricted(h, x)
    full = delta(x)
    if not restricted.equals(two_terms):
        fail("restricted coproduct of s(4,1) is not the two-term sum")
    if not full.equals(three_terms):
        fail("full coproduct of s(4,1) is not the three-term sum")
    if restricted.equals(full):
        fail("restricted and full coproducts coincide at s(4,1)")
    if not (full - restricted).equals(simple_tensor(generator(2, 1), generator(2, 1))):
        fail("difference is not exactly the middle term")
    checks += 4
    for _ in range(20):
        x = random_element(rng, 8, 2)
        if not delta_restricted(NATURALS, x).equals(delta(x)):
            fail(f"unrestricted coproduct differs from full at {render_element(x)}")
        checks += 1
    try:
        delta_restricted(h, generator(2, 1))
        fail("restricted coproduct accepted support outside the submonoid")
    except InputError:
        pass
    checks += 1
    return checks


def _suite_wcs_axiom(cfg, rng, fail):
    checks = 0
    cap = min(24, cfg.max_component)
    for a in range(1, cap + 1):
        for b in range(1, cap // a + 1):
            for c in range(1, cap // (a * b) + 1):
                n = a * b * c
                if not check_wcs_axiom(a, b, c, unit(n)):
                    fail(f"wcs axiom fails on the unit for ({a},{b},{c})")
                checks += 1
                for _ in range(2):
                    k = rng.randint(1, n)
                    if not check_wcs_axiom(a, b, c, generator(n, k)):
                        fail(f"wcs axiom fails at s({n},{k}) for ({a},{b},{c})")
                    checks += 1
    return checks


def _suite_factorization(cfg, rng, fail):
    checks = 0
    if is_prime(1):
        fail("the unit 1 is reported prime")
    if not (is_prime(2) and is_prime(3) and not is_prime(4)):
        fail("primality test wrong on 2, 3, or 4")
    checks += 2
    for n in range(1, 10001):
        factors = prime_factorize(n)
        value = 1
        for p in factors:
            value *= p
        if value != n:
            fail(f"factor product of {n} is {value}")
        if factors != sorted(factors) or not all(is_prime(p) for p in factors):
            fail(f"bad factor list for {n}: {factors}")
        checks += 1
    return checks


def _suite_generated_submonoids(cfg, rng, fail):
    checks = 0
    fixed = [
        PrimeSet.finite([2]),
        PrimeSet.finite([2, 3]),
        PrimeSet.finite([3, 5, 7]),
        PrimeSet.excluding([2]),
        PrimeSet.excluding([2, 3]),
    ]
    pools = fixed + [random_prime_set(rng, cofinite_chance=0.0) for _ in range(15)]
    for prime_set in pools:
        view = SubmonoidView(prime_set)
        window = window_of(view, cfg.bound)
        report = complement_duality_check(window)
        if len(window.members) < cfg.bound:
            # proper trace: the generated submonoid misses something inside
            # the window, so the factorial-submonoid verdict must hold
            if not report.subset.factorial_submonoid.holds:
                fail(f"{prime_set.describe()} window is not a factorial submonoid")
            if not report.complement.prime_ideal.holds:
                fail(f"{prime_set.describe()} complement is not a prime ideal")
            checks += 2
        if not report.consistent:
            fail(f"duality inconsistent for {prime_set.describe()}")
        checks += 1
    return checks


def _suite_prime_set_lattice(cfg, rng, fail):
    checks = 0
    for _ in range(30):
        f = random_prime_set(rng)
        g = random_prime_set(rng)
        report = lattice_iso_check(f, g, min(cfg.bound, 1000))
        if not report.consistent:
            bad = [c for c in report.checks if not c.holds]
            fail(f"lattice checks fail for {f.describe()} vs {g.describe()}: {bad}")
        checks += len(report.checks)
    return checks


def _duality_windows(bound, rng):
    """The 100 windows of `complement-duality`, built one at a time."""
    for _ in range(34):
        view = SubmonoidView(random_prime_set(rng, cofinite_chance=0.3))
        yield window_of(view, bound)
    universe = frozenset(range(1, bound + 1))
    for _ in range(33):
        view = SubmonoidView(random_prime_set(rng, cofinite_chance=0.3))
        yield subset_window(bound, universe - window_of(view, bound).members)
    yield subset_window(bound, {4**k for k in range(10) if 4**k <= bound})
    for _ in range(32):
        size = rng.randint(0, min(40, bound))
        yield subset_window(bound, rng.sample(range(1, bound + 1), size))


def _suite_complement_duality(cfg, rng, fail):
    checks = 0
    # each window is checked before the next is built, so one is held at a time
    for window in _duality_windows(cfg.bound, rng):
        if not complement_duality_check(window).consistent:
            fail(f"duality broken for window set of size {len(window.members)}")
        checks += 1
    return checks


def _suite_free_monoid_duality(cfg, rng, fail):
    checks = 0
    bound = 6
    universe = FREE_MONOID_AB.elements(bound)
    a_words = {w for w in universe if set(w) <= {"a"}}
    with_b = {w for w in universe if "b" in w}
    contains_ab = {w for w in universe if "ab" in w}
    even = {w for w in universe if len(w) % 2 == 0}
    ab_powers = {"ab" * k for k in range(bound // 2 + 1)}

    def check(members, expect_factorial_submonoid=None, expect_prime_ideal=None, label=""):
        nonlocal checks
        report = complement_duality_check(SubsetWindow(bound, frozenset(members)), FREE_MONOID_AB)
        if not report.consistent:
            fail(f"free-monoid duality broken for {label}")
        if (
            expect_factorial_submonoid is not None
            and report.subset.factorial_submonoid.holds != expect_factorial_submonoid
        ):
            fail(f"{label}: factorial-submonoid verdict unexpected")
        if (
            expect_prime_ideal is not None
            and report.complement.prime_ideal.holds != expect_prime_ideal
        ):
            fail(f"{label}: complement prime-ideal verdict unexpected")
        checks += 1

    check(a_words, True, True, "words over the single letter a")
    check(with_b, False, None, "words containing b")
    check(contains_ab, False, None, "words containing the factor ab")
    check(even, False, None, "even-length words")
    check(ab_powers, False, None, "powers of ab")
    for _ in range(10):
        size = rng.randint(0, len(universe))
        check(rng.sample(universe, size), label="random subset")
    return checks


def _suite_order_structure(cfg, rng, fail):
    checks = 0
    bound = max(min(cfg.bound, 500), 4)
    everything_but_one = subset_window(bound, range(2, bound + 1))
    from .monoids import is_ideal, is_prime_subset

    if not (is_prime_subset(everything_but_one).holds and is_ideal(everything_but_one).holds):
        fail("the complement of the unit is not a prime ideal")
    checks += 1
    for p in primes_up_to(min(31, bound)):
        multiples = subset_window(bound, range(p, bound + 1, p))
        if not (is_prime_subset(multiples).holds and is_ideal(multiples).holds):
            fail(f"multiples of {p} do not form a prime ideal (p={p})")
        if not multiples.members <= everything_but_one.members:
            fail(f"prime ideal of {p} not inside the maximal one")
        others = window_of(SubmonoidView(PrimeSet.excluding([p])), bound).members
        if set(range(1, bound + 1)) - others != multiples.members:
            fail(f"multiples of {p} differ from the generated-complement trace")
        checks += 3
    return checks


def _suite_classifier_soundness(cfg, rng, fail):
    checks = 0
    cap = min(24, cfg.max_component)
    prime_sets = [
        PrimeSet.finite([]),
        PrimeSet.finite([2]),
        PrimeSet.finite([2, 3]),
        PrimeSet.finite([3, 5]),
        PrimeSet.excluding([2]),
    ]
    for prime_set in prime_sets:
        view = SubmonoidView(prime_set)
        members = window_of(view, cap).members
        inside, outside = sorted(members), sorted(set(range(1, cap + 1)) - members)
        for n in outside:
            if not check_biideal_on_generators(prime_set, n):
                fail(f"biideal generator check fails for {prime_set.describe()} at {n}")
            checks += 1
        for n in inside:
            for k in range(1, n + 1):
                for (left, right), _ in delta(generator(n, k)).items():
                    if not (view.contains(left.n) and view.contains(right.n)):
                        fail(
                            f"coproduct leg escapes {prime_set.describe()} at s({n},{k})"
                        )
            checks += 1
        verdict = classify_component_set(subset_window(cap, inside)).verdict
        if verdict != "subbialgebra":
            fail(f"window of [{prime_set.describe()}] classified {verdict}")
        if outside:
            verdict = classify_component_set(subset_window(cap, outside)).verdict
            if verdict != "biideal":
                fail(f"window complement of [{prime_set.describe()}] classified {verdict}")
        checks += 2
    return checks


def _suite_decomposition(cfg, rng, fail):
    checks = 0
    prime_sets = [
        PrimeSet.finite([]),
        PrimeSet.finite([2]),
        PrimeSet.finite([2, 3]),
        PrimeSet.excluding([2]),
    ]
    for i in range(cfg.sample_count):
        x = random_element(rng, 12, 2, max_terms=4)
        prime_set = prime_sets[i % len(prime_sets)]
        parts = decompose(x, prime_set)
        if not equals(parts.subbialgebra_part + parts.biideal_part, x):
            fail(f"parts do not sum to the input for {prime_set.describe()}")
        if parts.subbialgebra_part.support_components() & parts.biideal_part.support_components():
            fail("part supports overlap")
        if not (parts.subbialgebra_part * parts.biideal_part).is_zero():
            fail("left-right part product nonzero")
        if not (parts.biideal_part * parts.subbialgebra_part).is_zero():
            fail("right-left part product nonzero")
        checks += 4
    return checks


def _suite_quotient_morphism(cfg, rng, fail):
    checks = 0
    prime_sets = [
        PrimeSet.finite([]),
        PrimeSet.finite([2]),
        PrimeSet.finite([2, 3]),
        PrimeSet.excluding([2]),
    ]
    for prime_set in prime_sets:
        for _ in range(max(10, cfg.sample_count // 8)):
            x = random_element(rng, 12, 2, max_terms=2)
            y = random_element(rng, 12, 2, max_terms=2)
            if not quotient_morphism_check(prime_set, x, y):
                fail(f"projection onto [{prime_set.describe()}] not a morphism")
            checks += 1
    return checks


def _suite_order_anti_isomorphism(cfg, rng, fail):
    checks = 0
    bound = min(cfg.bound, 1000)
    for _ in range(15):
        f = random_prime_set(rng, cofinite_chance=0.0)
        extra = [p for p in (2, 3, 5, 7, 11, 13) if not f.contains(p)]
        if not extra:
            continue
        g = f.union(PrimeSet.finite(rng.sample(extra, rng.randint(1, len(extra)))))
        escapes = window_of(SubmonoidView(f), bound).members - window_of(SubmonoidView(g), bound).members
        if escapes:
            fail(f"complement of [{g.describe()}] escapes that of [{f.describe()}] at {min(escapes)}")
        checks += 1
    return checks


def _suite_window_counterexample(cfg, rng, fail):
    checks = 0
    powers = [4**k for k in range(4)]
    result = classify_component_set(subset_window(100, powers))
    if result.verdict != "none":
        fail(f"powers-of-4 window classified {result.verdict}")
    if result.witness != (4, 2, 2):
        fail(f"powers-of-4 witness is {result.witness}")
    checks += 2
    legs = {(l.n, r.n) for (l, r), _ in delta(generator(4, 1)).items()}
    if (2, 2) not in legs:
        fail("coproduct of s(4,1) lost its middle component pair")
    checks += 1
    return checks


def _suite_parser_roundtrip(cfg, rng, fail):
    checks = 0
    for _ in range(cfg.sample_count * 5):
        x = random_element(rng, 8, 2, max_terms=3)
        text = render_element(x)
        back = parse_element(text)
        if not equals(back, x):
            fail(f"text round trip changed the value of {text}")
        if render_element(back) != text:
            fail(f"re-rendering is not byte-stable for {text}")
        wire = serialize_element(x)
        if deserialize_element(wire) != canonical_form(x):
            fail(f"wire round trip changed {text}")
        checks += 3
    gnarly = [
        ("s(2,1)^* * s(2,2)", ZERO_ELEMENT),
        ("[1/2] * I(2) + [1/2] * (s(2,1)*s(2,1)^* + s(2,2)*s(2,2)^*)", unit(2)),
        ("(s(2,1) + s(2,2))^*", generator(2, 1).adjoint() + generator(2, 2).adjoint()),
        ("[0-1i] * I(1)", unit(1).scale(Scalar(0, -1))),
        ("s(1,1)", unit(1)),
        ("0", ZERO_ELEMENT),
    ]
    for text, expected in gnarly:
        if not equals(parse_element(text), expected):
            fail(f"fixed expression {text!r} parsed to the wrong value")
        checks += 1
    return checks


_SUITES = (
    ("rewriting-termination", _suite_rewriting_termination),
    ("relation-laws", _suite_relation_laws),
    ("star-algebra-laws", _suite_star_algebra_laws),
    ("oracle-agreement", _suite_oracle_agreement),
    ("canonical-idempotence", _suite_canonical_idempotence),
    ("coassociativity", _suite_coassociativity),
    ("counit-laws", _suite_counit_laws),
    ("hom-property", _suite_hom_property),
    ("non-cocommutativity", _suite_non_cocommutativity),
    ("restricted-vs-full-coproduct", _suite_restricted_vs_full),
    ("wcs-axiom", _suite_wcs_axiom),
    ("factorization", _suite_factorization),
    ("generated-submonoids-factorial", _suite_generated_submonoids),
    ("prime-set-lattice", _suite_prime_set_lattice),
    ("complement-duality", _suite_complement_duality),
    ("free-monoid-duality", _suite_free_monoid_duality),
    ("order-structure", _suite_order_structure),
    ("classifier-soundness", _suite_classifier_soundness),
    ("decomposition-exactness", _suite_decomposition),
    ("quotient-morphism", _suite_quotient_morphism),
    ("order-anti-isomorphism", _suite_order_anti_isomorphism),
    ("window-counterexample", _suite_window_counterexample),
    ("parser-roundtrip", _suite_parser_roundtrip),
)


SUITE_NAMES = tuple(name for name, _ in _SUITES)


# Largest suite knobs `run_property_suite` accepts.  `sample_count` scales
# most suites linearly and `max_component` the units whose coproduct
# `hom-property` checks; `max_word_len` bounds the words of the random
# elements, and the dense oracle of `oracle-agreement` costs up to
# 6^(max_word_len / 2) points per term (at 100 one run exhausted memory).
# `cuntzsum suite --samples 1000 --max-component 1000 --max-word-len 10`
# takes 1.2-2.2 s in a fresh process on two processes (shared 2-CPU Xeon;
# 3.5 s on one); with `--bound 100000` as well, every knob at its limit,
# 8.5-12.5 s (10.6 s on one), 7 s or more of it in `complement-duality`,
# which holds one window of up to 10^5 members at a time: the process that
# runs it peaks at 62-66 MB, the other at 51-55 MB (a forked worker's peak
# counts the pages it inherits).
MAX_SUITE_SAMPLES = 1000
MAX_SUITE_COMPONENT = 1000
MAX_SUITE_WORD_LEN = 10

_KNOB_RANGES = (
    ("bound", 1, MAX_BOUND),
    ("max_component", 1, MAX_SUITE_COMPONENT),
    ("max_word_len", 0, MAX_SUITE_WORD_LEN),
    ("sample_count", 0, MAX_SUITE_SAMPLES),
)


# The suites that take the most time at the default config, heaviest
# first, with their share of a one-process run (median of seeds 0-5); each
# of the others takes under 3 %.  The runner hands these out first, so
# that the last suite any process takes is a short one.
_HEAVIEST_SUITES = (
    "parser-roundtrip",       # 32 %
    "rewriting-termination",  # 15 %
    "complement-duality",     # 9 %
    "hom-property",           # 8 %
    "factorization",          # 7 %
    "coassociativity",        # 6 %
    "classifier-soundness",   # 6 %
    "counit-laws",            # 3 %
)

# Most processes `run_property_suite` splits the suites across, the caller
# included.  `parser-roundtrip` alone is 32 % of a default run, so no split
# ends before it does, and three processes already share the other 68 %
# in about that time: a fourth cannot help.  Two processes take a default
# run from 0.61-0.96 s to 0.40-0.49 s in process (seeds 0-5, 2-CPU Xeon),
# and the bench's `suite-default` batch to about 0.35 s.
MAX_SUITE_PROCESSES = 3

# Seconds a stopped worker gets to exit before it is killed.
_WORKER_STOP_S = 5.0


def _usable_cpus() -> int:
    """The number of CPUs this process may run on; asked only where `_fork_is_safe`, so on Linux."""
    return len(os.sched_getaffinity(0))


def _run_suite(cfg, name, func):
    failures: list[str] = []
    start = time.perf_counter()
    checks = func(cfg, _rng(cfg, name), failures.append)
    return SuiteResult(name, checks, failures, time.perf_counter() - start)


def _outcome(cfg, index):
    """`_run_suite`'s result for the suite at ``index``, or the exception raised."""
    try:
        return _run_suite(cfg, *_SUITES[index])
    except Exception as exc:
        return exc


def _claims(tasks):
    """Declared suite indexes read from the shared task pipe, one byte each.

    A one-byte read from a pipe is atomic, so every process reading the
    same pipe gets each index at most once, and no lock is held that a
    killed process could leave taken.  The pipe is filled and its write
    end closed before any process reads, so an empty read means every
    suite has been handed out.
    """
    while byte := os.read(tasks.fileno(), 1):
        yield byte[0]


def _fork_is_safe() -> bool:
    """Whether suite workers may be forked: on Linux, from a process whose
    only thread is the caller's.

    A forked child holds the forking thread alone, so a lock that any
    other thread held at the fork would stay taken in the child for good.
    Linux lists every thread of the process in `/proc/self/task`, those
    that `threading` does not know of too; elsewhere the listing fails.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _suite_worker(cfg, tasks, results):
    """A forked worker: run the suites it claims and send back each outcome.

    The fork hands it the caller's imported package, suite table and
    mutation switches.  It sends back ``(index, outcome)`` pairs, the
    outcome being `_run_suite`'s result or the exception raised.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller takes an interrupt and stops its workers
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # `terminate()` ends it at once, whatever the caller's handler
    with tasks, results:
        for index in _claims(tasks):
            results.send((index, _outcome(cfg, index)))


def _run_suites(cfg: SuiteConfig, processes: int) -> list[SuiteResult]:
    """The result of every suite in declared order, claimed heaviest first
    from one task pipe by this process and ``processes - 1`` forked workers.

    With one process nothing is forked and `multiprocessing` is not
    imported.  An exception raised by a suite in any process is re-raised
    here once every suite is done, the earliest-declared first; a suite
    that a dead worker never reported raises `RuntimeError`.  No worker
    outlives the call, whether it returns or raises.
    """
    names = tuple(name for name, _ in _SUITES)
    heavy = [names.index(name) for name in _HEAVIEST_SUITES if name in names]
    order = heavy + [index for index in range(len(names)) if index not in heavy]
    outcomes: dict = {}
    workers, readers = [], []
    read_end, write_end = os.pipe()
    tasks = open(read_end, "rb", buffering=0)
    try:
        with open(write_end, "wb", buffering=0) as feed:
            feed.write(bytes(order))
        if processes > 1:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            for _ in range(processes - 1):
                reader, writer = ctx.Pipe(duplex=False)
                readers.append(reader)
                with writer:  # once started, the worker holds the only write end
                    worker = ctx.Process(target=_suite_worker, args=(cfg, tasks, writer))
                    worker.start()
                workers.append(worker)
        for index in _claims(tasks):
            outcomes[index] = _outcome(cfg, index)
        # a worker's pipe reads end-of-file once the worker has exited; no
        # worker waits on another, so reading the pipes in turn cannot stall
        for reader in readers:
            while len(outcomes) < len(names):
                try:
                    index, outcome = reader.recv()
                except (EOFError, OSError):
                    break
                outcomes[index] = outcome
    finally:
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join(_WORKER_STOP_S)
            if worker.exitcode is None:
                worker.kill()
                worker.join()
        for conn in (tasks, *readers):
            conn.close()
    for index, name in enumerate(names):
        outcome = outcomes.get(index)
        if outcome is None:
            codes = ", ".join(str(worker.exitcode) for worker in workers)
            raise RuntimeError(f"suite {name} was never reported: a worker exited early (exit codes {codes})")
        if isinstance(outcome, BaseException):
            raise outcome
    return [outcomes[index] for index in range(len(names))]


def run_property_suite(cfg: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Run every suite, in this process and up to `MAX_SUITE_PROCESSES` - 1
    forked workers, one per further CPU this process may use.

    The report lists the suites in declared order, whichever process ran
    them.  With one CPU or one suite, off Linux, or while another thread
    is alive, no process is started and this process claims every suite.
    """
    # every lower limit is checked before any upper one, all before the first suite runs
    for name, least, _ in _KNOB_RANGES:
        value = getattr(cfg, name)
        if value < least:
            raise InputError(f"suite {name} must be >= {least}, got {value}")
    for name, _, most in _KNOB_RANGES:
        value = getattr(cfg, name)
        if value > most:
            raise InputError(f"suite {name} must be <= {most}, got {value}")
    processes = min(MAX_SUITE_PROCESSES, _usable_cpus(), len(_SUITES)) if _fork_is_safe() else 1
    return SuiteReport(cfg, _run_suites(cfg, processes))
