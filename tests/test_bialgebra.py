import functools
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import elements, scalars
from cuntzsum import (
    AlgebraElement,
    CuntzMonomial,
    InputError,
    PowerSubmonoid,
    NATURALS,
    Scalar,
    TensorElement,
    TripleTensorElement,
    ZERO_ELEMENT,
    check_coassociativity,
    check_counit_laws,
    check_hom_property,
    check_wcs_axiom,
    counit,
    counit_contract_left,
    counit_contract_right,
    delta,
    delta_restricted,
    equals,
    from_monomial,
    generator,
    monomial,
    parse_element,
    phi,
    simple_tensor,
    tensor_unit,
    unit,
)
from cuntzsum import bialgebra
from cuntzsum.bialgebra import lift_left, lift_right


def ordered_triples(n):
    """Brute-force enumeration of ordered 3-factorizations of n."""
    return [
        (a, b, c)
        for a in range(1, n + 1)
        if n % a == 0
        for b in range(1, n + 1)
        if (n // a) % b == 0
        for c in [n // (a * b)]
    ]


class TestPhi:
    def test_letter_splitting(self):
        # the third generator of component 4 splits as (2, 1) under (2, 2)
        got = phi(2, 2, generator(4, 3))
        assert got == simple_tensor(generator(2, 2), generator(2, 1))

    def test_left_unit_embedding(self):
        x = generator(5, 3) + unit(5).scale(2)
        assert phi(1, 5, x) == simple_tensor(unit(1), x)
        assert phi(5, 1, x) == simple_tensor(x, unit(1))

    def test_star_preservation(self):
        got = phi(2, 2, generator(4, 3).adjoint())
        assert got == simple_tensor(
            generator(2, 2).adjoint(), generator(2, 1).adjoint()
        )

    def test_multiplicative_on_words(self):
        x = from_monomial(monomial(6, (2, 5), (3,)))
        left = phi(2, 3, x)
        factors = phi(2, 3, generator(6, 2)) * phi(2, 3, generator(6, 5)) * phi(
            2, 3, generator(6, 3)
        ).adjoint()
        assert left == factors

    def test_unit_maps_to_unit_pair(self):
        assert phi(2, 3, unit(6)) == tensor_unit(2, 3)

    def test_support_validation(self):
        with pytest.raises(InputError):
            phi(2, 2, generator(6, 1))


PHI_PAIRS = [(n, m) for n in range(1, 25) for m in range(1, 24 // n + 1)]


def mixed_radix_halves(mono, n, m):
    """The halves of ``mono`` in components (n, m), built by splitting each letter,
    a - 1 = m*(i - 1) + (j - 1), and validating each half through `monomial`,
    which collapses component 1."""
    mu = [divmod(a - 1, m) for a in mono.mu]
    nu = [divmod(a - 1, m) for a in mono.nu]
    left = monomial(n, [q + 1 for q, _ in mu], [q + 1 for q, _ in nu])
    right = monomial(m, [r + 1 for _, r in mu], [r + 1 for _, r in nu])
    return left, right


def letter_by_letter_phi(n, m, x):
    """phi's term map built from `mixed_radix_halves`."""
    return {mixed_radix_halves(mono, n, m): c for mono, c in x.items()}


@st.composite
def phi_cases(draw):
    n, m = draw(st.sampled_from(PHI_PAIRS))
    word = st.lists(st.integers(1, n * m), max_size=3)
    terms = draw(st.lists(st.tuples(word, word, scalars(nonzero=True)), max_size=3))
    return n, m, AlgebraElement({monomial(n * m, mu, nu): c for mu, nu, c in terms})


@given(phi_cases())
@settings(max_examples=300, deadline=None)
def test_phi_matches_the_letter_by_letter_split(case):
    n, m, x = case
    assert dict(phi(n, m, x).items()) == letter_by_letter_phi(n, m, x)


def test_phi_matches_the_letter_by_letter_split_on_every_short_word():
    for n, m in PHI_PAIRS:
        letters = range(1, n * m + 1)
        words = [()] + [(a,) for a in letters] + [(a, b) for a in letters for b in (1, m, n * m)]
        x = AlgebraElement({monomial(n * m, mu, nu): 1 for mu in words for nu in words[: n * m + 1]})
        assert dict(phi(n, m, x).items()) == letter_by_letter_phi(n, m, x), (n, m)


def assert_splits_like_the_oracle(mono, n, m):
    """`_split_monomial` builds its halves without the `CuntzMonomial`
    constructor, so each must be exactly a `CuntzMonomial` of ints too."""
    halves = bialgebra._split_monomial(mono, n, m)
    assert halves == mixed_radix_halves(mono, n, m), (mono, n, m)
    for half in halves:
        assert type(half) is CuntzMonomial
        assert type(half.mu) is tuple and type(half.nu) is tuple
        assert all(type(v) is int for v in (half.n, *half.mu, *half.nu)), half


def test_split_kernel_matches_the_oracle_on_every_short_word():
    """Every (n, m) with n*m <= 36; every word of length at most 2 as mu
    and as nu, beside the empty word, its reverse and itself."""
    for n, m in [(n, m) for n in range(1, 37) for m in range(1, 36 // n + 1)]:
        letters = range(1, n * m + 1)
        words = [()] + [(a,) for a in letters] + [(a, b) for a in letters for b in letters]
        for w in words:
            for mu, nu in ((w, ()), ((), w), (w, w[::-1]), (w, w)):
                assert_splits_like_the_oracle(monomial(n * m, mu, nu), n, m)


@st.composite
def large_splits(draw):
    """A component n*m up to 10^12, either factor possibly 1, and a monomial
    whose letters favour the edges of the letter blocks."""
    factor = st.one_of(st.just(1), st.integers(1, 10**6))
    n, m = draw(factor), draw(factor)
    N = n * m
    letter = st.one_of(st.integers(1, N), st.sampled_from([1, m, min(m + 1, N), N - m + 1, N]))
    word = st.lists(letter, max_size=3).map(tuple)
    return draw(word), draw(word), n, m


@given(large_splits())
@settings(max_examples=300, deadline=None)
def test_split_kernel_matches_the_oracle_on_large_components(case):
    mu, nu, n, m = case
    assert_splits_like_the_oracle(monomial(n * m, mu, nu), n, m)


@pytest.mark.parametrize("N", [2520, 12612600])
def test_phi_matches_the_letter_by_letter_split_on_large_components(N):
    """Every divisor pair (n, m) of N, with (1, N) and (N, 1), on words at the
    edges of each letter block; a component-1 half is `monomial(1)`."""
    unit_half = monomial(1)
    for n, m in bialgebra.divisor_pairs(N):
        letters = sorted({1, m, min(m + 1, N), N // 2, N - m + 1, N})
        words = [()] + [(a,) for a in letters] + [(letters[1], letters[-1]), (N, 1, m)]
        x = AlgebraElement({monomial(N, mu, nu): 1 for mu in words for nu in words})
        split = dict(phi(n, m, x).items())
        assert split == letter_by_letter_phi(n, m, x), (n, m)
        for left, right in split:
            if n == 1:
                assert left == unit_half
            if m == 1:
                assert right == unit_half


class TestDelta:
    def test_divisor_sum_on_generator(self):
        x = generator(4, 1)
        expected = (
            simple_tensor(unit(1), x)
            + simple_tensor(generator(2, 1), generator(2, 1))
            + simple_tensor(x, unit(1))
        )
        assert delta(x) == expected

    def test_unit_coproduct_over_divisors(self):
        expected = TensorElement()
        for m, l in ((1, 6), (2, 3), (3, 2), (6, 1)):
            expected = expected + tensor_unit(m, l)
        assert delta(unit(6)) == expected

    def test_linear_and_zero(self):
        assert delta(ZERO_ELEMENT).is_zero()
        x, y = generator(2, 1), unit(3)
        assert delta(x + y) == delta(x) + delta(y)


class TestDeltaRestricted:
    def test_powers_of_four(self):
        h = PowerSubmonoid(4)
        x = generator(4, 1)
        expected = simple_tensor(unit(1), x) + simple_tensor(x, unit(1))
        assert delta_restricted(h, x) == expected
        assert not delta_restricted(h, x).equals(delta(x))
        assert (delta(x) - delta_restricted(h, x)).equals(
            simple_tensor(generator(2, 1), generator(2, 1))
        )

    def test_unrestricted_matches_full(self):
        for x in (generator(8, 3), unit(12), generator(6, 2) + unit(2)):
            assert delta_restricted(NATURALS, x) == delta(x)

    def test_powers_of_two_on_component_eight(self):
        from cuntzsum import PrimeSet, SubmonoidView

        h = SubmonoidView(PrimeSet.finite([2]))
        x = generator(8, 1)
        # all four divisor pairs of 8 survive: every divisor is a power of 2
        assert len(delta_restricted(h, x)) == 4
        assert delta_restricted(h, x) == delta(x)

    def test_support_validation(self):
        with pytest.raises(InputError):
            delta_restricted(PowerSubmonoid(4), generator(2, 1))

    def test_mixed_support_names_the_smallest_outside_component(self):
        with pytest.raises(InputError, match="^component 2 lies outside the submonoid$"):
            delta_restricted(PowerSubmonoid(4), unit(4) + unit(2) + unit(8))
        with pytest.raises(InputError, match="^component 8 lies outside the submonoid$"):
            delta_restricted(PowerSubmonoid(4), unit(4) + unit(8) + unit(16))


class TestCounit:
    def test_values(self):
        assert counit(generator(2, 1)) == Scalar(0)
        lam = Scalar(Fraction(2, 3), 1)
        assert counit(unit(1).scale(lam)) == lam

    def test_linearity(self):
        x = unit(1).scale(2) + generator(3, 1)
        y = unit(1).scale(Scalar(0, 1))
        assert counit(x + y) == counit(x) + counit(y)


class TestTensorOps:
    def test_unit_legs(self):
        u = tensor_unit(2, 3)
        v = simple_tensor(generator(2, 1), unit(3))
        assert u * v == v

    def test_cross_component_annihilation(self):
        u = simple_tensor(generator(2, 1), unit(1))
        v = simple_tensor(unit(1), generator(2, 1))
        assert (u * v).is_zero()

    def test_divisor_pairs_of_two(self):
        expected = tensor_unit(1, 2) + tensor_unit(2, 1)
        assert delta(unit(2)).equals(expected)

    def test_graded_tensor_equality(self):
        # per-leg expansion: I_2 (x) I_2 equals the sum of its refinements
        spread = TensorElement()
        for i in (1, 2):
            for j in (1, 2):
                spread = spread + simple_tensor(
                    from_monomial(monomial(2, (i,), (i,))),
                    from_monomial(monomial(2, (j,), (j,))),
                )
        assert tensor_unit(2, 2).equals(spread)

    def test_adjoint_legwise(self):
        u = simple_tensor(generator(2, 1), generator(3, 2)).scale(Scalar(0, 1))
        expected = simple_tensor(
            generator(2, 1).adjoint(), generator(3, 2).adjoint()
        ).scale(Scalar(0, -1))
        assert u.adjoint() == expected


class TestLiftsAndContractions:
    def test_counit_contractions_recover_element(self):
        x = generator(4, 1)
        assert counit_contract_left(delta(x)) == x
        assert counit_contract_right(delta(x)) == x

    def test_lift_left_on_scalars(self):
        u = tensor_unit(1, 1)
        got = lift_left(delta, u)
        expected = TripleTensorElement(
            {(monomial(1), monomial(1), monomial(1)): Scalar(1)}
        )
        assert got == expected

    def test_scalar_absorption(self):
        u = simple_tensor(unit(1).scale(Scalar(Fraction(1, 2))), generator(3, 2))
        assert counit_contract_left(u) == generator(3, 2).scale(Fraction(1, 2))


class TestCoassociativity:
    def test_generator_of_component_four(self):
        x = generator(4, 1)
        lhs = lift_left(delta, delta(x))
        # brute-force oracle: one triple term per ordered 3-factorization
        expected = TripleTensorElement(
            {
                (
                    monomial(a, (1,) if a > 1 else ()),
                    monomial(b, (1,) if b > 1 else ()),
                    monomial(c, (1,) if c > 1 else ()),
                ): Scalar(1)
                for (a, b, c) in ordered_triples(4)
            }
        )
        assert len(ordered_triples(4)) == 6
        assert lhs == expected
        assert check_coassociativity(x)

    def test_unit_of_component_twelve(self):
        x = unit(12)
        expected = TripleTensorElement(
            {
                (monomial(a), monomial(b), monomial(c)): Scalar(1)
                for (a, b, c) in ordered_triples(12)
            }
        )
        assert lift_left(delta, delta(x)) == expected
        assert lift_right(delta, delta(x)) == expected
        assert check_coassociativity(x)

    def test_zero(self):
        assert check_coassociativity(ZERO_ELEMENT)

    def test_all_generators_up_to_24(self):
        for n in range(1, 25):
            for k in range(1, n + 1):
                assert check_coassociativity(generator(n, k))

    def test_triple_equality_expands_levels(self):
        # one leg at level 0 versus its level-1 refinements
        base = TripleTensorElement(
            {(monomial(2), monomial(3), monomial(2)): Scalar(1)}
        )
        spread = TripleTensorElement(
            {
                (monomial(2), monomial(3), monomial(2, (i,), (i,))): Scalar(1)
                for i in (1, 2)
            }
        )
        assert base.equals(spread)
        lopsided = TripleTensorElement(
            {(monomial(2), monomial(3), monomial(2, (1,), (1,))): Scalar(1)}
        )
        assert not base.equals(lopsided)

    def test_each_integer_is_factored_once(self, monkeypatch):
        """Components share divisors here (12 | 24, 12 | 36); each integer
        still reaches each number-theory function at most once."""
        calls = {}
        for name in ("divisor_pairs", "divisor_triple_count"):
            seen = calls[name] = Counter()

            def counting(n, original=getattr(bialgebra, name), seen=seen):
                seen[n] += 1
                return original(n)

            monkeypatch.setattr(bialgebra, name, counting)
        assert check_coassociativity(parse_element("I(12) + s(24,5) + I(36) + s(12,7)"))
        assert max(calls["divisor_pairs"].values()) == 1
        assert max(calls["divisor_triple_count"].values()) == 1
        assert set(calls["divisor_triple_count"]) == {12, 24, 36}
        divisors = {d for n in (12, 24, 36) for d in range(1, n + 1) if n % d == 0}
        assert set(calls["divisor_pairs"]) == divisors

    @pytest.mark.parametrize(
        "expr, splits",
        [
            ("I(12612600)", 39312),  # 19,440 triples, just under the cap
            ("I(1000000000000)", 16731),
            ("s(2520,3) * s(2520,7)^* + [1/2] s(2520,11)", 2256),
        ],
    )
    def test_each_first_split_is_made_once_per_divisor_pair(self, monkeypatch, expr, splits):
        """Per term, every triple makes one second split on each side and
        every divisor pair one first split, shared by both sides."""
        calls = []

        def counting(mono, n, m, original=bialgebra._split_monomial):
            calls.append(mono)
            return original(mono, n, m)

        monkeypatch.setattr(bialgebra, "_split_monomial", counting)
        x = parse_element(expr)
        (n,) = x.support_components()
        assert check_coassociativity(x)
        triples, pairs = bialgebra.divisor_triple_count(n), len(bialgebra.divisor_pairs(n))
        assert len(calls) == splits == len(x.items()) * (2 * triples + pairs)


def test_reordered_first_splits_agree_through_the_maps():
    """The right side's first split in reverse term order: its term list
    differs from the left side's, so the two are compared as maps."""
    x = parse_element("s(12,4) + s(12,7)^* + [1/2] s(12,11)*s(12,2)^*")
    first = bialgebra._first_splits(list(x._leg_items()))

    def reordered(p, q, scale=1):
        split = first(p, q)
        if (p, q) != (2, 6):
            return split
        return {key: c * scale for key, c in reversed(split.items())}

    assert list(reordered(2, 6)) != list(first(2, 6))
    assert bialgebra._splittings_agree(reordered, 2, 2, 3)
    assert not bialgebra._splittings_agree(functools.partial(reordered, scale=2), 2, 2, 3)


def test_a_one_sided_mis_split_fails_both_checks(monkeypatch):
    """Letter 2 of component 4 split into (2, 2) with its halves swapped: of
    s(12,4) only the left side of (2, 2, 3) splits it, of s(12,2) only the
    right side of (3, 2, 2)."""
    x, y = generator(12, 4), generator(12, 2)
    assert check_coassociativity(x) and check_coassociativity(y)
    assert check_wcs_axiom(2, 2, 3, x) and check_wcs_axiom(3, 2, 2, y)

    def mis_split(mono, n, m, original=bialgebra._split_monomial):
        left, right = original(mono, n, m)
        if (n, m) == (2, 2) and mono.mu == (2,):
            return left._replace(mu=right.mu), right._replace(mu=left.mu)
        return left, right

    monkeypatch.setattr(bialgebra, "_split_monomial", mis_split)
    assert not check_coassociativity(x) and not check_coassociativity(y)
    assert not check_wcs_axiom(2, 2, 3, x) and not check_wcs_axiom(3, 2, 2, y)


class TestCounitLaws:
    def test_examples(self):
        assert check_counit_laws(generator(4, 1))
        assert check_counit_laws(unit(1).scale(Scalar(5, -2)))
        word = from_monomial(monomial(6, (2, 3), (5,)))
        assert check_counit_laws(word)

    def test_all_generators_up_to_24(self):
        for n in range(1, 25):
            for k in range(1, n + 1):
                assert check_counit_laws(generator(n, k))


class TestHomProperty:
    def test_examples(self):
        s = generator(2, 1)
        assert check_hom_property(s, s)
        assert check_hom_property(s, generator(2, 2).adjoint())
        assert check_hom_property(ZERO_ELEMENT, s)

    @pytest.mark.parametrize("submonoid", [None, PowerSubmonoid(2)])
    def test_a_passing_check_takes_four_coproducts(self, monkeypatch, submonoid):
        # delta of x*y, x, y and x^*: delta(x) is shared by both laws
        calls = []
        coproduct = bialgebra._coproduct

        def counted(*args, **kwargs):
            calls.append(args[0])
            return coproduct(*args, **kwargs)

        monkeypatch.setattr(bialgebra, "_coproduct", counted)
        x = generator(4, 1) + generator(4, 3).adjoint()
        y = generator(4, 2)
        assert check_hom_property(x, y, submonoid)
        assert len(calls) == 4

    def test_unit_identity_all_components(self):
        from cuntzsum import divisor_pairs

        for n in range(1, 25):
            expected = TensorElement()
            for m, l in divisor_pairs(n):
                expected = expected + tensor_unit(m, l)
            assert delta(unit(n)).equals(expected)


class TestWcsAxiom:
    def test_mixed_radix_split(self):
        x = generator(8, 5)
        assert check_wcs_axiom(2, 2, 2, x)
        # letter 5 splits as (2, 1, 1): 5 - 1 = 4 = 4*(2-1) + 2*(1-1) + (1-1)
        lhs = lift_right(lambda z: phi(2, 2, z), phi(2, 4, x))
        expected = TripleTensorElement(
            {
                (monomial(2, (2,)), monomial(2, (1,)), monomial(2, (1,))): Scalar(1)
            }
        )
        assert lhs == expected

    def test_unit_component_sides(self):
        x = generator(7, 3)
        lhs = lift_right(lambda z: phi(7, 1, z), phi(1, 7, x))
        expected = TripleTensorElement(
            {(monomial(1), monomial(7, (3,)), monomial(1)): Scalar(1)}
        )
        assert lhs == expected
        assert check_wcs_axiom(1, 7, 1, x)

    def test_units_map_to_units(self):
        assert check_wcs_axiom(2, 3, 1, unit(6))

    def test_support_validation(self):
        with pytest.raises(InputError):
            check_wcs_axiom(2, 2, 2, generator(6, 1))

    @pytest.mark.parametrize("a, b, c, x", [
        (0, 2, 2, ZERO_ELEMENT), (-1, -1, 1, unit(1)), (1, -1, -1, unit(1)), (2, -1, -1, unit(2)),
    ])
    def test_nonpositive_indices(self, a, b, c, x):
        with pytest.raises(InputError, match="^phi requires positive component indices$"):
            check_wcs_axiom(a, b, c, x)


class TestNonCocommutativity:
    def test_witness_at_second_generator(self):
        d = delta(generator(6, 2))
        assert not d.swap().equals(d)

    def test_first_generators_are_flip_symmetric(self):
        # the coproduct of the first generator is always swap-invariant,
        # so non-cocommutativity witnesses need a generator index >= 2
        for n in (4, 6, 12):
            d = delta(generator(n, 1))
            assert d.swap().equals(d)


@given(elements(max_n=6, max_len=2, max_terms=2))
@settings(max_examples=40)
def test_coassociativity_and_counit_on_random_elements(x):
    assert check_coassociativity(x)
    assert check_counit_laws(x)


@given(elements(max_n=6, max_len=2, max_terms=2), elements(max_n=6, max_len=2, max_terms=2))
@settings(max_examples=30)
def test_hom_property_on_random_pairs(x, y):
    assert check_hom_property(x, y)
    assert delta(x * y).equals(delta(x) * delta(y))
    assert counit(x * y) == counit(x) * counit(y)
