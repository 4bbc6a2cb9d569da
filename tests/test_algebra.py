from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings

from conftest import elements, monomials
from cuntzsum import (
    AlgebraElement,
    InputError,
    Scalar,
    TensorElement,
    ZERO_ELEMENT,
    canonical_form,
    coefficient_extract,
    equals,
    from_monomial,
    generator,
    monomial,
    reduce_word,
    render_element,
    render_tensor,
    tensor_unit,
    unit,
)
from cuntzsum import mutations
from cuntzsum.algebra import (
    CuntzMonomial,
    RawWord,
    _check_letters,
    _mono_mul,
    expand_to_level,
    reduction_trace,
)
from cuntzsum.scalars import ONE


def word(n, *letters):
    return RawWord(n, letters)


class TestReduceWord:
    def test_annihilation_relation(self):
        # s_1^* s_1 = I, s_1^* s_2 = 0 in component 2
        assert reduce_word(word(2, (1, True), (1, False))) == unit(2)
        assert reduce_word(word(2, (1, True), (2, False))).is_zero()

    def test_single_relation_application(self):
        got = reduce_word(word(3, (2, False), (1, True), (1, False), (3, True)))
        assert got == from_monomial(monomial(3, (2,), (3,)))

    def test_empty_word_is_unit(self):
        assert reduce_word(word(5)) == unit(5)

    def test_component_one_collapses(self):
        got = reduce_word(word(1, (1, False), (1, True), (1, False)))
        assert got == unit(1)

    def test_malformed_letter(self):
        with pytest.raises(InputError):
            reduce_word(RawWord(2, ((3, False),)))

    def test_trace_strictly_decreasing(self):
        trace = reduction_trace(word(2, (1, False), (2, True), (2, False), (1, True)))
        assert trace == [4, 2]
        for a, b in zip(trace, trace[1:]):
            assert a - b == 2

    def test_exhaustive_small_words_match_products(self):
        # Rewrite path against the independent monomial-product path.
        from itertools import product

        alphabet = [(1, False), (1, True), (2, False), (2, True)]
        for length in range(0, 5):
            for pattern in product(alphabet, repeat=length):
                via_rewrite = reduce_word(word(2, *pattern))
                via_product = unit(2)
                for i, starred in pattern:
                    g = generator(2, i)
                    via_product = via_product * (g.adjoint() if starred else g)
                assert via_rewrite == via_product

    def test_seeded_words_match_the_validating_build(self):
        """The reduced word is one validated monomial: its element is `from_monomial`'s."""
        rng = Random(31)
        for _ in range(3000):
            n = rng.randint(1, 5)
            pattern = [(rng.randint(1, n), rng.random() < 0.5) for _ in range(rng.randint(0, 8))]
            product = monomial(n)
            for i, starred in pattern:
                product = product and _mono_mul(product, monomial(n, (), (i,)) if starred else monomial(n, (i,)))
            expected = ZERO_ELEMENT if product is None else from_monomial(monomial(*product))
            got = reduce_word(RawWord(n, tuple(pattern)))
            assert type(got) is AlgebraElement and got == expected
            assert [type(c) for _, c in got.items()] == [Scalar] * len(got)


def reference_reduce_letters(letters, lengths=None):
    """The package's in-place reduction before its one-pass stack, kept as a reference:
    cancel the leftmost ``s_i^* s_j`` pair of the list until none is left, or return
    None at the first with i != j (unless `skip-delta-check` is on)."""
    pos = 0
    while pos < len(letters) - 1:
        if letters[pos][1] and not letters[pos + 1][1]:
            if letters[pos][0] != letters[pos + 1][0] and not mutations.is_active(
                mutations.SKIP_DELTA_CHECK
            ):
                return None
            del letters[pos : pos + 2]
            if lengths is not None:
                lengths.append(len(letters))
            pos = max(pos - 1, 0)
        else:
            pos += 1
    return letters


def reference_reduction(word):
    """(`reduction_trace`, `reduce_word`) of ``word`` through `reference_reduce_letters`,
    the monomial built by the validating `monomial`."""
    _check_letters(word.n, (i for i, _ in word.letters))
    letters = list(word.letters)
    trace = [len(letters)]
    reduced = reference_reduce_letters(letters, trace)
    if reduced is None:
        return trace, ZERO_ELEMENT
    split = next((k for k, (_, starred) in enumerate(reduced) if starred), len(reduced))
    mu = [i for i, _ in reduced[:split]]
    nu = [i for i, _ in reversed(reduced[split:])]
    return trace, AlgebraElement._raw({monomial(word.n, mu, nu): ONE})


def index_sequences(length, n):
    """Index sequences over 1..n in which index k + 1 first appears after index k."""
    def grow(prefix, top):
        if len(prefix) == length:
            yield prefix
            return
        for i in range(1, min(top + 1, n) + 1):
            yield from grow(prefix + (i,), max(top, i))

    return grow((), 0)


def small_words(n):
    """Every word of length <= 8 over n = 2; over n = 3, every one up to a renaming of its
    indices: reduction only compares indices and copies them, so a renamed word reduces
    to the renamed result, and these cover every case that n = 3 has."""
    alphabet = [(1, False), (1, True), (2, False), (2, True)]
    for length in range(9):
        if n == 2:
            yield from (RawWord(2, w) for w in product(alphabet, repeat=length))
            continue
        for indices in index_sequences(length, 3):
            for stars in product((False, True), repeat=length):
                yield RawWord(3, tuple(zip(indices, stars)))


def random_words(count):
    """Seeded words of length <= 12 in components 1 to 6; about one in twenty holds a letter out of range."""
    rng = Random(41)
    for _ in range(count):
        n = rng.randint(1, 6)
        top = n + 1 if rng.random() < 0.05 else n
        yield RawWord(n, tuple((rng.randint(0 if top > n else 1, top), rng.random() < 0.5) for _ in range(rng.randint(0, 12))))


# Under `skip-delta-check` no index is compared, so the words over n = 3 hold no case
# that those over n = 2 do not; without it, both sets are checked.
@pytest.mark.parametrize("skip_delta_check, components, count", [
    (False, (2, 3), 87_381 + 336_179),
    (True, (2,), 87_381),
], ids=["default", "skip-delta-check"])
def test_one_pass_reduction_matches_the_in_place_reference(skip_delta_check, components, count):
    checked = errors = 0
    with mutations.only(mutations.SKIP_DELTA_CHECK if skip_delta_check else None):
        for n in components:
            for word in small_words(n):
                trace, element = reference_reduction(word)
                assert reduction_trace(word) == trace and reduce_word(word) == element, word
                checked += 1
        for word in random_words(10_000):
            try:
                expected = reference_reduction(word)
            except InputError as exc:
                errors += 1
                for function in (reduction_trace, reduce_word):
                    with pytest.raises(InputError) as info:
                        function(word)
                    assert str(info.value) == str(exc)
                continue
            trace, got = reduction_trace(word), reduce_word(word)
            assert (trace, got) == expected, word
            assert [type(m) for m in got._terms] == [CuntzMonomial] * len(got)
    assert checked == count
    assert errors > 100


class TestArithmetic:
    def test_additive_identity_and_cancellation(self):
        x = generator(2, 1)
        assert x + ZERO_ELEMENT == x
        assert (x + x.scale(-1)).is_zero()

    def test_direct_sum_linearity(self):
        x = generator(2, 1) + generator(3, 1)
        assert x.support_components() == {2, 3}

    def test_monomial_products(self):
        s1, s2 = generator(2, 1), generator(2, 2)
        # (s_1 s_2^*)(s_2 s_1^*) = s_1 s_1^*
        left = s1 * s2.adjoint()
        right = s2 * s1.adjoint()
        assert left * right == s1 * s1.adjoint()
        # orthogonal range projections multiply to zero
        assert ((s1 * s1.adjoint()) * (s2 * s2.adjoint())).is_zero()

    def test_cross_component_product_vanishes(self):
        assert (generator(2, 1) * generator(3, 1)).is_zero()

    def test_adjoint(self):
        s1 = generator(2, 1)
        assert s1.adjoint() == from_monomial(monomial(2, (), (1,)))
        assert unit(2).scale(Scalar(0, 1)).adjoint() == unit(2).scale(Scalar(0, -1))

    def test_scalar_multiplication(self):
        x = generator(2, 1)
        assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x


class TestExpansion:
    def test_unit_expansion(self):
        projections = from_monomial(monomial(2, (1,), (1,))) + from_monomial(
            monomial(2, (2,), (2,))
        )
        assert expand_to_level(unit(2), 2, 1) == projections

    def test_generator_expansion_verified_by_extract(self):
        # Oracle: multiply s_1 by the level-1 expansion of the unit, then
        # read off the coefficients with the reduction-based extractor.
        s1 = generator(2, 1)
        derived = s1 * expand_to_level(unit(2), 2, 1)
        for mu, nu in (((1, 1), (1,)), ((1, 2), (2,))):
            assert coefficient_extract(derived, 2, mu, nu) == Scalar(1)
        expected = from_monomial(monomial(2, (1, 1), (1,))) + from_monomial(
            monomial(2, (1, 2), (2,))
        )
        assert derived == expected
        assert expand_to_level(s1, 2, 1) == expected

    def test_component_one_untouched(self):
        x = unit(1).scale(3)
        assert expand_to_level(x, 1, 5) == x

    def test_too_deep_monomial_rejected(self):
        x = from_monomial(monomial(2, (), (1, 2)))
        with pytest.raises(InputError):
            expand_to_level(x, 2, 1)


class TestEquality:
    def test_cuntz_identity(self):
        summed = generator(2, 1) * generator(2, 1).adjoint() + generator(
            2, 2
        ) * generator(2, 2).adjoint()
        assert equals(unit(2), summed)

    def test_projection_not_unit(self):
        p = generator(2, 1) * generator(2, 1).adjoint()
        assert not equals(p, unit(2))
        # independent oracle pins the discrepancy at (mu, nu) = ((2), (2))
        assert coefficient_extract(p, 2, (2,), (2,)) == Scalar(0)
        assert coefficient_extract(unit(2), 2, (2,), (2,)) == Scalar(1)

    def test_mixed_levels(self):
        x = unit(2) + from_monomial(monomial(2, (1,), (1,)))
        y = from_monomial(monomial(2, (1,), (1,)), 2) + from_monomial(
            monomial(2, (2,), (2,))
        )
        assert equals(x, y)

    def test_cross_component(self):
        assert not equals(unit(2), unit(3))
        assert not equals(generator(2, 1), ZERO_ELEMENT)


class TestCanonicalForm:
    def test_collapse_to_unit(self):
        spread = from_monomial(monomial(2, (1,), (1,))) + from_monomial(
            monomial(2, (2,), (2,))
        )
        assert canonical_form(spread) == unit(2)

    def test_unequal_siblings_stay(self):
        x = from_monomial(monomial(2, (1,), (1,))) + from_monomial(
            monomial(2, (2,), (2,)), 2
        )
        assert canonical_form(x) == x
        assert equals(x, canonical_form(x))

    def test_nested_collapse(self):
        # sum over all level-2 diagonal refinements collapses to the unit
        from itertools import product

        spread = ZERO_ELEMENT
        for gamma in product((1, 2), repeat=2):
            spread = spread + from_monomial(monomial(2, gamma, gamma))
        assert canonical_form(spread) == unit(2)

    def test_partial_collapse(self):
        # a full level-2 family under mu=nu=(1,*) plus a lone (2,*) leaf
        x = (
            from_monomial(monomial(2, (1, 1), (1, 1)))
            + from_monomial(monomial(2, (1, 2), (1, 2)))
            + from_monomial(monomial(2, (2, 1), (2, 1)))
        )
        expected = from_monomial(monomial(2, (1,), (1,))) + from_monomial(
            monomial(2, (2, 1), (2, 1))
        )
        assert canonical_form(x) == expected


class TestCoefficientExtract:
    def test_unit_refinement(self):
        assert coefficient_extract(unit(2), 2, (1,), (1,)) == Scalar(1)

    def test_orthogonal_projection(self):
        p = generator(2, 1) * generator(2, 1).adjoint()
        assert coefficient_extract(p, 2, (2,), (2,)) == Scalar(0)

    def test_direct_read(self):
        x = generator(2, 1).scale(3)
        assert coefficient_extract(x, 2, (1,), ()) == Scalar(3)

    def test_letter_validation(self):
        with pytest.raises(InputError):
            coefficient_extract(unit(2), 2, (3,), ())


class TestMonomialConstruction:
    def test_component_one_words_collapse(self):
        assert monomial(1, (1, 1), (1,)) == monomial(1)

    def test_bad_letters(self):
        with pytest.raises(InputError):
            monomial(2, (3,), ())
        with pytest.raises(InputError):
            monomial(0)

    def test_every_letter_check_names_the_first_bad_letter(self):
        # monomial and word reduction share one check and message; mu is
        # checked before nu, and a RawWord is checked when it is reduced.
        msg = r"^letter 3 out of range 1\.\.2 in component 2$"
        for make in (
            lambda: monomial(2, (1,), (3, 5)),
            lambda: monomial(2, (3,), (5,)),
            lambda: reduce_word(RawWord(2, ((3, False), (5, False)))),
            lambda: reduction_trace(RawWord(2, ((1, False), (3, True)))),
        ):
            with pytest.raises(InputError, match=msg):
                make()

    def test_a_word_in_no_component_is_refused_before_its_letters(self):
        msg = r"^component index must be >= 1, got 0$"
        for make in (
            lambda: monomial(0, (1,)),
            lambda: reduce_word(RawWord(0, ())),
            lambda: reduce_word(RawWord(0, ((1, False),))),
            lambda: reduction_trace(RawWord(0, ())),
            lambda: reduction_trace(RawWord(0, ((1, True), (1, False)))),
        ):
            with pytest.raises(InputError, match=msg):
                make()

    def test_constructors_validate_raw_keys(self):
        # Raw NamedTuple keys go through `monomial`: a component-1 word
        # collapses to the unit, and an out-of-range letter is rejected.
        raw_unit = CuntzMonomial(1, (1,), ())
        for x in (AlgebraElement({raw_unit: 1}), from_monomial(raw_unit)):
            assert x.equals(unit(1)) and render_element(x) == "I(1)"
        pair = TensorElement({(raw_unit, CuntzMonomial(2, (), ())): 1})
        assert pair == tensor_unit(1, 2) and render_tensor(pair) == "(I(1)) ⊗ (I(2))"
        bad = CuntzMonomial(2, (5,), ())
        with pytest.raises(InputError):
            AlgebraElement({bad: 1})
        with pytest.raises(InputError):
            from_monomial(bad)
        with pytest.raises(InputError):
            TensorElement({(bad, monomial(2)): 1})

    def test_sort_key_groups_by_component_and_degree(self):
        a = monomial(2, (1,), ())
        b = monomial(2, (), (1,))
        c = monomial(3, (1,), ())
        assert sorted([c, a, b], key=lambda m: m.sort_key()) == [b, a, c]


@given(elements(), elements(), elements())
@settings(max_examples=60)
def test_star_algebra_laws(x, y, z):
    assert equals((x * y) * z, x * (y * z))
    assert equals(x * (y + z), x * y + x * z)
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()
    assert x.adjoint().adjoint() == x


@given(elements())
@settings(max_examples=60)
def test_canonical_form_properties(x):
    cf = canonical_form(x)
    assert canonical_form(cf) == cf
    assert equals(x, cf)


@given(elements(), elements())
@settings(max_examples=40)
def test_equality_oracle_agreement(x, y):
    from cuntzsum.algebra import _refinements

    diff = x - y
    groups = {}
    for mono, _ in diff.items():
        groups.setdefault((mono.n, mono.degree), []).append(mono)
    agree = True
    for monos in groups.values():
        level = max(len(m.nu) for m in monos)
        for m in monos:
            for point in _refinements(m, level):
                if coefficient_extract(x, point.n, point.mu, point.nu) != coefficient_extract(
                    y, point.n, point.mu, point.nu
                ):
                    agree = False
    assert equals(x, y) == agree


@given(monomials())
def test_monomial_involution(m):
    assert m.adjoint().adjoint() == m
    assert m.adjoint().degree == -m.degree


def test_relation_laws_small_components():
    for n in range(2, 7):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = unit(n) if i == j else ZERO_ELEMENT
                assert equals(
                    generator(n, i).adjoint() * generator(n, j), expected
                )
        total = ZERO_ELEMENT
        for i in range(1, n + 1):
            total = total + generator(n, i) * generator(n, i).adjoint()
        assert equals(total, unit(n))
