"""Differential tests of the sparse core against the dense reference engines."""

import contextlib
import io
import time
from fractions import Fraction
from itertools import product
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import elements, monomials, scalars
from cuntzsum import (
    AlgebraElement,
    Scalar,
    TensorElement,
    TripleTensorElement,
    canonical_form,
    canonical_tensor_form,
    check_coassociativity,
    delta,
    from_monomial,
    monomial,
    parse_element,
    render_element,
    render_tensor,
    serialize_element,
    serialize_tensor,
    simple_tensor,
    unit,
)
from cuntzsum import ZERO_ELEMENT, algebra, bialgebra, equals, exprs, mutations
from cuntzsum.bialgebra import lift_left, lift_right
from cuntzsum.cli import main
from dense_reference import dense_canonical_form, dense_canonical_tensor_form, refinements


def reference_strings(x, canon, render, serialize, name):
    """``render(x)`` and ``serialize(x)`` with the printer's canonical form swapped out."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exprs, name, canon)
        return render(x), serialize(x)


@st.composite
def refined_elements(draw, max_n=4):
    """A random element plus one whose terms are split into full sibling
    families one or two levels down, so the collapse has work to do."""
    noise = draw(elements(max_n=max_n, max_len=2, max_terms=2))
    base = draw(elements(max_n=max_n, max_len=1, max_terms=2))
    gap = draw(st.integers(1, 2))
    split = AlgebraElement(
        (leaf, coeff)
        for mono, coeff in base.items()
        for leaf in refinements(mono, len(mono.nu) + gap)
    )
    return noise + split


@st.composite
def component_sums(draw, components=(4, 6, 8, 12)):
    n = draw(st.sampled_from(components))
    out = AlgebraElement()
    for _ in range(draw(st.integers(1, 3))):
        mu = draw(st.lists(st.integers(1, n), max_size=2))
        nu = draw(st.lists(st.integers(1, n), max_size=2))
        out = out + from_monomial(monomial(n, mu, nu), draw(scalars(nonzero=True)))
    return out


@given(refined_elements())
@settings(max_examples=150, deadline=None)
def test_width_one_matches_dense_engine(x):
    assert canonical_form(x) == dense_canonical_form(x)
    expected = reference_strings(
        x, dense_canonical_form, render_element, serialize_element, "canonical_form"
    )
    assert (render_element(x), serialize_element(x)) == expected


@given(component_sums(), refined_elements(max_n=3), refined_elements(max_n=3))
@settings(max_examples=100, deadline=None)
def test_width_two_matches_dense_engine(x, left, right):
    for t in (delta(x), delta(x + left) + simple_tensor(left, right)):
        assert canonical_tensor_form(t) == dense_canonical_tensor_form(t)
        expected = reference_strings(
            t, dense_canonical_tensor_form, render_tensor, serialize_tensor, "canonical_tensor_form"
        )
        assert (render_tensor(t), serialize_tensor(t)) == expected


def test_deep_decomposition_of_a_unit():
    words = list(product(range(1, 5), repeat=6))
    full = AlgebraElement((monomial(4, w, w), 1) for w in words)
    assert canonical_form(full) == dense_canonical_form(full) == unit(4)

    # Uneven coefficients leave part of the tree uncollapsed.
    rng = Random(6)
    bumped = full + AlgebraElement((monomial(4, w, w), 1) for w in rng.sample(words, 40))
    assert canonical_form(bumped) == dense_canonical_form(bumped)
    assert render_element(bumped) == reference_strings(
        bumped, dense_canonical_form, render_element, serialize_element, "canonical_form"
    )[0]


@st.composite
def hidden_zeros(draw, components=(4, 6, 8, 12)):
    """``y - y'``, where ``y'`` splits every term of ``y`` into its children:
    zero in the algebra, but not term by term."""
    y = draw(component_sums(components))
    split = AlgebraElement(
        (leaf, coeff) for mono, coeff in y.items() for leaf in refinements(mono, len(mono.nu) + 1)
    )
    return y - split


@given(component_sums(), hidden_zeros(), component_sums(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_width_three_equality_matches_dense_engine(x, zero, e, perturb):
    """The two sides of coassociativity, the right one built from ``x`` plus
    a hidden zero, and plus a perturbation half the time."""
    left = lift_left(delta, delta(x))
    right = lift_right(delta, delta(x + zero + e if perturb else x + zero))
    dense_zero = dense_canonical_tensor_form(left - right).is_zero()
    assert left.equals(right) == dense_zero
    assert right.equals(left) == dense_zero
    if not perturb:
        assert dense_zero
    # The reference builds a TensorElement at every width, so compare term maps.
    for side in (left, right):
        canon = canonical_tensor_form(side)
        assert type(canon) is TripleTensorElement
        assert dict(canon.items()) == dict(dense_canonical_tensor_form(side).items())


def subtracting_equals(x, y):
    """The equality reference: ``x - y`` pushes down to no terms, with no equal-map shortcut."""
    return algebra._vanishes(x - y)


@st.composite
def component_triples(draw):
    """A component, three sums in it, so their products do not vanish, and a hidden zero there."""
    n = draw(st.sampled_from((4, 6, 8, 12)))
    return (n, *(draw(component_sums((n,))) for _ in range(3)), draw(hidden_zeros((n,))))


def _equal_map_pairs(x, y, z):
    """Equal term maps built by two routes, so equal coefficients are distinct Scalar objects."""
    dx = delta(x)
    return [
        ((x * y) * z, x * (y * z)),
        (delta(x * y), delta(x) * delta(y)),
        (lift_left(delta, dx), lift_right(delta, dx)),
    ]


@given(component_triples(), scalars(nonzero=True), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_equality_matches_the_subtracting_reference(sums, c, letter):
    """At widths 1, 2 and 3: equal maps, a hidden zero added to one side, and a perturbation."""
    n, x, y, z, zero = sums
    e = from_monomial(monomial(n, (letter,)), c)
    pairs = _equal_map_pairs(x, y, z)
    for a, b in pairs:
        assert dict(a.items()) == dict(b.items())
    dx, hidden, perturbed = delta(x), delta(x + zero), delta(x + e)
    pairs += [
        (x, x + zero), (dx, hidden), (lift_left(delta, dx), lift_right(delta, hidden)),
        (x, x + e), (dx, perturbed), (lift_left(delta, dx), lift_right(delta, perturbed)),
        (x, x * 2), (dx, dx * 2), (x + zero, x + e),
    ]
    for a, b in pairs:
        expected = subtracting_equals(a, b)
        assert a.equals(b) == b.equals(a) == expected
        if type(a) is AlgebraElement:
            assert equals(a, b) == equals(b, a) == expected
    assert not (x.equals(x + e) or dx.equals(perturbed))


def test_equal_maps_are_equal_without_subtracting(monkeypatch):
    x, y, z = (parse_element(f"s(6,{i})*s(6,2)^* + [1/2+1i] * s(6,{i + 1}) + I(6)") for i in (1, 3, 5))
    pairs = _equal_map_pairs(x, y, z)
    for a, b in pairs:
        assert any(a.coefficient(key) is not c for key, c in b.items())

    def refuse(_):
        raise AssertionError("equal term maps were subtracted")

    monkeypatch.setattr(algebra, "_vanishes", refuse)
    for a, b in pairs:
        assert a.equals(b) and b.equals(a)
    assert equals(*pairs[0])


@pytest.mark.parametrize("call", [
    lambda: unit(2).equals(5),
    lambda: ZERO_ELEMENT.equals(TensorElement()),
    lambda: TensorElement().equals(ZERO_ELEMENT),
    lambda: equals(ZERO_ELEMENT, TensorElement()),
    lambda: TripleTensorElement().equals(TensorElement()),
])
def test_equality_across_classes_raises_type_error(call):
    """Values of different classes are never equal maps: they go to the subtraction, which refuses them."""
    with pytest.raises(TypeError):
        call()


def coassociative_by_lifts(x):
    """The whole-cube reference: both iterated coproducts, built and compared."""
    dx = delta(x)
    return lift_left(delta, dx).equals(lift_right(delta, dx))


@given(component_sums(), hidden_zeros(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_coassociativity_matches_whole_cube_lifts(x, zero, hide):
    y = x + zero if hide else x
    assert coassociative_by_lifts(y)
    assert check_coassociativity(y)


@given(component_sums((16, 32, 48)), hidden_zeros((16, 32, 48)), st.sampled_from(("x", "zero", "both")))
@settings(max_examples=40, deadline=None)
def test_coassociativity_matches_whole_cube_lifts_with_a_dropped_pair(x, zero, pick):
    """Without the (2,2) pair of 4 the two sides reach different triples
    (at 16 the left side misses (2,2,4), the right side (4,2,2)); a triple
    one side misses is compared with zero, so a hidden zero still passes."""
    y = {"x": x, "zero": zero, "both": x + zero}[pick]
    with mutations.enabled(mutations.DROP_DIVISOR_PAIR):
        assert check_coassociativity(y) == coassociative_by_lifts(y)


def _unit_less_projections(n):
    """``I(n) - sum_i s_i s_i^*``: zero, with nonzero terms."""
    return unit(n) - AlgebraElement((m, 1) for m in _projections(n))


def test_hidden_zero_passes_with_a_dropped_pair():
    zero = _unit_less_projections(16)
    with mutations.enabled(mutations.DROP_DIVISOR_PAIR):
        assert check_coassociativity(zero) and coassociative_by_lifts(zero)
        assert not check_coassociativity(unit(16)) and not coassociative_by_lifts(unit(16))
    assert check_coassociativity(unit(16))


@pytest.mark.parametrize("left, right", [(True, False), (False, True)])
def test_one_side_of_a_triple_is_compared_with_zero(left, right):
    zero = _unit_less_projections(16)
    for x, vanishes in ((zero, True), (unit(16), False), (zero + from_monomial(monomial(16, (3,))), False)):
        items = list(x._leg_items())
        assert bialgebra._splittings_agree(bialgebra._first_splits(items), 2, 2, 4, left, right) is vanishes


def _projections(n):
    return [monomial(n, (i,), (i,)) for i in range(1, n + 1)]


@pytest.mark.parametrize("width", [2, 3])
def test_whole_group_push_down_at_every_width(width):
    """``I(2)^(x)w = sum p_i (x) p_j ...``: no two of the right side's keys
    with a leg in common are comparable, so a push-down per bucket of the
    other legs would miss the identity."""
    cls = TensorElement if width == 2 else TripleTensorElement
    whole = cls({(monomial(2),) * width: 1})
    split = cls({legs: 1 for legs in product(_projections(2), repeat=width)})
    assert whole.equals(split) and split.equals(whole)
    assert (whole - split).equals(cls())
    bumped = split + cls({(monomial(2, (2,), (2,)),) * width: Fraction(1, 2)})
    assert not whole.equals(bumped) and not bumped.equals(whole)
    # One leg kept whole on both sides, the others split.
    mixed = cls({(monomial(2),) + legs: 1 for legs in product(_projections(2), repeat=width - 1)})
    assert whole.equals(mixed)
    assert not mixed.equals(split + cls({(monomial(2),) * width: 1}))
    assert canonical_tensor_form(split) == canonical_tensor_form(whole) == whole


@pytest.mark.parametrize("depths", [(2, 1, 0), (0, 1, 2)])
def test_staggered_width_three_collapse_matches_dense_engine(depths):
    """Legs split to different depths, whole and with one coefficient
    bumped: one deepest-first pass per leg, in leg order, gives the form of
    the reference's sweeps until nothing moves."""
    base = (monomial(2, (1,), ()), monomial(3), monomial(2, (), (2,)))
    leaves = [list(refinements(m, len(m.nu) + d)) for m, d in zip(base, depths)]
    split = TripleTensorElement({legs: 1 for legs in product(*leaves)})
    bumped = split + TripleTensorElement({tuple(leg[-1] for leg in leaves): Fraction(1, 2)})
    assert canonical_tensor_form(split) == TripleTensorElement({base: 1})
    for t in (split, bumped):
        assert dict(canonical_tensor_form(t).items()) == dict(dense_canonical_tensor_form(t).items())


def _term_text(n, word, coeff):
    factors = [f"s({n},{i})" for i in word] + [f"s({n},{i})^*" for i in reversed(word)]
    return f"[{coeff.literal()}] * " + "*".join(factors)


def _decomposition(n, k, rng):
    """Words w with sum_w s_w s_w^* = I(n), refined along a random path of depth k."""
    path, words = (), []
    for depth in range(k):
        step = rng.randint(1, n)
        words += [path + (i,) for i in range(1, n + 1) if i != step or depth == k - 1]
        path += (step,)
    rng.shuffle(words)
    return words


def _run(*argv):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue(), time.perf_counter() - start


@pytest.mark.parametrize("n, k", [(24, 4), (100, 3), (8, 6), (24, 6), (100, 8), (2, 40)])
def test_deep_decomposition_of_a_scaled_unit_is_fast(n, k):
    """``c I(n)`` against ``(n - 1) k + 1`` projections: the dense expansion
    makes ``n^(k-1)`` leaves of each shallow term, the push-down about ``n k``."""
    rng = Random(n * 1000 + k)
    c = Scalar(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)), Fraction(rng.randint(-9, 9), 7))
    words = _decomposition(n, k, rng)
    assert len(words) == (n - 1) * k + 1
    whole = f"[{c.literal()}] * I({n})"
    split = " + ".join(_term_text(n, w, c) for w in words)
    pos = rng.randrange(len(words))
    bumped = " + ".join(
        _term_text(n, w, c + Fraction(1, 2) if j == pos else c) for j, w in enumerate(words)
    )
    for argv, expected in (
        (("eq", whole, split), (0, "true\n")),
        (("eq", bumped, whole), (1, "false\n")),
        (("norm", split), (0, whole + "\n")),
    ):
        code, out, seconds = _run(*argv)
        assert (code, out) == expected
        assert seconds < 2.0, (argv[0], seconds)


def _gap_two_sum(n):
    """Two terms of gauge degree 1 in component n, nu-lengths 0 and 2."""
    return AlgebraElement({
        monomial(n, (1,), ()): Scalar(Fraction(2, 3), 1),
        monomial(n, (2, n, 3), (n, 3)): Scalar(-1, Fraction(1, 2)),
    })


def test_rendered_delta_of_a_gap_two_sum_matches_dense_engine():
    t = delta(_gap_two_sum(60))
    expected = reference_strings(
        t, dense_canonical_tensor_form, render_tensor, serialize_tensor, "canonical_tensor_form"
    )
    assert (render_tensor(t), serialize_tensor(t)) == expected


def test_rendered_delta_of_a_gap_two_sum_is_fast():
    t = delta(_gap_two_sum(360))
    start = time.perf_counter()
    render_tensor(t)
    assert time.perf_counter() - start < 2.0
    canon = canonical_tensor_form(t)
    assert canon.equals(t) and canonical_tensor_form(canon) == canon


# ---------------------------------------------------------------------------
# Output: each coefficient's text is built once per call, keyed by the
# Scalar object, and a group of one term skips the sibling collapse.

# hash(Scalar(-1)) == hash(Scalar(-2)), so text looked up by hash would print them alike
_COEFFS = [Scalar(1), Scalar(-1), Scalar(-2), Scalar(Fraction(1, 2)), Scalar(0, -1), Scalar(Fraction(-3, 7), 2)]

# per width: the class, its canonical form, its two printers, and the dense reference
# with the name under which the printers look up the canonical form
_PRINTERS = {
    1: (AlgebraElement, canonical_form, render_element, serialize_element, dense_canonical_form, "canonical_form"),
    2: (TensorElement, canonical_tensor_form, render_tensor, serialize_tensor, dense_canonical_tensor_form,
        "canonical_tensor_form"),
}


def _keys(width):
    """Keys of several groups, component-1 legs among them, and a complete sibling family."""
    monos = [monomial(1), monomial(2), monomial(2, (1,)), monomial(3, (2,), (1,)), monomial(6, (5, 1), (2,))]
    family = [monomial(3, (2, i), (1, i)) for i in (1, 2, 3)]
    if width == 1:
        return monos + family
    return list(product(monos, repeat=2)) + [(monomial(1), leg) for leg in family]


@pytest.mark.parametrize("width", [1, 2])
def test_output_is_the_same_for_shared_and_distinct_equal_coefficients(width):
    cls, canon, render, serialize, _, _ = _PRINTERS[width]
    keys = _keys(width)
    for value in _COEFFS:
        shared = cls._raw(dict.fromkeys(keys, value))
        distinct = cls._raw({key: Scalar(value.re, value.im) for key in keys})
        assert len(canon(distinct)) < len(keys)  # the family collapsed
        assert (render(shared), serialize(shared)) == (render(distinct), serialize(distinct))


@pytest.mark.parametrize("width", [1, 2])
def test_different_coefficients_print_apart(width):
    """Printed whole, each term reads as it does printed alone, where no other coefficient's text is at hand."""
    cls, canon, render, serialize, _, _ = _PRINTERS[width]
    for shift in range(len(_COEFFS)):
        x = cls._raw({key: _COEFFS[(j + shift) % len(_COEFFS)] for j, key in enumerate(_keys(width))})
        terms = canon(x).terms()
        assert len({c for _, c in terms}) >= 4
        alone = [cls._raw({key: c}) for key, c in terms]
        assert render(x) == " + ".join(map(render, alone))
        assert serialize(x) == "\n".join(map(serialize, alone))


@pytest.mark.parametrize("expr", [
    "I(2) + s(2,1)*s(2,1)^*",
    "s(2,1)*s(2,1)^* + s(2,2)*s(2,2)^*",
    "[1/2] * s(3,2) + s(3,2)*s(3,1)*s(3,1)^*",
    "s(2,1)*s(2,2)*s(2,2)^* + s(2,1)*s(2,1)*s(2,1)^*",
    "[5] * I(1) + s(4,3)",
])
def test_two_term_groups_match_dense_engine(expr):
    """Two terms of one group are pushed down, collapsed, or left as they are."""
    x = parse_element(expr)
    assert canonical_form(x) == dense_canonical_form(x)
    expected = reference_strings(x, dense_canonical_form, render_element, serialize_element, "canonical_form")
    assert (render_element(x), serialize_element(x)) == expected
    t = simple_tensor(unit(1), x) + simple_tensor(x, unit(1))
    assert canonical_tensor_form(t) == dense_canonical_tensor_form(t)


@st.composite
def lone_term_groups(draw, width):
    """Terms of distinct (component, degree) leg signatures, so every group holds one term."""
    legs = st.tuples(*[monomials(max_n=5, max_len=3)] * width)
    terms = {}
    for key in draw(st.lists(legs, max_size=6)):
        signature = tuple((m.n, m.degree) for m in key)
        terms.setdefault(signature, (key if width > 1 else key[0], draw(scalars(nonzero=True))))
    return _PRINTERS[width][0](terms.values())


@pytest.mark.parametrize("width", [1, 2])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_one_term_groups_match_dense_engine(width, data):
    _, canon, render, serialize, dense, name = _PRINTERS[width]
    x = data.draw(lone_term_groups(width))
    assert canon(x) == dense(x) == x
    assert (render(x), serialize(x)) == reference_strings(x, dense, render, serialize, name)
