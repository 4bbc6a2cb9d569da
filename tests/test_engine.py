"""Differential tests of the sparse core against the dense reference engines."""

from itertools import product
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import elements, scalars
from cuntzsum import (
    AlgebraElement,
    canonical_form,
    canonical_tensor_form,
    delta,
    from_monomial,
    monomial,
    render_element,
    render_tensor,
    serialize_element,
    serialize_tensor,
    simple_tensor,
    unit,
)
from cuntzsum import exprs
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
def component_sums(draw):
    n = draw(st.sampled_from((4, 6, 8, 12)))
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
