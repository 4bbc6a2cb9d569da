import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import elements
from cuntzsum import (
    InputError,
    ParseError,
    Scalar,
    ZERO_ELEMENT,
    canonical_form,
    canonical_tensor_form,
    delta,
    deserialize_element,
    equals,
    from_monomial,
    generator,
    monomial,
    parse_element,
    render_element,
    render_tensor,
    serialize_element,
    serialize_tensor,
    simple_tensor,
    tensor_unit,
    unit,
)
from cuntzsum import exprs


class TestParser:
    def test_generator(self):
        assert parse_element("s(4,1)") == generator(4, 1)

    def test_mismatched_indices_reduce_to_zero(self):
        assert parse_element("s(2,1)^* * s(2,2)").is_zero()

    def test_convex_combination_collapses(self):
        text = "[1/2] * I(2) + [1/2] * (s(2,1)*s(2,1)^* + s(2,2)*s(2,2)^*)"
        assert equals(parse_element(text), unit(2))

    def test_scalars(self):
        assert parse_element("[3] * I(1)") == unit(1).scale(3)
        assert parse_element("[-1/2] * I(2)") == unit(2).scale(Fraction(-1, 2))
        assert parse_element("[1/2+1/3i] * I(1)") == unit(1).scale(
            Scalar(Fraction(1, 2), Fraction(1, 3))
        )
        assert parse_element("[0-1i] * I(1)") == unit(1).scale(Scalar(0, -1))

    def test_scalar_without_star(self):
        assert parse_element("[2] I(3)") == unit(3).scale(2)

    def test_group_adjoint(self):
        x = parse_element("(s(2,1) + s(2,2))^*")
        assert x == generator(2, 1).adjoint() + generator(2, 2).adjoint()

    def test_zero(self):
        assert parse_element("0").is_zero()
        assert parse_element("(0)").is_zero()

    def test_component_one_identification(self):
        assert parse_element("s(1,1)") == unit(1)
        assert parse_element("s(1,1)^*") == unit(1)

    def test_whitespace_insensitive(self):
        a = parse_element(" s(2,1) * s(2,2)^* + [2]*I(2) ")
        b = parse_element("s(2,1)*s(2,2)^*+[2]*I(2)")
        assert a == b

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_element("s(2,1) + ")
        assert info.value.position is not None
        with pytest.raises(ParseError):
            parse_element("s(2 1)")
        with pytest.raises(ParseError):
            parse_element("[1/0] * I(1)")
        # lexical errors come first; then the first error in reading order
        with pytest.raises(ParseError, match="'@'"):
            parse_element("s(2,5) + @")
        with pytest.raises(ParseError):
            parse_element("s(2,1) + + s(2,5)")

    def test_nesting_bound(self):
        depth = exprs.MAX_NESTING
        assert parse_element("(" * depth + "s(2,1)" + ")" * depth) == generator(2, 1)
        with pytest.raises(ParseError, match="nested deeper"):
            parse_element("(" * (depth + 1) + "s(2,1)" + ")" * (depth + 1))

    def test_index_errors_name_the_generator(self):
        with pytest.raises(InputError, match=r"s\(2,3\)"):
            parse_element("s(2,3)")
        with pytest.raises(InputError, match=r"s\(1,2\)"):
            parse_element("s(1,2)")
        with pytest.raises(InputError, match=r"s\(2,5\)"):
            parse_element("s(2,5) +")  # reported before the syntax error after it
        with pytest.raises(InputError):
            parse_element("I(0)")

    def test_long_sum_parses_in_linear_time(self):
        # Adding term by term copied the running sum, so this took O(T^2).
        text = " + ".join(f"s({n},1)" for n in range(2, 40_002))
        start = time.perf_counter()
        x = parse_element(text)
        elapsed = time.perf_counter() - start
        assert len(x) == 40_000
        assert x.coefficient(monomial(40_001, (1,))) == Scalar(1)
        assert elapsed < 5.0


class TestRenderer:
    def test_zero(self):
        assert render_element(ZERO_ELEMENT) == "0"

    def test_canonicalizes_before_printing(self):
        spread = from_monomial(monomial(2, (1,), (1,))) + from_monomial(
            monomial(2, (2,), (2,))
        )
        assert render_element(spread) == "I(2)"

    def test_monomial_layout(self):
        x = from_monomial(monomial(3, (2, 1), (3,)), Scalar(Fraction(1, 2)))
        assert render_element(x) == "[1/2] * s(3,2)*s(3,1)*s(3,3)^*"

    def test_term_order(self):
        # global order: component, then gauge degree, then nu-length
        x = generator(3, 1) + unit(2) + generator(2, 1).adjoint()
        assert render_element(x) == "s(2,1)^* + I(2) + s(3,1)"

    def test_tensor_golden(self):
        got = render_tensor(delta(generator(4, 1)))
        assert got == "(I(1)) ⊗ (s(4,1)) + (s(2,1)) ⊗ (s(2,1)) + (s(4,1)) ⊗ (I(1))"

    def test_tensor_collapse(self):
        spread = simple_tensor(
            from_monomial(monomial(2, (1,), (1,))) + from_monomial(monomial(2, (2,), (2,))),
            unit(3),
        )
        assert render_tensor(spread) == "(I(2)) ⊗ (I(3))"
        assert canonical_tensor_form(spread) == tensor_unit(2, 3)


class TestSerialization:
    def test_element_lines(self):
        x = generator(2, 1).scale(Scalar(Fraction(1, 2), Fraction(-1, 3))) + unit(3)
        wire = serialize_element(x)
        assert wire.splitlines() == [
            "2 | 1 | - | 1/2 | -1/3",
            "3 | - | - | 1/1 | 0/1",
        ]
        assert deserialize_element(wire) == canonical_form(x)

    def test_zero_is_empty(self):
        assert serialize_element(ZERO_ELEMENT) == ""
        assert deserialize_element("").is_zero()

    def test_tensor_lines(self):
        wire = serialize_tensor(delta(generator(4, 1)))
        assert wire.splitlines() == [
            "1 | - | - ⊗ 4 | 1 | - | 1/1 | 0/1",
            "2 | 1 | - ⊗ 2 | 1 | - | 1/1 | 0/1",
            "4 | 1 | - ⊗ 1 | - | - | 1/1 | 0/1",
        ]

    def test_bad_line_rejected(self):
        with pytest.raises(InputError):
            deserialize_element("2 | 1 | -")

    @pytest.mark.parametrize(
        "line",
        ["x | - | - | 1/1 | 0/1", "2 | a | - | 1 | 0", "2 | 1 | - | 1/0 | 0/1"],
    )
    def test_bad_field_names_its_line(self, line):
        with pytest.raises(InputError, match="^line 2: "):
            deserialize_element("2 | 1 | - | 1/1 | 0/1\n" + line)


@given(elements(max_n=6, max_len=2, max_terms=3))
@settings(max_examples=80)
def test_round_trip_preserves_equality_class(x):
    text = render_element(x)
    back = parse_element(text)
    assert equals(back, x)
    assert render_element(back) == text
    assert deserialize_element(serialize_element(x)) == canonical_form(x)


@given(
    elements(max_n=6, max_len=2, max_terms=2),
    elements(max_n=6, max_len=2, max_terms=2),
    elements(max_n=8, max_len=2, max_terms=2),
)
@settings(max_examples=60)
def test_tensor_canonical_form_properties(x, y, z):
    t = simple_tensor(x, y) + delta(z)
    ct = canonical_tensor_form(t)
    assert ct.equals(t)
    assert canonical_tensor_form(ct) == ct
    assert render_tensor(t) == render_tensor(ct)
