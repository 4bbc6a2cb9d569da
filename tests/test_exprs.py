import sys
import time
from fractions import Fraction
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import elements
from cuntzsum import (
    AlgebraElement,
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


# Each case: the input, then the exception type, message and position it
# raises.  One case per symbol token, then the lexical, length, nesting,
# denominator, imaginary-unit and index errors, in reading order.
MALFORMED = [
    ("s(2,1) + + s(2,2)", ParseError, "expected a factor, found '+' (at position 9)", 9),
    ("s(2,1) - s(2,2)", ParseError, "unexpected trailing input '-' (at position 7)", 7),
    ("* s(2,1)", ParseError, "expected a factor, found '*' (at position 0)", 0),
    ("s((2,1)", ParseError, "expected component index, found '(' (at position 2)", 2),
    ("s(2,1))", ParseError, "unexpected trailing input ')' (at position 6)", 6),
    ("s(2,1) [2]", ParseError, "unexpected trailing input '[' (at position 7)", 7),
    ("]", ParseError, "expected a factor, found ']' (at position 0)", 0),
    ("s(2,,1)", ParseError, "expected generator index, found ',' (at position 4)", 4),
    ("s(2/1)", ParseError, "expected ',', found '/' (at position 3)", 3),
    ("^* s(2,1)", ParseError, "expected a factor, found '^*' (at position 0)", 0),
    ("I(2)^*", ParseError, "unexpected trailing input '^*' (at position 4)", 4),
    ("s(2,1) @", ParseError, "unexpected character '@' (at position 7)", 7),
    ("s(2,1)^ ", ParseError, "expected '^*' (at position 6)", 6),
    pytest.param(
        "s(2," + "9" * 5000 + ")", ParseError,
        "generator index has too many digits (5000) (at position 4)", 4,
        marks=pytest.mark.skipif(
            not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4900,
            reason="needs the default limit on int/str conversion digits",
        ),
        id="over-long-integer",
    ),
    ("(" * 201 + "s(2,1)" + ")" * 201, ParseError,
     "parentheses nested deeper than 200 (at position 200)", 200),
    ("[1/0] * I(2)", ParseError, "zero denominator (at position 3)", 3),
    ("[1+2s] * I(2)", ParseError, "expected 'i' after imaginary part (at position 4)", 4),
    ("[1+2] * I(2)", ParseError, "expected 'i', found ']' (at position 4)", 4),
    ("", ParseError, "expected a factor, found '' (at position 0)", 0),
    ("0 0", ParseError, "expected a factor, found '0' (at position 0)", 0),
    ("s(0,1)", InputError, "generator s(0,1): component must be >= 1", None),
    ("s(2,3)", InputError, "generator s(2,3): index 3 out of range 1..2", None),
    ("s(2,0)", InputError, "generator s(2,0): index 0 out of range 1..2", None),
    ("I(0)", InputError, "unit I(0): component must be >= 1", None),
    ("s(2,5) + + s(2,1)", InputError, "generator s(2,5): index 5 out of range 1..2", None),
    ("s(2,5) + @", ParseError, "unexpected character '@' (at position 9)", 9),
]


@pytest.mark.parametrize("text, kind, message, position", MALFORMED)
def test_malformed_input_raises_the_first_error_in_reading_order(text, kind, message, position):
    with pytest.raises(ValueError) as info:
        parse_element(text)
    assert type(info.value) is kind
    assert str(info.value) == message
    assert getattr(info.value, "position", None) == position


def _sum_text(n, indexes):
    return "(" + " + ".join(f"s({n},{i})" for i in indexes) + ")"


class TestProductCap:
    def test_a_product_at_the_cap_is_read(self):
        assert exprs.MAX_PRODUCT_TERMS == 10_000
        x = parse_element(f"{_sum_text(100, range(1, 101))} * {_sum_text(100, range(1, 101))}")
        assert len(x) == 10_000

    def test_a_product_past_the_cap_is_refused_before_it_is_made(self, monkeypatch):
        monkeypatch.setattr(AlgebraElement, "__mul__", None)  # any product would raise TypeError
        text = f"{_sum_text(101, range(1, 102))} * {_sum_text(100, range(1, 101))}"
        with pytest.raises(InputError) as info:
            parse_element(text)
        assert str(info.value) == "product of 101 by 100 terms would pair more than 10000"

    def test_two_term_sums(self):
        factor = "(s(2,1)+s(2,2))"
        assert len(parse_element("*".join([factor] * 13))) == 8192
        start = time.perf_counter()
        with pytest.raises(InputError, match="^product of 8192 by 2 terms would pair more than 10000$"):
            parse_element("*".join([factor] * 20))
        # the uncapped product took about 70 s
        assert time.perf_counter() - start < 5.0

    def test_errors_keep_reading_order(self):
        big = "*".join(["(s(2,1)+s(2,2))"] * 13)
        # a factor's own error comes before the check on its product
        with pytest.raises(InputError, match=r"s\(3,4\)"):
            parse_element(f"{big} * (s(3,1) + s(3,4))")
        # the product's error comes before any error after it
        with pytest.raises(InputError, match="^product of 8192 by 2 terms"):
            parse_element(f"{big} * (s(2,1) + s(2,2)) * s(3,4) + s(2,")
        # lexical errors still come first
        with pytest.raises(ParseError, match="'@'"):
            parse_element(f"{big} * (s(2,1) + s(2,2)) @")

    def test_products_through_the_api_are_not_capped(self):
        x = parse_element(_sum_text(101, range(1, 102)))
        y = parse_element(_sum_text(101, range(1, 101)))
        assert len(x * y) == 10_100


_BIG = "*".join(["(s(2,1)+s(2,2))"] * 13)  # 8,192 terms, after 16,380 pairs
_BUDGET_ERROR = f"^the products of this input would pair more than {exprs.MAX_PARSE_PAIRS} terms in all$"


class TestParseBudget:
    def test_an_input_within_the_budget_is_read(self):
        assert exprs.MAX_PARSE_PAIRS == 40_000
        # 16,380 + 2 * 8,192 = 32,764 pairs; a third generator would make 40,956
        assert len(parse_element(f"{_BIG}*s(2,1)*s(2,1)")) == 8192

    def test_an_input_past_the_budget_is_refused_before_its_product(self, monkeypatch):
        text = f"{_BIG}*s(2,1)*s(2,1)*s(2,1)"
        products = 0
        mul = AlgebraElement.__mul__

        def counted(self, other):
            nonlocal products
            products += 1
            return mul(self, other)

        monkeypatch.setattr(AlgebraElement, "__mul__", counted)
        with pytest.raises(InputError, match=_BUDGET_ERROR):
            parse_element(text)
        assert products == 14

    def test_single_generators_after_a_large_product(self):
        # each factor re-pairs all 8,192 terms: 100 of them took 13.6 s unbounded
        start = time.perf_counter()
        with pytest.raises(InputError, match=_BUDGET_ERROR):
            parse_element(_BIG + "*s(2,1)" * 100)
        assert time.perf_counter() - start < 5.0

    def test_products_in_nested_groups_count(self):
        # each group is a term of its own, with one product of 8,192 by 1
        start = time.perf_counter()
        with pytest.raises(InputError, match=_BUDGET_ERROR):
            parse_element("(" * 100 + _BIG + ")*s(2,1)" * 100)
        assert time.perf_counter() - start < 5.0

    def test_the_terms_of_a_sum_share_one_budget(self):
        # each term alone pairs 16,380: together they pass 40,000 in the third
        assert len(parse_element(f"{_BIG} + {_BIG}")) == 8192
        for text in (f"{_BIG} + {_BIG} + {_BIG}", f"({_BIG}) + (({_BIG}) + {_BIG})"):
            with pytest.raises(InputError, match=_BUDGET_ERROR):
                parse_element(text)
        # ten terms of 32,764 pairs each (2,237 characters) took 5.5 s unbounded
        term = f"{_BIG}*s(2,1)*s(2,1)"
        start = time.perf_counter()
        with pytest.raises(InputError, match=_BUDGET_ERROR):
            parse_element(" + ".join([term] * 10))
        assert time.perf_counter() - start < 5.0

    def test_the_budget_keeps_the_place_of_the_product_cap_in_reading_order(self):
        past = f"{_BIG}*s(2,1)*s(2,1)"
        # a factor's own error comes before the check on its product
        with pytest.raises(InputError, match=r"s\(2,3\)"):
            parse_element(f"{past}*s(2,3)")
        # the budget's error comes before any error after it
        with pytest.raises(InputError, match=_BUDGET_ERROR):
            parse_element(f"{past}*s(2,1)*s(3,4) + s(2,")
        # lexical errors still come first
        with pytest.raises(ParseError, match="'@'"):
            parse_element(f"{past}*s(2,1) @")


# The grammar, each rule drawn with the value it denotes: the value is
# built from `generator`, `adjoint`, `unit`, `Scalar`, `+`, `*` and `scale`
# alone, never by the parser.
_COMPONENTS = st.sampled_from([1, 2, 3, 4, 6])
_SEP = st.sampled_from(["", " "])


@st.composite
def _rational_texts(draw):
    num = draw(st.integers(-5, 5))
    if draw(st.booleans()):
        return str(num), Fraction(num)
    den = draw(st.integers(1, 4))
    return f"{num}/{den}", Fraction(num, den)


@st.composite
def _scalar_texts(draw):
    re_text, re = draw(_rational_texts())
    if draw(st.booleans()):
        return f"[{re_text}]", Scalar(re)
    sign = draw(st.sampled_from(["+", "-"]))
    im_text, im = draw(_rational_texts())
    return f"[{re_text}{sign}{im_text}i]", Scalar(re, im if sign == "+" else -im)


@st.composite
def _factor_texts(draw, depth):
    kind = draw(st.sampled_from(["s", "s^*", "I", "()"] if depth else ["s", "s^*", "I"]))
    if kind == "()":
        text, value = draw(_element_texts(depth - 1))
        if draw(st.booleans()):
            return f"({text})^*", value.adjoint()
        return f"({text})", value
    n = draw(_COMPONENTS)
    if kind == "I":
        return f"I({n})", unit(n)
    i = draw(st.integers(1, n))
    if kind == "s^*":
        return f"s({n},{i})^*", generator(n, i).adjoint()
    return f"s({n},{i})", generator(n, i)


@st.composite
def _term_texts(draw, depth):
    factors = draw(st.lists(_factor_texts(depth), min_size=1, max_size=3))
    sep = draw(_SEP)
    text = f"{sep}*{sep}".join(t for t, _ in factors)
    value = factors[0][1]
    for _, v in factors[1:]:
        value = value * v
    if draw(st.booleans()):
        scalar_text, c = draw(_scalar_texts())
        star = draw(st.sampled_from([" * ", "*", " ", ""]))
        return f"{scalar_text}{star}{text}", value.scale(c)
    return text, value


@st.composite
def _element_texts(draw, depth=2):
    if draw(st.integers(0, 7)) == 0:
        return "0", ZERO_ELEMENT
    terms = draw(st.lists(_term_texts(depth), min_size=1, max_size=3))
    sep = draw(_SEP)
    value = ZERO_ELEMENT
    for _, v in terms:
        value = value + v
    return f"{sep}+{sep}".join(t for t, _ in terms), value


@given(_element_texts())
@settings(max_examples=150, deadline=None)
def test_parsing_matches_the_grammar_evaluated_by_hand(case):
    text, value = case
    got = parse_element(text)
    assert equals(got, value)
    assert render_element(got) == render_element(value)


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
        [
            "x | - | - | 1/1 | 0/1", "2 | a | - | 1 | 0", "2 | 1 | - | 1/0 | 0/1",
            # only integers and integer fractions, as serialized; `1e5000000` built 10^5000000
            "2 | 1 | - | 1.5 | 0", "2 | 1 | - | 1e3 | 0", "2 | 1 | - | 1_0 | 0",
            "2 | 1 | - | +3 | 0", "2 | 1 | - | 1 | 1e5000000",
            # components and letters are ASCII digits only, an empty word only `-`
            "+2 | 0_1 | - | 1 | 0", "２ | 1 | - | 1 | 0", "2 | 0_1 | - | 1 | 0", "2 | +1 | - | 1 | 0",
            "2 | ١ | - | 1 | 0", "2 | 1, 2 | - | 1 | 0", "2 | 1 | | 1 | 0", "-2 | 1 | - | 1 | 0",
        ],
    )
    def test_bad_field_names_its_line(self, line):
        with pytest.raises(InputError, match="^line 2: "):
            deserialize_element("2 | 1 | - | 1/1 | 0/1\n" + line)


def test_seeded_wire_texts_match_the_validating_build():
    """Lines in any order, with repeated monomials that sum or cancel and zero coefficients,
    read to the element `AlgebraElement` builds of the same terms."""
    rng = Random(31)
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(0, 8)):
            n = rng.randint(1, 4)
            mu = [rng.randint(1, n) for _ in range(rng.randint(0, 2))]
            mono = monomial(n, mu, [rng.randint(1, n)] * rng.randint(0, 1))
            coeff = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-1, 1), 2))
            terms.append((mono, coeff))
            if rng.random() < 0.3:  # the same monomial again, to cancel it or add to it
                terms.append((mono, -coeff if rng.random() < 0.5 else Scalar(1)))
        rng.shuffle(terms)
        # str(Fraction) writes a bare integer or n/d, as the wire format reads them
        text = "\n".join(f"{exprs._mono_fields(m)} | {c.re} | {c.im}" for m, c in terms)
        got = deserialize_element(text)
        assert type(got) is AlgebraElement and got == AlgebraElement(terms)
    assert deserialize_element("2 | 1 | - | 1/2 | 0\n3 | - | - | 0 | 0/5\n2 | 1 | - | -1/2 | 0").is_zero()
    pair = deserialize_element("2 | 1 | - | 1/2 | 0\n2 | 1 | - | 1/3 | -1")
    assert pair == AlgebraElement({monomial(2, (1,)): Scalar(Fraction(5, 6), -1)})


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
