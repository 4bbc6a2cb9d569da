"""Expression grammar, pretty-printer, and the line-oriented wire format.

Grammar (whitespace insensitive)::

    element  := '0' | term ('+' term)*
    term     := scalar ['*'] factor ('*' factor)*
              | factor ('*' factor)*
    factor   := 's(' int ',' int ')' ['^*']
              | 'I(' int ')'
              | '(' element ')' ['^*']
    scalar   := '[' rational [('+'|'-') rational 'i'] ']'
    rational := ['-'] int ['/' int]

Printing canonicalizes first, then emits terms in the global monomial
order (component, gauge degree, nu-length, nu, mu), so parsing a printed
element reproduces its equality class byte-for-byte.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    CuntzMonomial,
    LinearCombination,
    ZERO_ELEMENT,
    _accumulate,
    canonical_form,
    generator,
    monomial,
    unit,
)
from .errors import InputError, ParseError
from .scalars import ONE, Scalar, _int_text
from .tensors import TensorElement, canonical_tensor_form


# ---------------------------------------------------------------------------
# Tokenizer

# Deepest parenthesis nesting the parser accepts.  Each level costs a few
# interpreter frames, so deeper input would end in RecursionError.
MAX_NESTING = 200

# Most term pairs (operand term counts multiplied) one product in parsed
# input may make.  A product of k two-term sums pairs 2^k: as a `norm`
# command, k = 13 (8,192 terms) takes about 0.5 s, while k = 16 took 4.4 s
# and 68 MB uncapped, and each further factor doubles that.
MAX_PRODUCT_TERMS = 10_000

# Most term pairs all the products in one parsed input may make together.
# The product cap alone bounds each product, not their number: a product
# that reached 8,192 terms and went on multiplying by single generators
# paired all of them once per factor, and 100 such factors (907
# characters) took 13.6 s as an `eq` command.
MAX_PARSE_PAIRS = 40_000


def _tokenize(text: str):
    """``(kind, text, position)`` triples; a symbol's kind is the symbol itself."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "^" and text[pos + 1 : pos + 2] != "*":
            raise ParseError("expected '^*'", pos)
        if ch in "+-*()[],/^":
            symbol = "^*" if ch == "^" else ch
            tokens.append((symbol, symbol, pos))
            pos += len(symbol)
            continue
        # isdecimal accepts exactly the digits int() reads (isdigit also takes '²')
        if ch.isdecimal():
            start = pos
            while pos < len(text) and text[pos].isdecimal():
                pos += 1
            tokens.append(("INT", text[start:pos], start))
            continue
        if ch in "sIi":
            tokens.append(("NAME", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent that evaluates as it reads: each rule returns its value."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.pairs = 0  # term pairs made by every product read so far

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what or repr(kind)}, found {tok[1]!r}", tok[2])
        return tok

    def integer(self, what) -> int:
        """The value of the next token, which must be an integer literal."""
        tok = self.expect("INT", what)
        try:
            return int(tok[1])
        except ValueError:
            # past the interpreter's limit on digits converted from text
            raise ParseError(f"{what} has too many digits ({len(tok[1])})", tok[2]) from None

    def parse(self) -> AlgebraElement:
        value = self.element()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return value

    def element(self) -> AlgebraElement:
        # only an INT token has the text "0", and it is never the last token
        if self.peek()[1] == "0" and self.tokens[self.pos + 1][0] in ("EOF", ")"):
            self.advance()
            return ZERO_ELEMENT
        # One dict for the whole sum: adding term by term would copy it each time.
        data = _accumulate({}, self.term().items())
        while self.peek()[0] == "+":
            self.advance()
            _accumulate(data, self.term().items())
        return AlgebraElement._raw(data)

    def term(self) -> AlgebraElement:
        coeff = None
        if self.peek()[0] == "[":
            coeff = self.scalar()
            if self.peek()[0] == "*":
                self.advance()
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            right = self.factor()
            pairs = len(value) * len(right)
            if pairs > MAX_PRODUCT_TERMS:
                raise InputError(
                    f"product of {len(value)} by {len(right)} terms would pair more than {MAX_PRODUCT_TERMS}"
                )
            self.pairs += pairs
            if self.pairs > MAX_PARSE_PAIRS:
                raise InputError(f"the products of this input would pair more than {MAX_PARSE_PAIRS} terms in all")
            value = value * right
        return value if coeff is None else value.scale(coeff)

    def factor(self) -> AlgebraElement:
        tok = self.peek()
        if tok[0] == "NAME" and tok[1] == "s":
            self.advance()
            self.expect("(", "'(' after s")
            n = self.integer("component index")
            self.expect(",")
            i = self.integer("generator index")
            self.expect(")")
            if n < 1:
                raise InputError(f"generator s({n},{i}): component must be >= 1")
            if not 1 <= i <= n:
                raise InputError(f"generator s({n},{i}): index {i} out of range 1..{n}")
            if self.peek()[0] == "^*":
                self.advance()
                return AlgebraElement._raw({monomial(n, (), (i,)): ONE})
            return generator(n, i)
        if tok[0] == "NAME" and tok[1] == "I":
            self.advance()
            self.expect("(", "'(' after I")
            n = self.integer("component index")
            self.expect(")")
            if n < 1:
                raise InputError(f"unit I({n}): component must be >= 1")
            return unit(n)
        if tok[0] == "(":
            self.advance()
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
            self.depth += 1
            inner = self.element()
            self.depth -= 1
            self.expect(")")
            if self.peek()[0] == "^*":
                self.advance()
                return inner.adjoint()
            return inner
        raise ParseError(f"expected a factor, found {tok[1]!r}", tok[2])

    def scalar(self) -> Scalar:
        self.expect("[")
        re = self.rational()
        im = Fraction(0)
        tok = self.peek()
        if tok[0] in ("+", "-"):
            sign = 1 if tok[0] == "+" else -1
            self.advance()
            im = sign * self.rational()
            name = self.expect("NAME", "'i'")
            if name[1] != "i":
                raise ParseError("expected 'i' after imaginary part", name[2])
        self.expect("]")
        return Scalar(re, im)

    def rational(self) -> Fraction:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        num = self.integer("integer")
        den = 1
        if self.peek()[0] == "/":
            self.advance()
            den = self.integer("denominator")
            if den == 0:
                raise ParseError("zero denominator", self.tokens[self.pos - 1][2])
        return Fraction(sign * num, den)


def parse_element(text: str) -> AlgebraElement:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Pretty-printer

def render_monomial(mono: CuntzMonomial) -> str:
    if mono.is_unit():
        return f"I({mono.n})"
    parts = [f"s({mono.n},{i})" for i in mono.mu]
    parts += [f"s({mono.n},{i})^*" for i in reversed(mono.nu)]
    return "*".join(parts)


def _coeff_prefix(coeff: Scalar) -> str:
    return "" if coeff == ONE else f"[{coeff.literal()}] * "


def _coeff_texts(terms, text) -> dict:
    """``id(c) -> text(c)`` over the coefficients ``c`` of ``terms``, built once per distinct object.

    Terms pushed down or split from one term share one Scalar object.  The
    caller keeps ``terms``, so every id stays that of a live coefficient
    while the dict is read, and each call builds its own dict.
    """
    texts: dict[int, str] = {}
    for _, c in terms:
        if id(c) not in texts:
            texts[id(c)] = text(c)
    return texts


def render_element(x: AlgebraElement) -> str:
    terms = canonical_form(x).terms()
    if not terms:
        return "0"
    prefix = _coeff_texts(terms, _coeff_prefix)
    return " + ".join(f"{prefix[id(c)]}{render_monomial(m)}" for m, c in terms)


def render_tensor(t: TensorElement) -> str:
    terms = canonical_tensor_form(t).terms()
    if not terms:
        return "0"
    prefix = _coeff_texts(terms, _coeff_prefix)
    return " + ".join(
        f"{prefix[id(c)]}({render_monomial(l)}) ⊗ ({render_monomial(r)})"
        for (l, r), c in terms
    )


# ---------------------------------------------------------------------------
# Line-oriented wire format

def _word_field(word: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in word) if word else "-"


_INT_FIELD = re.compile(r"[0-9]+")  # what `_mono_fields` writes for a component or a letter


def _int_field(field: str) -> int:
    if not _INT_FIELD.fullmatch(field):
        raise ValueError(f"invalid literal for int() with base 10: {field!r}")
    return int(field)


def _parse_word_field(field: str) -> tuple[int, ...]:
    if field == "-":
        return ()
    return tuple(_int_field(part) for part in field.split(","))


_COEFF_FIELD = re.compile(r"-?[0-9]+(?:/[0-9]+)?")  # what `_coeff_fields` writes, or a bare integer


def _coeff_field(field: str) -> Fraction:
    if not _COEFF_FIELD.fullmatch(field):
        raise ValueError(f"Invalid literal for Fraction: {field!r}")
    return Fraction(field)


def _coeff_fields(c: Scalar) -> str:
    return " | ".join(f"{_int_text(q.numerator)}/{_int_text(q.denominator)}" for q in (c.re, c.im))


def _mono_fields(m: CuntzMonomial) -> str:
    return f"{m.n} | {_word_field(m.mu)} | {_word_field(m.nu)}"


def _wire_lines(x: LinearCombination) -> str:
    """A canonical form's lines: per term, each leg's fields joined by ``⊗``, then the coefficient."""
    legs, terms = x._legs, x.terms()
    fields = _coeff_texts(terms, _coeff_fields)
    return "\n".join(
        f"{' ⊗ '.join(map(_mono_fields, legs(key)))} | {fields[id(c)]}" for key, c in terms
    )


def serialize_element(x: AlgebraElement) -> str:
    return _wire_lines(canonical_form(x))


def deserialize_element(text: str) -> AlgebraElement:
    terms = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 5:
            raise InputError(f"line {lineno}: expected 5 fields, found {len(fields)}")
        try:
            mono = monomial(
                _int_field(fields[0]), _parse_word_field(fields[1]), _parse_word_field(fields[2])
            )
            coeff = Scalar(_coeff_field(fields[3]), _coeff_field(fields[4]))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"line {lineno}: bad field: {exc}") from None
        terms.append((mono, coeff))
    return AlgebraElement._raw(_accumulate({}, terms))


def serialize_tensor(t: TensorElement) -> str:
    return _wire_lines(canonical_tensor_form(t))
