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

from fractions import Fraction

from .algebra import (
    AlgebraElement,
    CuntzMonomial,
    ZERO_ELEMENT,
    _accumulate,
    canonical_form,
    from_monomial,
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

_SYMBOLS = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
    "/": "SLASH",
}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "^":
            if text[pos : pos + 2] == "^*":
                tokens.append(("DAGGER", "^*", pos))
                pos += 2
                continue
            raise ParseError("expected '^*'", pos)
        if ch in _SYMBOLS:
            tokens.append((_SYMBOLS[ch], ch, pos))
            pos += 1
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

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what or kind}, found {tok[1]!r}", tok[2])
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
        if self.peek()[0] == "INT" and self.peek()[1] == "0":
            save = self.pos
            self.advance()
            if self.peek()[0] in ("EOF", "RPAREN"):
                return ZERO_ELEMENT
            self.pos = save
        # One dict for the whole sum: adding term by term would copy it each time.
        data = _accumulate({}, self.term().items())
        while self.peek()[0] == "PLUS":
            self.advance()
            _accumulate(data, self.term().items())
        return AlgebraElement._raw(data)

    def term(self) -> AlgebraElement:
        coeff = None
        if self.peek()[0] == "LBRACK":
            coeff = self.scalar()
            if self.peek()[0] == "STAR":
                self.advance()
        value = self.factor()
        while self.peek()[0] == "STAR":
            self.advance()
            value = value * self.factor()
        return value if coeff is None else value.scale(coeff)

    def factor(self) -> AlgebraElement:
        tok = self.peek()
        if tok[0] == "NAME" and tok[1] == "s":
            self.advance()
            self.expect("LPAREN", "'(' after s")
            n = self.integer("component index")
            self.expect("COMMA", "','")
            i = self.integer("generator index")
            self.expect("RPAREN", "')'")
            if n < 1:
                raise InputError(f"generator s({n},{i}): component must be >= 1")
            if not 1 <= i <= n:
                raise InputError(f"generator s({n},{i}): index {i} out of range 1..{n}")
            if self.peek()[0] == "DAGGER":
                self.advance()
                return from_monomial(monomial(n, (), (i,)))
            return from_monomial(monomial(n, (i,)))
        if tok[0] == "NAME" and tok[1] == "I":
            self.advance()
            self.expect("LPAREN", "'(' after I")
            n = self.integer("component index")
            self.expect("RPAREN", "')'")
            if n < 1:
                raise InputError(f"unit I({n}): component must be >= 1")
            return unit(n)
        if tok[0] == "LPAREN":
            self.advance()
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
            self.depth += 1
            inner = self.element()
            self.depth -= 1
            self.expect("RPAREN", "')'")
            if self.peek()[0] == "DAGGER":
                self.advance()
                return inner.adjoint()
            return inner
        raise ParseError(f"expected a factor, found {tok[1]!r}", tok[2])

    def scalar(self) -> Scalar:
        self.expect("LBRACK", "'['")
        re = self.rational()
        im = Fraction(0)
        tok = self.peek()
        if tok[0] in ("PLUS", "MINUS"):
            sign = 1 if tok[0] == "PLUS" else -1
            self.advance()
            im = sign * self.rational()
            name = self.expect("NAME", "'i'")
            if name[1] != "i":
                raise ParseError("expected 'i' after imaginary part", name[2])
        self.expect("RBRACK", "']'")
        return Scalar(re, im)

    def rational(self) -> Fraction:
        sign = 1
        if self.peek()[0] == "MINUS":
            self.advance()
            sign = -1
        num = self.integer("integer")
        den = 1
        if self.peek()[0] == "SLASH":
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


def render_element(x: AlgebraElement) -> str:
    terms = canonical_form(x).terms()
    if not terms:
        return "0"
    return " + ".join(f"{_coeff_prefix(c)}{render_monomial(m)}" for m, c in terms)


def render_tensor(t: TensorElement) -> str:
    terms = canonical_tensor_form(t).terms()
    if not terms:
        return "0"
    return " + ".join(
        f"{_coeff_prefix(c)}({render_monomial(l)}) ⊗ ({render_monomial(r)})"
        for (l, r), c in terms
    )


# ---------------------------------------------------------------------------
# Line-oriented wire format

def _word_field(word: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in word) if word else "-"


def _parse_word_field(field: str) -> tuple[int, ...]:
    field = field.strip()
    if field == "-":
        return ()
    return tuple(int(part) for part in field.split(","))


def _coeff_fields(c: Scalar) -> str:
    return " | ".join(f"{_int_text(q.numerator)}/{_int_text(q.denominator)}" for q in (c.re, c.im))


def serialize_element(x: AlgebraElement) -> str:
    lines = []
    for mono, coeff in canonical_form(x).terms():
        lines.append(
            f"{mono.n} | {_word_field(mono.mu)} | {_word_field(mono.nu)} | {_coeff_fields(coeff)}"
        )
    return "\n".join(lines)


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
            mono = monomial(int(fields[0]), _parse_word_field(fields[1]), _parse_word_field(fields[2]))
            coeff = Scalar(Fraction(fields[3]), Fraction(fields[4]))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"line {lineno}: bad field: {exc}") from None
        terms.append((mono, coeff))
    return AlgebraElement(terms)


def serialize_tensor(t: TensorElement) -> str:
    lines = []
    for (l, r), coeff in canonical_tensor_form(t).terms():
        left = f"{l.n} | {_word_field(l.mu)} | {_word_field(l.nu)}"
        right = f"{r.n} | {_word_field(r.mu)} | {_word_field(r.nu)}"
        lines.append(f"{left} ⊗ {right} | {_coeff_fields(coeff)}")
    return "\n".join(lines)
