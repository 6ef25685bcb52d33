"""Parser for group-ring expressions.

The grammar accepted is the one the renderer emits, plus parentheses,
explicit ``*`` products, and nonnegative integer powers:

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' INT)*
    atom    := INT | 't^[a1,...,ar;c1,...,ck]' | NAME | '(' expr ')'

Monomial exponents are canonical coordinates of the grading group; the
torsion block after ';' is omitted for torsion-free groups.  Names are
resolved through a symbol table (bound only for built-in examples), so
parse-then-render is the identity on canonical forms.
"""

from __future__ import annotations

from .groupring import GroupRingElement


class ParseError(ValueError):
    """Malformed group-ring expression."""


_OPS = set("+-*^()")
_DIGITS = set("0123456789")


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r})"


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("t^[", i):
            end = text.find("]", i)
            if end < 0:
                raise ParseError("unterminated monomial bracket")
            tokens.append(_Token("mono", text[i + 3 : end]))
            i = end + 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j < n and text[j] == "'":
                j += 1
            tokens.append(_Token("name", text[i:j]))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}")
    tokens.append(_Token("end", None))
    return tokens


def ascii_int(text):
    """The integer that an optional sign and ASCII digits 0-9 spell, the
    grammar's INT with a sign.  Anything else raises ValueError, also text
    that ``int()`` takes: other scripts' digits, '_' separators, spaces."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def _parse_int_list(text, what):
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(ascii_int(piece))
        except ValueError:
            raise ParseError(f"bad integer {piece!r} in {what}") from None
    return tuple(out)


class _Parser:
    def __init__(self, tokens, group, symbols):
        self.tokens = tokens
        self.pos = 0
        self.group = group
        self.symbols = symbols or {}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, got {tok.value!r}")
        return tok

    def parse(self):
        value = self.expr()
        if self.peek().kind != "end":
            raise ParseError(f"trailing input at {self.peek().value!r}")
        return value

    def expr(self):
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        value = self.atom()
        while self.peek().kind == "^":
            self.advance()
            tok = self.advance()
            if tok.kind == "-":
                raise ParseError("powers must be nonnegative integers")
            if tok.kind != "int":
                raise ParseError(f"expected an exponent, got {tok.value!r}")
            value = value ** tok.value
        return value

    def atom(self):
        tok = self.advance()
        if tok.kind == "int":
            return GroupRingElement.constant(self.group, tok.value)
        if tok.kind == "mono":
            return self.monomial(tok.value)
        if tok.kind == "name":
            try:
                return self.symbols[tok.value]
            except KeyError:
                raise ParseError(
                    f"unknown symbol {tok.value!r}; generic inputs must use the "
                    "t^[...] monomial form"
                ) from None
        if tok.kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {tok.value!r}")

    def monomial(self, body):
        if ";" in body:
            free_text, tors_text = body.split(";", 1)
            free = _parse_int_list(free_text, "free exponents")
            tors = _parse_int_list(tors_text, "torsion residues")
        else:
            free = _parse_int_list(body, "free exponents")
            tors = ()
        if len(free) != self.group.free_rank or len(tors) != len(self.group.torsion):
            raise ParseError(
                f"monomial exponent shape [{body}] does not match the group "
                f"(free rank {self.group.free_rank}, "
                f"{len(self.group.torsion)} torsion factors)"
            )
        return GroupRingElement.monomial(self.group.element_canonical(free, tors))


def parse_element(text, group, symbols=None):
    """Parse an expression into a GroupRingElement over ``group``."""
    return _Parser(_tokenize(text), group, symbols).parse()
