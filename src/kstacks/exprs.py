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

import re
import sys
from operator import mod

from .groupring import GroupRingElement, _combine, _power, _product


class ParseError(ValueError):
    """Malformed group-ring expression."""


# groups, tried in order at each position: monomial, unterminated 't^[',
# integer, name, operator, any other character; blanks match no group.
# [^\W\d] also takes digits such as '²' that are not decimal, so _tokenize
# checks that a name starts with a letter or '_'
_TOKEN = re.compile(r"""\s+|(t\^\[[^\]]*\])|(t\^\[)|([0-9]+)|([^\W\d]\w*'?)|([-+*^()])|(.)""", re.S)


def _tokenize(text):
    """(kind, value) pairs of ``text``, ending in ("end", None); an operator
    is its own kind."""
    tokens = []
    for mono, unterminated, num, name, op, bad in _TOKEN.findall(text):
        if mono:
            tokens.append(("mono", mono[3:-1]))
        elif num:  # ASCII digits fail only on the interpreter's int-from-text limit
            tokens.append(("int", ascii_int(num)))
        elif op:
            tokens.append((op, op))
        elif name and (name[0].isalpha() or name[0] == "_"):
            tokens.append(("name", name))
        elif unterminated:
            raise ParseError("unterminated monomial bracket")
        elif bad or name:
            raise ParseError(f"unexpected character {(bad or name)[0]!r}")
    tokens.append(("end", None))
    return tokens


def ascii_int(text):
    """The integer that an optional sign and ASCII digits 0-9 spell, the
    grammar's INT with a sign.  Anything else raises ValueError, also text
    that ``int()`` takes: other scripts' digits, '_' separators, spaces,
    and digits past the interpreter's int-from-text limit, with a message
    that names their number."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad integer {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"an integer literal of {len(digits)} digits exceeds the "
                         f"{sys.get_int_max_str_digits()}-digit limit") from None


def _parse_int_list(text, what):
    out = []
    for piece in text.split(",") if text.strip() else ():
        piece = piece.strip()
        try:
            out.append(ascii_int(piece))
        except ValueError as exc:
            raise ParseError(f"{exc} in {what}") from None
    return tuple(out)


class _Parser:
    """Recursive descent over the grammar, evaluating on term dicts keyed
    like ``GroupRingElement.terms``; ``parse`` wraps the result once."""

    def __init__(self, tokens, group, symbols):
        self.tokens = tokens
        self.pos = 0
        self.group = group
        self.symbols = symbols or {}
        self.r, self.torsion = group.free_rank, group.torsion

    def peek(self):
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def parse(self):
        terms = self.expr()
        if self.peek() != "end":
            raise ParseError(f"trailing input at {self.tokens[self.pos][1]!r}")
        return GroupRingElement._of(self.group, terms)

    def expr(self):
        negate = self.peek() == "-"
        if negate:
            self.advance()
        value = self.term()
        if negate:
            value = {key: -c for key, c in value.items()}
        while self.peek() in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            value = _combine(value, self.term(), sign)
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.advance()
            value = _product(value, self.factor(), self.r, self.torsion)
        return value

    def factor(self):
        value = self.atom()
        while self.peek() == "^":
            self.advance()
            kind, n = self.advance()
            if kind == "-":
                raise ParseError("powers must be nonnegative integers")
            if kind != "int":
                raise ParseError(f"expected an exponent, got {n!r}")
            value = _power(value, n, self.r, self.torsion)
        return value

    def atom(self):
        kind, value = self.advance()
        if kind == "int":
            return {(0,) * (self.r + len(self.torsion)): value} if value else {}
        if kind == "mono":
            return {self.monomial(value): 1}
        if kind == "name":
            symbol = self.symbols.get(value)
            if symbol is None:
                raise ParseError(f"unknown symbol {value!r}; generic inputs must use the t^[...] monomial form")
            self.group.require_same(symbol.group)
            return symbol.terms
        if kind == "(":
            value = self.expr()
            kind, got = self.advance()
            if kind != ")":
                raise ParseError(f"expected ')', got {got!r}")
            return value
        raise ParseError(f"unexpected token {value!r}")

    def monomial(self, body):
        """The term key of the monomial t^[body]: free exponents, then
        residues reduced mod the torsion."""
        free_text, semi, tors_text = body.partition(";")
        free = _parse_int_list(free_text, "free exponents")
        tors = _parse_int_list(tors_text, "torsion residues") if semi else ()
        if len(free) != self.r or len(tors) != len(self.torsion):
            raise ParseError(
                f"monomial exponent shape [{body}] does not match the group "
                f"(free rank {self.r}, {len(self.torsion)} torsion factors)"
            )
        return free + tuple(map(mod, tors, self.torsion))


def parse_element(text, group, symbols=None):
    """Parse an expression into a GroupRingElement over ``group``.  Each
    level of parentheses takes a few frames of the recursive descent, and
    nesting past the interpreter's recursion limit raises ParseError.  This
    is the one place where a ValueError from below (``ascii_int``, the
    POWER_BUDGET guards, a symbol over another group) becomes a ParseError
    with the same message."""
    try:
        return _Parser(_tokenize(text), group, symbols).parse()
    except RecursionError:
        raise ParseError("the expression nests too deeply") from None
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None
