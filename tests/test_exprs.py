import random

import pytest

from kstacks.abelian import FgAbelianGroup, GroupElement, group_from_relations
from kstacks.exprs import ParseError, _tokenize, parse_element
from kstacks.groupring import GroupRingElement
from kstacks.stacks import builtin_example, example_symbols


def test_basic_parsing():
    Z = FgAbelianGroup.canonical(1)
    t = GroupRingElement.monomial(Z.element([1]))
    assert parse_element("1 - t^[1]", Z) == 1 - t
    assert parse_element("(1-t^[1])*(1+t^[1])", Z) == 1 - t * t
    assert parse_element("2*t^[3] - 5", Z) == 2 * t**3 - 5
    assert parse_element("-t^[-1] + 1", Z) == 1 - GroupRingElement.monomial(Z.element([-1]))
    assert parse_element("t^[2]^2", Z) == t**4
    assert parse_element("0", Z) == GroupRingElement.zero(Z)


def test_symbols_bound_per_example():
    data = builtin_example("rugby", (2, 3))
    syms = example_symbols("rugby", data)
    G = data.group
    t = GroupRingElement.monomial(G.element([1, 0]))
    s = GroupRingElement.monomial(G.element([0, 1]))
    assert parse_element("1 - t^3", G, syms) == 1 - t**3
    assert parse_element("(1-t)*(1+t+t^2)", G, syms) == (1 - t) * (1 + t + t**2)
    assert parse_element("s^3 - t^2", G, syms) == s**3 - t**2
    assert parse_element("e'", G, syms) == s
    # the defining relation makes these the same monomial
    assert parse_element("t^2", G, syms) == parse_element("s^3", G, syms)


def test_torsion_monomials():
    G = FgAbelianGroup.canonical(1, (2,))
    e = parse_element("t^[1;1]", G)
    assert e == GroupRingElement.monomial(GroupElement(G, (1,), (1,)))
    assert parse_element("t^[0;1]^2", G) == GroupRingElement.one(G)
    with pytest.raises(ParseError):
        parse_element("t^[1]", G)  # missing torsion block


def test_parse_errors():
    Z = FgAbelianGroup.canonical(1)
    for bad in ["t^[1", "1 +", "(1", "u", "t^[a]", "t^-2", "2 ** 3", "t^[1,2]", "2²",
                "t^[١]", "t^[1_0]", "t^[²]", "t^[- 1]", "t^[+-1]"]:
        with pytest.raises(ParseError):
            parse_element(bad, Z)
    # exponents are ASCII integers with an optional sign; spaces around them stay allowed
    t = GroupRingElement.monomial(Z.element([1]))
    assert parse_element("t^[ +1 ]", Z) == parse_element("t^[1]", Z) == t
    assert parse_element("t^[ -10 ]", Z) == GroupRingElement.monomial(Z.element([-10]))
    G = FgAbelianGroup.canonical(1, (3,))
    with pytest.raises(ParseError):
        parse_element("t^[1;٢]", G)


NO_SYMBOL = "; generic inputs must use the t^[...] monomial form"
SHAPE = "does not match the group (free rank 1, {} torsion factors)"

# every ParseError message, pinned word for word; text over Z, or over
# Z x Z/3 when the text has a torsion block
ERROR_MESSAGES = [
    ("t^[1", "unterminated monomial bracket"),
    ("t^[1]]", "unexpected character ']'"),
    ("2²", "unexpected character '²'"),
    ("²", "unexpected character '²'"),
    ("١", "unexpected character '١'"),
    ("t ^[1]", "unexpected character '['"),
    ("t^[1];", "unexpected character ';'"),
    ("1 @ 2", "unexpected character '@'"),
    ("x'' ", "unexpected character \"'\""),
    ("1 2", "trailing input at 2"),
    ("1)", "trailing input at ')'"),
    ("(1 2", "expected ')', got 2"),
    ("2 ** 3", "unexpected token '*'"),
    ("+1", "unexpected token '+'"),
    (")", "unexpected token ')'"),
    ("t^[1]^-2", "powers must be nonnegative integers"),
    ("t^[1]^t", "expected an exponent, got 't'"),
    ("2^(3)", "expected an exponent, got '('"),
    ("u", "unknown symbol 'u'" + NO_SYMBOL),
    ("t^-2", "unknown symbol 't'" + NO_SYMBOL),
    ("x²", "unknown symbol 'x²'" + NO_SYMBOL),
    ("é", "unknown symbol 'é'" + NO_SYMBOL),
    ("t^[١]", "bad integer '١' in free exponents"),
    ("t^[1_0]", "bad integer '1_0' in free exponents"),
    ("t^[a]", "bad integer 'a' in free exponents"),
    ("t^[²]", "bad integer '²' in free exponents"),
    ("t^[- 1]", "bad integer '- 1' in free exponents"),
    ("t^[+-1]", "bad integer '+-1' in free exponents"),
    ("t^[1;٢]", "bad integer '٢' in torsion residues"),
    ("t^[1,2]", "monomial exponent shape [1,2] " + SHAPE.format(0)),
    ("t^[]", "monomial exponent shape [] " + SHAPE.format(0)),
    ("t^[1;1,2]", "monomial exponent shape [1;1,2] " + SHAPE.format(1)),
]

END_OF_INPUT = ["", "  ", "(", "1 +", "-", "2*", "t^[1]^", "(1", "((1)"]


@pytest.mark.parametrize("text,message", ERROR_MESSAGES)
def test_parse_error_messages(text, message):
    G = FgAbelianGroup.canonical(1, (3,)) if ";" in text else FgAbelianGroup.canonical(1)
    with pytest.raises(ParseError) as err:
        parse_element(text, G)
    assert str(err.value) == message


@pytest.mark.parametrize("text", END_OF_INPUT)
def test_end_of_input_is_named(text):
    with pytest.raises(ParseError) as err:
        parse_element(text, FgAbelianGroup.canonical(1))
    assert str(err.value) == "unexpected end of input"


def test_deep_nesting_is_a_parse_error():
    # each level of parentheses takes a few frames of the recursive descent
    Z = FgAbelianGroup.canonical(1)
    assert parse_element("(" * 50 + "t^[1]" + ")" * 50, Z) == parse_element("t^[1]", Z)
    for depth in (250, 100_000):
        with pytest.raises(ParseError, match="the expression nests too deeply"):
            parse_element("(" * depth + "1" + ")" * depth, Z)


def test_arbitrary_precision_literals():
    Z = FgAbelianGroup.canonical(1)
    big = 123456789012345678901234567890
    e = parse_element(f"{big}*t^[{2**70}]", Z)
    assert e == GroupRingElement.monomial(Z.element([2**70]), big)
    assert parse_element(e.render(), Z) == e


def test_render_parse_roundtrip():
    rng = random.Random(99)
    groups = [
        FgAbelianGroup.canonical(1),
        FgAbelianGroup.canonical(2),
        FgAbelianGroup.canonical(1, (2,)),
        group_from_relations(2, [[2, -4]]),
    ]
    for G in groups:
        for _ in range(40):
            e = GroupRingElement.zero(G)
            for _ in range(rng.randint(0, 5)):
                coords = [rng.randint(-4, 4) for _ in range(G.num_generators)]
                e = e + GroupRingElement.monomial(G.element(coords), rng.randint(-9, 9))
            text = e.render()
            assert parse_element(text, G) == e


def _reference_tokenize(text):
    """The character-loop tokenizer the regex scan replaced, kept as its
    oracle: the same (kind, value) pairs, or the same ParseError."""
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
            tokens.append(("mono", text[i + 3 : end]))
            i = end + 1
            continue
        if ch in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j < n and text[j] == "'":
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}")
    tokens.append(("end", None))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err)


def test_tokenizer_matches_reference():
    rng = random.Random(1414)
    alphabet = list("t^[]0123456789,;+-*()' _xé²\t") + ["t^[", "t^[", "١", "x²", " "]
    corpus = ["".join(rng.choices(alphabet, k=rng.randint(0, 14))) for _ in range(4000)]
    kinds = set()
    for text in corpus:
        expected = _tokens_or_error(_reference_tokenize, text)
        assert _tokens_or_error(_tokenize, text) == expected, text
        if isinstance(expected, str):
            kinds.add(expected)
        else:
            kinds.update(kind for kind, _ in expected)
    # the corpus reaches every token kind and every tokenizer error
    assert {"mono", "int", "name", "+", "-", "*", "^", "(", ")", "end",
            "unterminated monomial bracket", "unexpected character '²'"} <= kinds


class _ExprGen:
    """Random expression text over a group, together with the element the
    GroupRingElement operators build for it: sums, products, powers, nested
    parentheses, unary minus, residues outside [0, m) and symbols."""

    def __init__(self, rng, group, symbols):
        self.rng, self.group, self.symbols = rng, group, symbols

    def gap(self):
        return self.rng.choice(["", "", " ", "  ", "\t"])

    def expr(self, depth):
        text, value = self.term(depth)
        if self.rng.random() < 0.3:
            text, value = f"-{self.gap()}{text}", -value
        for _ in range(self.rng.randint(0, 2)):
            rhs_text, rhs = self.term(depth)
            op = self.rng.choice("+-")
            text = f"{text}{self.gap()}{op}{self.gap()}{rhs_text}"
            value = value + rhs if op == "+" else value - rhs
        return text, value

    def term(self, depth):
        text, value = self.factor(depth)
        for _ in range(self.rng.randint(0, 2)):
            rhs_text, rhs = self.factor(depth)
            text, value = f"{text}{self.gap()}*{self.gap()}{rhs_text}", value * rhs
        return text, value

    def factor(self, depth):
        text, value = self.atom(depth)
        while self.rng.random() < 0.2:
            n = self.rng.randint(0, 3)
            text, value = f"{text}{self.gap()}^{self.gap()}{n}", value ** n
        return text, value

    def atom(self, depth):
        rng, G = self.rng, self.group
        pick = rng.random()
        if depth > 0 and pick < 0.25:
            text, value = self.expr(depth - 1)
            return f"({self.gap()}{text}{self.gap()})", value
        if pick < 0.45:
            n = rng.randint(0, 12)
            return str(n), GroupRingElement.constant(G, n)
        if self.symbols and pick < 0.6:
            name = rng.choice(sorted(self.symbols))
            return name, self.symbols[name]
        free = [rng.randint(-3, 3) for _ in range(G.free_rank)]
        tors = [rng.randint(-2 * m, 2 * m) for m in G.torsion]
        body = ",".join(map(str, free)) + (";" + ",".join(map(str, tors)) if G.torsion else "")
        if rng.random() < 0.2:
            body = body.replace(",", " , ")
        return f"t^[{body}]", GroupRingElement.monomial(GroupElement(G, free, tors))


@pytest.mark.parametrize("case", ["Z", "Z2", "ZxZ/3", "Z/2xZ/4", "rugby 2 3", "wps 2 3"])
def test_parse_matches_operators(case):
    rng = random.Random(f"parse/{case}")
    if " " in case:
        name, *params = case.split()
        data = builtin_example(name, tuple(map(int, params)))
        G, symbols = data.group, example_symbols(name, data)
    else:
        G = {"Z": FgAbelianGroup.canonical(1), "Z2": FgAbelianGroup.canonical(2),
             "ZxZ/3": FgAbelianGroup.canonical(1, (3,)),
             "Z/2xZ/4": FgAbelianGroup.canonical(0, (2, 4))}[case]
        symbols = None
    gen = _ExprGen(rng, G, symbols)
    for _ in range(150):
        text, expected = gen.expr(3)
        parsed = parse_element(text, G, symbols)
        assert parsed == expected, text
        assert all(parsed.terms.values())
        assert parse_element(parsed.render(), G) == parsed
