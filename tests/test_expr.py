"""The token regex, the parser and the compiled expression against the
character loop and the tree walk they replaced: the same tokens, the same
ASTs, the same ExprError text and the same values of the same types."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ridgekit.core import (
    _BINARY,
    _CONSTS,
    _FUNCS,
    ExprError,
    ScalarField,
    _compile,
    _has_var,
    _jet_node,
    _Parser,
    _tokens,
    format_ast,
    jet,
    parse_expression,
)


# --- the replaced code, verbatim: the references -------------------------

_NUMBER = re.compile(r"[\d.]+([eE][+-]?\d+)?")


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = t[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^()":
                self.tokens.append((c, c, i))
                i += 1
                continue
            number = _NUMBER.match(t, i)
            if number:
                self.tokens.append(("num", number.group(), i))
                i = number.end()
                continue
            if c.isalpha():
                j = i
                while j < n and t[j].isalnum():
                    j += 1
                self.tokens.append(("name", t[i:j], i))
                i = j
                continue
            raise ExprError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


class _ReferenceParser:
    def __init__(self, text, dim):
        self.tz = _Tokenizer(text)
        self.dim = dim

    def parse(self):
        node = self.expr()
        kind, val, pos = self.tz.peek()
        if kind != "end":
            raise ExprError(f"unexpected token {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.tz.peek()[0] in "+-":
            op = self.tz.next()[0]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.tz.peek()[0] in "*/":
            op = self.tz.next()[0]
            node = (op, node, self.factor())
        return node

    def factor(self):
        if self.tz.peek()[0] == "-":
            self.tz.next()
            return ("neg", self.factor())
        node = self.base()
        if self.tz.peek()[0] == "^":
            self.tz.next()
            node = ("^", node, self.factor())
        return node

    def base(self):
        kind, val, pos = self.tz.next()
        if kind == "num":
            try:
                return ("const", float(Fraction(val)))
            except ValueError:
                raise ExprError(f"bad number {val!r}", pos)
        if kind == "name":
            if val.startswith("x") and val[1:].isdigit():
                k = int(val[1:])
                if not 1 <= k <= self.dim:
                    raise ExprError(f"variable {val} out of range 1..{self.dim}", pos)
                return ("var", k - 1)
            if val in _CONSTS:
                return ("const", _CONSTS[val])
            if val in _FUNCS:
                kind2, val2, pos2 = self.tz.next()
                if kind2 != "(":
                    raise ExprError(f"expected '(' after {val}", pos2)
                arg = self.expr()
                kind3, val3, pos3 = self.tz.next()
                if kind3 != ")":
                    raise ExprError("expected ')'", pos3)
                return ("call", val, arg)
            raise ExprError(f"unknown identifier {val!r}", pos)
        if kind == "(":
            node = self.expr()
            kind2, _, pos2 = self.tz.next()
            if kind2 != ")":
                raise ExprError("expected ')'", pos2)
            return node
        raise ExprError(f"unexpected token {val!r}", pos)


def _eval_ast(node, xs):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return xs[node[1]]
    if op == "neg":
        return -_eval_ast(node[1], xs)
    if op == "call":
        return _FUNCS[node[1]](_eval_ast(node[2], xs))
    a = _eval_ast(node[1], xs)
    b = _eval_ast(node[2], xs)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "^":
        return a ** b
    raise AssertionError(op)


def reference_field(ast, dim):
    """``ScalarField.from_expression`` as it was, on a parsed tree."""
    if _has_var(ast):
        return ScalarField(dim, lambda *xs: _eval_ast(ast, xs), ast=ast)

    def constant(*xs):
        shape = np.broadcast_shapes(*(np.shape(x) for x in xs))
        value = _eval_ast(ast, xs)
        return np.full(shape, value) if shape else value

    return ScalarField(dim, constant, ast=ast)


# --- helpers ---------------------------------------------------------------

def outcome(fn, *args):
    """What fn(*args) gives: ("value", v) or the exception's type and
    text; floating-point warnings are silenced, as both sides see them."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return "value", fn(*args)
        except Exception as exc:
            return type(exc), str(exc)


def assert_same(got, want):
    """The same exception, the same tokens or tree, or numbers of the same
    type that are equal (NaN equal to NaN, arrays in shape, dtype and every
    entry)."""
    assert got[0] == want[0]
    a, b = got[1], want[1]
    if got[0] != "value" or isinstance(a, (list, tuple)):
        assert a == b
        return
    assert type(a) is type(b)
    assert np.shape(a) == np.shape(b)
    assert np.asarray(a).dtype == np.asarray(b).dtype
    assert np.array_equal(a, b, equal_nan=True)


# text over every character class the tokenizer tells apart: operators,
# decimal digits, the exponent letters, ASCII letters, '_', tab, NBSP, and
# one character each of classes Nd ('٣'), No ('²'), Nl ('Ⅻ') and non-ASCII
# L ('é')
ALPHABET = "+-*/^() 0123456789.eExyzpisncoglbqrtaXP_\t\xa0٣²Ⅻé"

# words that make parsable text more often: names, numbers and operators
WORDS = ["x1", "x2", "x3", "x0", "x10", "x1²", "x²", "x٣", "pi", "e",
         "sin", "cos", "exp", "log", "abs", "sqrt", "foo", "(", ")", "+",
         "-", "*", "/", "^", "1", "2.5", "1e3", ".5E-1", "1.2.3", ".", " "]


class TestTokens:
    @settings(max_examples=1000, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=24))
    def test_tokens_match_the_character_loop(self, text):
        assert_same(outcome(_tokens, text),
                    outcome(lambda t: _Tokenizer(t).tokens, text))

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), max_size=12),
           st.integers(1, 3))
    def test_parses_match_the_replaced_parser(self, words, dim):
        text = "".join(words)
        # Fraction reads 1e31111 by building 10**31111: keep exponents short
        assume(not re.search(r"[eE][+-]?\d{4}", text))
        got = outcome(lambda: _Parser(text, dim).parse())
        want = outcome(lambda: _ReferenceParser(text, dim).parse())
        if want[0] is ValueError and "int()" in want[1]:
            # 'x' followed by digits that int() refuses: the only change
            assert got[0] is ExprError
            assert re.fullmatch(r"unknown identifier 'x\w+' "
                                r"\(at position \d+\)", got[1])
        else:
            assert_same(got, want)


# --- values ----------------------------------------------------------------

# non-negative leaves, so format_ast's text parses back to the same tree
CONSTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-3, 1e3, math.pi,
                          math.e]).map(lambda v: ("const", v))
LEAVES = st.one_of(CONSTS, st.integers(0, 1).map(lambda k: ("var", k)))


def _trees(children):
    return st.one_of(
        children.map(lambda a: ("neg", a)),
        st.tuples(st.just("call"), st.sampled_from(sorted(_FUNCS)), children),
        st.tuples(st.sampled_from(sorted(_BINARY)), children, children))


ASTS = st.recursive(LEAVES, _trees, max_leaves=10)
CONSTANT_ASTS = st.recursive(CONSTS, _trees, max_leaves=10)
SCALARS = st.one_of(st.floats(-3, 3), st.integers(-3, 3))


def _arguments(kind, x, y):
    if kind == "scalars":
        return x, y
    if kind == "numpy scalars":
        return np.float64(x), np.float64(y)
    if kind == "arrays":
        return np.array([x, y, 0.0, -1.0]), np.array([y, x, 2.0, 0.5])
    return np.array([[x], [0.0], [-2.0]]), np.array([y, 1.5])  # broadcast


class TestCompiledValues:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(ASTS, CONSTANT_ASTS), SCALARS, SCALARS,
           st.sampled_from(["scalars", "numpy scalars", "arrays",
                            "broadcast"]))
    def test_values_match_the_tree_walk(self, ast, x, y, kind):
        f = parse_expression(format_ast(ast), 2)
        assert f.ast == ast
        xs = _arguments(kind, x, y)
        assert_same(outcome(f, *xs), outcome(reference_field(ast, 2), *xs))
        assert_same(outcome(_compile(ast), xs), outcome(_eval_ast, ast, xs))


class TestJetNumbers:
    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(sorted(_BINARY)),
           st.one_of(st.floats(-4, 4), st.sampled_from([0.0, -1.0, 2.0])),
           st.one_of(st.floats(-4, 4), st.sampled_from([0.0, 0.5, 3.0])),
           st.booleans())
    def test_number_number_subtree_is_the_operator(self, op, a, b, numpy):
        if numpy:
            a, b = np.float64(a), np.float64(b)
        ctx = ([np.zeros(2), np.zeros(2)], [[1.0, 0.0]], 2)
        node = (op, ("const", a), ("const", b))
        want = outcome(_eval_ast, node, ())
        assert_same(outcome(_jet_node, node, ctx), want)
        assert_same(outcome(_BINARY[op], a, b), want)

    def test_a_constant_subtree_in_a_jet_is_its_value(self):
        ast = parse_expression("x1 + 2^0.5*3 - 1/4", 2).ast
        x, y = np.array([0.5, 1.0]), np.array([0.0, 2.0])
        out = jet(ast, (x, y), [(1.0, 0.0)])
        assert np.array_equal(out[0], x + 2.0 ** 0.5 * 3.0 - 0.25)
        assert np.array_equal(out[1], np.ones(2))
