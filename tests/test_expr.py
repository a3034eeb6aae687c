"""The token regex, the parser and the compiled expression against the
character loop and the tree walk they replaced: the same tokens, the same
ASTs, the same ExprError text and the same values of the same types.  Then
the reader's two rules: a literal is float(text), refused past the largest
float, and a tree is refused where a reading of it could overflow the
stack."""

import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ridgekit.cli import main
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
from ridgekit.sigmoid import _exact_poly_coeffs


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
        elif want[0] is OverflowError:
            # a literal past the largest float, as '1e3' '1' '1' gives: an
            # ExprError at the literal's position, not Fraction's overflow
            assert got[0] is ExprError
            assert re.fullmatch(r"number '[\d.]+[eE][+-]?\d+' too large "
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


# --- number literals: float(text), refused past the largest float ---------

class TestLiterals:
    @pytest.mark.parametrize("text, pos", [
        ("1e400*x1", 0), ("1e9999999*x1", 0), ("x1 + 2*1E309", 7),
        ("1" * 5000 + "*x1", 0)])
    def test_a_literal_past_the_largest_float_is_refused_at_its_position(
            self, text, pos):
        # Fraction built 10^k for these: seconds for 1e9999999, then an
        # OverflowError without a position, and 'bad number' past Python's
        # 4,300-digit limit
        literal = re.match(r"[\d.eE]+", text[pos:]).group()
        with pytest.raises(ExprError) as info:
            parse_expression(text, 1)
        assert str(info.value) == \
            f"number {literal!r} too large (at position {pos})"
        assert info.value.pos == pos

    def test_a_long_finite_literal_reads_as_its_nearest_float(self):
        f = parse_expression("0." + "1" * 5000 + "*x1", 1)
        assert f.ast == ("*", ("const", float("0." + "1" * 20)), ("var", 0))

    def test_no_fraction_is_built_for_a_literal(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr("ridgekit.core.Fraction", refuse)
        f = parse_expression("2.5e-1*x1 + 1e0 - .5", 1)
        assert f.ast == ("-", ("+", ("*", ("const", 0.25), ("var", 0)),
                               ("const", 1.0)), ("const", 0.5))

    @settings(max_examples=1000, deadline=None)
    @given(st.text("0123456789", min_size=1, max_size=20),
           st.integers(0, 21), st.sampled_from(["", ".", "lead"]),
           st.one_of(st.none(), st.integers(-330, 310)),
           st.sampled_from(["e", "E", "e+", "E-"]))
    def test_float_of_the_text_is_float_of_its_fraction(self, digits, cut,
                                                        dot, exp, mark):
        if dot == ".":
            digits = digits[:cut] + "." + digits[cut:]
        elif dot == "lead":
            digits = "." + digits
        text = digits
        if exp is not None:
            sign = "-" if exp < 0 else mark[1:]
            text += mark[0] + sign + str(abs(exp))
        try:
            want = float(Fraction(text))
        except OverflowError:
            want = math.inf
        if want == math.inf:
            with pytest.raises(ExprError, match="too large"):
                parse_expression(text, 1)
        else:
            assert parse_expression(text, 1).ast == ("const", want)


# --- nesting depth: refused where every later reading could not go ---------

# each shape at depth n, and the first n the parser or the guard refused,
# called from a script, before the guard walked every subtree: it stopped
# at the first variable, so it never walked the last two shapes
SHAPES = {
    "sum": (lambda n: "+".join(["x1"] * n), 333),
    "minus chain": (lambda n: "-" * n + "x1", 332),
    "parentheses": (lambda n: "(" * n + "x1" + ")" * n, 248),
    "calls": (lambda n: "sin(" * n + "x1" + ")" * n, 248),
    "x1+ then a minus chain": (lambda n: "x1+" + "-" * n + "x1", 990),
    "power chain": (lambda n: "^".join(["x1"] * n), 991),
}
DEEP = "expression nested too deeply (at position 0)"


def _refused(text):
    try:
        parse_expression(text, 1)
    except ExprError as exc:
        assert str(exc) == DEEP
        return True
    return False


def _deepest_accepted(shape):
    """The largest n whose expression parse_expression accepts from here,
    by bisection below the shape's threshold."""
    make, refused_from = SHAPES[shape]
    lo, hi = 1, refused_from
    assert not _refused(make(lo)) and _refused(make(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _refused(make(mid)) else (mid, hi)
    return lo


class TestDepth:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_each_shape_is_refused_at_its_threshold(self, shape):
        make, refused_from = SHAPES[shape]
        assert _refused(make(refused_from))
        assert _refused(make(refused_from + 700))

    def test_the_chains_the_guard_never_walked_are_refused_as_a_sum_is(self):
        # 333 levels, where a sum is refused
        assert _refused("^".join(["x1"] * 333))
        assert _refused("x1+" + "-" * 331 + "x1")

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_the_deepest_accepted_expression_is_read_by_every_reader(
            self, shape):
        text = SHAPES[shape][0](_deepest_accepted(shape))
        f = parse_expression(text, 1)
        x = np.array([0.5, 0.75, 1.0])
        value = f(x)
        assert value.shape == (3,) and np.all(np.isfinite(value))
        out = jet(f.ast, (x,), [(1.0,), (1.0,)])
        assert out.shape == (4, 3) and np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[0], value)
        coeffs = _exact_poly_coeffs(f, 0.0, 1.0)
        assert (coeffs is None) == (shape in ("calls", "power chain"))


def _cli_outcome(capsys, command, text):
    """cli.main on ``text``: "ok" on exit 0, else the JSON error's type and
    message; a traceback fails the test."""
    code = main([*command[:2], "--expr", text, *command[2:]])
    report = json.loads(capsys.readouterr().out)
    if code == 0:
        return "ok"
    assert code == 1
    return report["error"]["type"], report["error"]["message"]


UNIFORM = ["approx", "uniform", "--dirs", "1", "0", "0", "1",
           "--bounds", "0.5", "1", "0.5", "1"]


class TestDepthThroughTheCli:
    @pytest.mark.parametrize("text, message", [
        ("^".join(["x1"] * 988), DEEP),
        ("1e99999999*x1*x2", "number '1e99999999' too large (at position 0)")])
    def test_refused_with_a_json_error(self, capsys, text, message):
        assert _cli_outcome(capsys, UNIFORM, text) == ("ExprError", message)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_no_accepted_expression_overflows_the_stack(self, capsys, shape):
        # bisect on the CLI's own verdicts: every depth up to the old
        # threshold either runs or is refused as nested too deeply
        make, hi = SHAPES[shape]
        lo = 1
        assert _cli_outcome(capsys, UNIFORM, make(lo)) == "ok"
        assert _cli_outcome(capsys, UNIFORM, make(hi)) == ("ExprError", DEEP)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            got = _cli_outcome(capsys, UNIFORM, make(mid))
            assert got in ("ok", ("ExprError", DEEP))
            lo, hi = (mid, hi) if got == "ok" else (lo, mid)
