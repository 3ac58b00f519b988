import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softfem.coefficient import MAX_DEPTH, CoefficientParseError, parse_coefficient


def test_constant_one():
    field = parse_coefficient("1")
    assert field.constant is not None
    pts = np.array([[0.1], [0.9]])
    assert np.allclose(field(pts), [1.0, 1.0])


def test_variable_kappa_matches_numpy():
    field = parse_coefficient("exp(x*sin(2*pi*x))")
    x = np.linspace(0.0, 1.0, 17)
    got = field(x.reshape(-1, 1))
    want = np.exp(x * np.sin(2 * np.pi * x))
    assert np.allclose(got, want, rtol=1e-14)
    assert field.constant is None


def test_multivariate_and_scalar_promotion():
    field = parse_coefficient("x + 2*y - z")
    pts = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 1.0]])
    assert np.allclose(field(pts), [2.0, -0.5])
    const = parse_coefficient("pi/2")
    assert abs(const(np.zeros((1, 1)))[0] - math.pi / 2) < 1e-15


def test_power_precedence():
    # unary minus binds looser than ^
    f = parse_coefficient("-x^2")
    assert np.allclose(f(np.array([[3.0]])), [-9.0])
    # ^ is right-associative
    g = parse_coefficient("2^2^3")
    assert np.allclose(g(np.zeros((1, 1))), [256.0])


def test_arithmetic_precedence():
    f = parse_coefficient("1 + 2*3 - 4/2")
    assert np.allclose(f(np.zeros((1, 1))), [5.0])
    g = parse_coefficient("(1 + 2)*3")
    assert np.allclose(g(np.zeros((1, 1))), [9.0])


@pytest.mark.parametrize(
    "text",
    ["", "x +", "sin()", "foo(x)", "1 + * 2", "(x", "x y"],
)
def test_parse_errors(text):
    with pytest.raises(CoefficientParseError):
        parse_coefficient(text)


def test_parse_error_reports_position():
    try:
        parse_coefficient("x + * 2")
    except CoefficientParseError as err:
        assert err.position == 4
    else:
        raise AssertionError("expected a parse error")


@pytest.mark.parametrize(
    "text,value",
    [("1/2", 0.5), ("2*pi", 2 * math.pi), ("-(3)^2", -9.0), ("exp(0)/4", 0.25),
     ("1/0", math.inf), ("0^-1", math.inf), ("10^400", math.inf), ("(-2)^0.5", math.nan)],
)
def test_expressions_without_a_variable_compile_to_constants(text, value):
    """Constant subexpressions fold with numpy float64 arithmetic: to inf or
    nan where numpy gives them, never to a Python exception."""
    field = parse_coefficient(text)
    assert isinstance(field.constant, np.float64)
    np.testing.assert_equal(field.constant, value)
    np.testing.assert_equal(field(np.zeros((3, 2))), np.full(3, value))


NESTINGS = {  # text nested n levels deep, and its value at x
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, lambda x, n: x),
    "calls": (lambda n: "sin(" * n + "x" + ")" * n, None),
    "minuses": (lambda n: "-" * n + "x", lambda x, n: (-1.0) ** n * x),
    "exponents": (lambda n: "1^" * n + "x", lambda x, n: np.ones_like(x)),
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_is_limited_to_max_depth(kind):
    """MAX_DEPTH levels parse and evaluate; one more is a parse error at the
    token that opens it, never a RecursionError."""
    text, value = NESTINGS[kind]
    x = np.linspace(0.0, 1.0, 5)
    want = x.copy()
    if value is None:
        for _ in range(MAX_DEPTH):
            want = np.sin(want)
    else:
        want = value(x, MAX_DEPTH)
    assert parse_coefficient(text(MAX_DEPTH))(x).tobytes() == want.tobytes()
    for depth in (MAX_DEPTH + 1, 3000):
        with pytest.raises(CoefficientParseError, match=f"deeper than {MAX_DEPTH}"):
            parse_coefficient(text(depth))


def test_nesting_error_reports_the_position_of_the_deepest_level():
    with pytest.raises(CoefficientParseError) as err:
        parse_coefficient("1 + " + "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))
    assert err.value.position == 4 + MAX_DEPTH


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_long_chains_evaluate_left_to_right(op):
    """A chain of 500 operands evaluates in one closure, in the order numpy
    gives left to right; leading constants fold first."""
    x = np.linspace(0.9, 1.1, 7)
    scales = [1.0 + k / 1000 for k in range(1, 499)]  # no product overflows
    terms = ["2", "3"] + [f"({c!r}*x)" for c in scales]
    want = BINARY[op](np.float64(2.0), np.float64(3.0))
    for c in scales:
        want = BINARY[op](want, c * x)
    assert parse_coefficient(f" {op} ".join(terms))(x).tobytes() == want.tobytes()


def test_a_lexical_error_after_a_syntax_error_reports_the_first():
    # the text is scanned as it is parsed, so the leftmost error is reported
    with pytest.raises(CoefficientParseError, match="trailing") as err:
        parse_coefficient("x y $")
    assert err.value.position == 2


# -- grammar fuzz: random expression trees, rendered to text ---------------

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "^": operator.pow}
LEAVES = st.one_of(
    st.floats(0.0, 1e3).map(lambda v: ("num", v)),
    st.just(("pi",)),
    st.sampled_from(["x", "y", "z"]).map(lambda v: ("var", v)),
)
TREES = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(sorted(BINARY)), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), sub),
    ),
    max_leaves=12,
)


# how tightly each operator binds; leaves and calls bind tightest (5)
PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def render(tree):
    """The text of a tree, with only the parentheses the grammar needs."""
    kind = tree[0]
    if kind == "num":
        return repr(tree[1])
    if kind in ("pi", "var"):
        return tree[-1]
    if kind in FUNCTIONS:
        return f"{kind}({render(tree[1])})"

    def operand(t, least):  # bare if it binds at least this tightly
        return render(t) if PRECEDENCE.get(t[0], 5) >= least else f"({render(t)})"

    if kind == "neg":
        return "-" + operand(tree[1], 3)
    if kind == "^":  # the base is an atom, the exponent a unary
        return f"{operand(tree[1], 5)} ^ {operand(tree[2], 3)}"
    prec = PRECEDENCE[kind]  # left associative
    return f"{operand(tree[1], prec)} {kind} {operand(tree[2], prec + 1)}"


def evaluate(tree, env):
    """The tree evaluated with numpy: float64 constants, coordinate arrays."""
    kind = tree[0]
    if kind == "num":
        return np.float64(tree[1])
    if kind == "pi":
        return np.float64(math.pi)
    if kind == "var":
        return env[tree[1]]
    args = [evaluate(t, env) for t in tree[1:]]
    if kind == "neg":
        return -args[0]
    return FUNCTIONS[kind](*args) if kind in FUNCTIONS else BINARY[kind](*args)


def has_variable(tree):
    if tree[0] in ("num", "pi", "var"):
        return tree[0] == "var"
    return any(has_variable(t) for t in tree[1:])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tree=TREES, d=st.integers(1, 3))
def test_compiled_expressions_match_numpy_bit_for_bit(tree, d):
    pts = np.random.default_rng(d).uniform(-1.0, 2.0, (17, d))
    env = {v: np.float64(0.0) for v in "xyz"} | dict(zip("xyz", pts.T))
    field = parse_coefficient(render(tree))
    with np.errstate(all="ignore"):
        want = np.broadcast_to(np.asarray(evaluate(tree, env), dtype=float), (len(pts),))
    assert field(pts).tobytes() == want.tobytes()
    assert (field.constant is not None) == (not has_variable(tree))
