"""Diffusion-coefficient expressions.

A small recursive-descent parser over x, y, z with +, -, *, /, ^ (right
associative, binding tighter than unary minus), sin, cos, exp, and pi that
compiles while it parses: a subexpression without a variable becomes its
np.float64 value (so it is constant, however written), and any other one a
closure evaluated vectorized over numpy arrays. A text nests at most
MAX_DEPTH levels deep, and a sum or product of any length evaluates in one
closure.
"""

import math
import operator
import re

import numpy as np


class CoefficientParseError(ValueError):
    """Syntax error in a coefficient expression; carries the byte offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.float64(math.pi)}
_VARIABLES = ("x", "y", "z")
_ORIGIN = {v: np.float64(0.0) for v in _VARIABLES}  # where points lack a coordinate
_OPERATORS = dict(zip("+-*/", (operator.add, operator.sub, operator.mul, operator.truediv)))
# one token after optional whitespace: a number, a name, an operator or a
# parenthesis, or any other character
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[\d.]+(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))"
)
# constants fold, and fields evaluate, to inf or nan where numpy gives them
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def _tokens(text):
    """The tokens (kind, value, position) of text, scanned on demand and
    ending with ('end', None, len(text)); an operator is its own kind."""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        pos, s = m.start(kind), m.group(kind)
        if kind == "bad":
            raise CoefficientParseError(f"unexpected character {s!r}", pos)
        if kind == "num":
            try:
                yield kind, np.float64(float(s)), pos
            except ValueError:
                raise CoefficientParseError("malformed number", pos) from None
        else:
            yield (s if kind == "op" else kind), s, pos
    yield "end", None, len(text)


# the most levels a text may nest: a parenthesis (a function's argument is
# one), a unary minus or an exponent each opens one. Parsing a level takes up
# to 8 Python frames, so 100 levels leave room under the default limit of 1000.
MAX_DEPTH = 100


def _value(operand, env):
    """A compiled operand at the coordinates env."""
    return operand(env) if callable(operand) else operand


def _apply(op, *args):
    """op on compiled operands: its value if they are all constants, else a
    closure over the coordinates that evaluates them in order."""
    if not any(map(callable, args)):
        return op(*args)
    return lambda env: op(*[_value(a, env) for a in args])


class _Compiler:
    """Recursive descent with one token of lookahead, `tok`; each rule
    returns its subexpression compiled, and `compiled` is the whole text's."""

    def __init__(self, text):
        self.tokens = _tokens(text)
        self.tok = next(self.tokens)
        self.depth = 0
        self.compiled = self.expr()
        if self.tok[0] != "end":
            raise CoefficientParseError("unexpected trailing input", self.tok[2])

    def advance(self):
        tok, self.tok = self.tok, next(self.tokens, None)
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise CoefficientParseError(f"expected {kind!r}", tok[2])

    def nested(self, rule, pos):
        """rule() one level deeper, for the parenthesis, unary minus or
        exponent at pos; an error past MAX_DEPTH levels."""
        if self.depth == MAX_DEPTH:
            raise CoefficientParseError(f"nested deeper than {MAX_DEPTH} levels", pos)
        self.depth += 1
        value = rule()
        self.depth -= 1
        return value

    def chain(self, ops, operand):
        """operand (op operand)*, left associative, with op in ops: leading
        constants fold, and one closure applies the other operators in order,
        so a long sum does not nest its evaluation."""
        value, steps = operand(), []
        while self.tok[0] in ops:
            op, right = _OPERATORS[self.advance()[0]], operand()
            if steps or callable(value) or callable(right):
                steps.append((op, right))
            else:
                value = op(value, right)
        if not steps:
            return value

        def run(env):
            out = _value(value, env)
            for op, right in steps:
                out = op(out, _value(right, env))
            return out
        return run

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*", "/"), self.unary)

    def unary(self):
        """-unary | atom [^ unary]: ^ is right associative and binds tighter than -."""
        if self.tok[0] == "-":
            return _apply(operator.neg, self.nested(self.unary, self.advance()[2]))
        base = self.atom()
        if self.tok[0] != "^":
            return base
        return _apply(operator.pow, base, self.nested(self.unary, self.advance()[2]))

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return value
        if kind == "(":
            value = self.nested(self.expr, pos)
            self.expect(")")
            return value
        if kind == "name":
            if value in _FUNCTIONS:
                if self.tok[0] != "(":
                    raise CoefficientParseError("expected '('", self.tok[2])
                return _apply(_FUNCTIONS[value], self.atom())
            if value in _CONSTANTS:
                return _CONSTANTS[value]
            if value in _VARIABLES:
                return operator.itemgetter(value)
            raise CoefficientParseError(f"unknown identifier {value!r}", pos)
        raise CoefficientParseError("expected a value", pos)


class CoefficientField:
    """A compiled coefficient expression, callable on point arrays;
    `constant` is its np.float64 value if it has no variable, else None."""

    def __init__(self, text, compiled):
        self.text = text
        self.constant = None if callable(compiled) else compiled
        self._compiled = compiled

    def __call__(self, points):
        """Evaluate at points of shape (n, d) (or scalars/1D for d=1)."""
        pts = np.asarray(points, dtype=float)
        cols = pts.reshape(-1, 1) if pts.ndim <= 1 else pts
        env = _ORIGIN | dict(zip(_VARIABLES, cols.T))
        with np.errstate(**_QUIET):
            out = self.constant if self.constant is not None else self._compiled(env)
        out = np.broadcast_to(np.asarray(out, dtype=float), (len(cols),)).copy()
        return float(out[0]) if pts.ndim == 0 else out


def parse_coefficient(text):
    """Compile an expression string into a CoefficientField."""
    if not text or not text.strip():
        raise CoefficientParseError("empty expression", 0)
    with np.errstate(**_QUIET):
        compiled = _Compiler(text).compiled
    return CoefficientField(text, compiled)


UNIT = parse_coefficient("1")  # kappa = 1, the default coefficient
