"""Diffusion-coefficient expressions.

A small recursive-descent parser over x, y, z with +, -, *, /, ^ (right
associative, binding tighter than unary minus), sin, cos, exp, and pi.
Fields evaluate vectorized over numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np


class CoefficientParseError(ValueError):
    """Syntax error in a coefficient expression; carries the byte offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": math.pi}
_VARIABLES = ("x", "y", "z")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise CoefficientParseError("malformed number", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise CoefficientParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise CoefficientParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise CoefficientParseError("unexpected trailing input", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            node = (op, node, rhs)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            # right associative; exponent may carry a unary minus
            return ("^", base, self.unary())
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return ("const", value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if value in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ("call", value, arg)
            if value in _CONSTANTS:
                return ("const", _CONSTANTS[value])
            if value in _VARIABLES:
                return ("var", value)
            raise CoefficientParseError(f"unknown identifier {value!r}", pos)
        raise CoefficientParseError("expected a value", pos)


def _evaluate(node, env):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return -_evaluate(node[1], env)
    if op == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], env))
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "^":
        return a**b
    raise AssertionError(f"unknown node {op!r}")


class CoefficientField:
    """A parsed coefficient expression, callable on point arrays."""

    def __init__(self, text, tree):
        self.text = text
        self.tree = tree

    def __call__(self, points):
        """Evaluate at points of shape (n, d) (or scalars/1D for d=1)."""
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 0
        if pts.ndim <= 1:
            pts = pts.reshape(-1, 1)
        env = {"x": pts[:, 0], "y": 0.0, "z": 0.0}
        if pts.shape[1] > 1:
            env["y"] = pts[:, 1]
        if pts.shape[1] > 2:
            env["z"] = pts[:, 2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _evaluate(self.tree, env)
        out = np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()
        return float(out[0]) if scalar else out

    def is_constant(self):
        return self.tree[0] == "const"


def parse_coefficient(text):
    """Parse an expression string into a CoefficientField."""
    if not text or not text.strip():
        raise CoefficientParseError("empty expression", 0)
    tree = _Parser(text).parse()
    return CoefficientField(text, tree)
