"""Tokenizer, parser and evaluator for small arithmetic expressions.

Expressions describe real-valued test functions of one variable ``z`` or two
variables ``z`` and ``y``.  Supported syntax: numbers, the constant ``pi``,
the operators ``+ - * / ^`` (with ``^`` binding tightest and associating to
the right), unary minus, parentheses, and the calls ``sin``, ``cos``,
``exp``, ``sqrt`` and ``abs``.  Evaluation accepts scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, ParseError

FUNCTION_NAMES = ("sin", "cos", "exp", "sqrt", "abs")
VARIABLE_NAMES = ("z", "y")
CONSTANT_NAMES = ("pi",)

_OPERATOR_CHARS = "+-*/^"

# Levels are parentheses, calls, unary minus, powers and +-*/ chain links
_MAX_DEPTH = 100


@dataclass(frozen=True)
class Token:
    kind: str  # number | identifier | operator | paren | comma
    lexeme: str
    position: int


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Const, Neg, BinOp, Call]


@dataclass(frozen=True)
class FunctionExpr:
    root: Node


def tokenize(src: str) -> list[Token]:
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
        elif c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            start = i
            while i < n and src[i].isdigit():
                i += 1
            if i < n and src[i] == ".":
                i += 1
                while i < n and src[i].isdigit():
                    i += 1
            tokens.append(Token("number", src[start:i], start))
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(Token("identifier", src[start:i], start))
        elif c in _OPERATOR_CHARS:
            tokens.append(Token("operator", c, i))
            i += 1
        elif c in "()":
            tokens.append(Token("paren", c, i))
            i += 1
        elif c == ",":
            tokens.append(Token("comma", c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = self.depth = 0
        self.end = tokens[-1].position + len(tokens[-1].lexeme) if tokens else 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.end)
        self.pos += 1
        return tok

    def descend(self) -> None:
        """One level deeper; ParseError at the next token past _MAX_DEPTH."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            position = self.end if tok is None else tok.position
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", position)

    def expect(self, kind: str, lexeme: str) -> Token:
        tok = self.next()
        if tok.kind != kind or tok.lexeme != lexeme:
            raise ParseError(f"expected {lexeme!r}, found {tok.lexeme!r}", tok.position)
        return tok

    def at_operator(self, *lexemes: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "operator" and tok.lexeme in lexemes

    def parse_expr(self) -> Node:
        depth, node = self.depth, self.parse_term()
        while self.at_operator("+", "-"):
            op = self.next().lexeme
            self.descend()
            node = BinOp(op, node, self.parse_term())
        self.depth = depth
        return node

    def parse_term(self) -> Node:
        depth, node = self.depth, self.parse_unary()
        while self.at_operator("*", "/"):
            op = self.next().lexeme
            self.descend()
            node = BinOp(op, node, self.parse_unary())
        self.depth = depth
        return node

    def parse_unary(self) -> Node:
        self.descend()
        if self.at_operator("-"):
            self.next()
            node = Neg(self.parse_unary())
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.at_operator("^"):
            self.next()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Node:
        tok = self.next()
        if tok.kind == "number":
            return Num(float(tok.lexeme))
        if tok.kind == "identifier":
            name = tok.lexeme
            if name in FUNCTION_NAMES:
                self.expect("paren", "(")
                arg = self.parse_expr()
                self.expect("paren", ")")
                return Call(name, arg)
            if name in VARIABLE_NAMES:
                return Var(name)
            if name in CONSTANT_NAMES:
                return Const(name)
            raise ParseError(f"unknown identifier {name!r}", tok.position)
        if tok.kind == "paren" and tok.lexeme == "(":
            node = self.parse_expr()
            self.expect("paren", ")")
            return node
        raise ParseError(f"unexpected token {tok.lexeme!r}", tok.position)


def parse(tokens: list[Token]) -> FunctionExpr:
    parser = _Parser(tokens)
    root = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected token {tok.lexeme!r} after expression", tok.position)
    return FunctionExpr(root)


def parse_source(src: str) -> FunctionExpr:
    return parse(tokenize(src))


def free_variables(expr: FunctionExpr) -> frozenset[str]:
    names: set[str] = set()

    def walk(node: Node) -> None:
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(expr.root)
    return frozenset(names)


_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}


def _eval_node(node: Node, z, y):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "z":
            return z
        if y is None:
            raise EvaluationError("expression uses 'y' but no y value was supplied")
        return y
    if isinstance(node, Const):
        return math.pi
    if isinstance(node, Neg):
        return -_eval_node(node.operand, z, y)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, z, y)
        b = _eval_node(node.right, z, y)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return a ** b
    return _CALLS[node.func](_eval_node(node.arg, z, y))


def evaluate(expr: FunctionExpr, z, y=None):
    """Evaluate the expression at scalar or array arguments.

    Scalars are routed through numpy float64 arithmetic so that invalid
    operations (division by zero, fractional powers of negatives) raise
    EvaluationError instead of producing complex values or infinities.
    """
    scalar = np.isscalar(z) and (y is None or np.isscalar(y))
    zz = np.float64(z) if np.isscalar(z) else z
    yy = np.float64(y) if (y is not None and np.isscalar(y)) else y
    try:
        with np.errstate(divide="raise", invalid="raise"):
            out = _eval_node(expr.root, zz, yy)
    except (ZeroDivisionError, FloatingPointError, OverflowError, ValueError) as exc:
        raise EvaluationError(f"evaluation failed: {exc}") from exc
    return float(out) if scalar else out


# Printer precedence levels; the grammar places unary minus between the
# multiplicative and power levels.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 9


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _print(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_print(node.arg)})"
    if isinstance(node, Neg):
        inner = _print(node.operand)
        if not isinstance(node.operand, Neg) and _prec(node.operand) < _PREC_POW:
            inner = f"({inner})"
        return f"-{inner}"
    assert isinstance(node, BinOp)
    if node.op == "^":
        left = _print(node.left)
        if _prec(node.left) <= _PREC_POW:
            left = f"({left})"
        right = _print(node.right)
        if _prec(node.right) < _PREC_NEG:
            right = f"({right})"
        return f"{left}^{right}"
    prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
    left = _print(node.left)
    if _prec(node.left) < prec:
        left = f"({left})"
    right = _print(node.right)
    if _prec(node.right) <= prec:
        right = f"({right})"
    return f"{left}{node.op}{right}"


def to_source(expr: FunctionExpr) -> str:
    """Render the tree as an expression string that re-parses to an
    identical tree."""
    return _print(expr.root)
