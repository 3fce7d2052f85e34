"""Tokenizer, parser and evaluator for small arithmetic expressions.

Expressions describe real-valued test functions of one variable ``z`` or two
variables ``z`` and ``y``.  Supported syntax: numbers in ASCII digits
(``1``, ``2.5``, ``.5``; one that overflows a float is an error), the
constant ``pi``, the operators ``+ - * / ^`` (with ``^`` binding tightest
and associating to the right), unary minus, parentheses, and the calls
``sin``, ``cos``, ``exp``, ``sqrt`` and ``abs``.  evaluate takes scalars or
arrays, and eval_function (how every layer applies a function to points)
also a callable; enclose bounds an expression over cells (interval
arithmetic), derivative_sup bounds |f^(k)| by its Taylor coefficients on
cells, and separate splits a function of z and y into a sum of products of
one-variable ones (separate_cells: cell by cell, where each abs keeps a
sign).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, EvaluationError, ParseError, _real_array, check_type

FUNCTION_NAMES = ("sin", "cos", "exp", "sqrt", "abs")
VARIABLE_NAMES = ("z", "y")

# Binding strength of each binary operator for the parser.  Unary minus
# binds between * / and ^ (as -z^2 is -(z^2)).
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_PREC_NEG = 3

# ASCII digits and letters only: str.isdigit also holds for digits that
# float() rejects (superscripts) or reads as another number (Arabic-Indic)
_TOKEN = re.compile(rf"""
    (?P<number>[0-9]+\.?[0-9]*|\.[0-9]+) | (?P<identifier>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<operator>[{re.escape("".join(_PREC))}]) | (?P<paren>[()]) | (?P<comma>,)
  | (?P<space>\s+) | (?P<other>.)""", re.VERBOSE | re.DOTALL)

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


Node = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class FunctionExpr:
    root: Node

    def __hash__(self) -> int:  # taken once: every cache keyed on the expression asks
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash(self.root)
        return self.__dict__["_hash"]

    def __reduce__(self):  # without the hash, which differs between processes
        return FunctionExpr, (self.root,)


def tokenize(src: str) -> list[Token]:
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    tokens = []
    for match in _TOKEN.finditer(src):
        kind, lexeme = match.lastgroup, match.group()
        if kind == "other":
            raise ParseError(f"unexpected character {lexeme!r}", match.start())
        if kind != "space":
            tokens.append(Token(kind, lexeme, match.start()))
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

    def at_operator(self, lexeme: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "operator" and tok.lexeme == lexeme

    def parse_chain(self, prec: int = 1) -> Node:
        """Operators of precedence prec, left to right, between chains of
        the next level up; above * and / the operands are unary terms."""
        if prec == _PREC_NEG:
            return self.parse_unary()
        depth, node = self.depth, self.parse_chain(prec + 1)
        while (tok := self.peek()) and tok.kind == "operator" and _PREC[tok.lexeme] == prec:
            self.next()
            self.descend()
            node = BinOp(tok.lexeme, node, self.parse_chain(prec + 1))
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
            value = float(tok.lexeme)
            if math.isinf(value):
                raise ParseError(f"number {tok.lexeme[:20]}... is too large", tok.position)
            return Num(value)
        if tok.kind == "identifier":
            name = tok.lexeme
            if name in FUNCTION_NAMES:
                self.expect("paren", "(")
                arg = self.parse_chain()
                self.expect("paren", ")")
                return Call(name, arg)
            if name in VARIABLE_NAMES:
                return Var(name)
            if name == "pi":
                return Num(math.pi)
            raise ParseError(f"unknown identifier {name!r}", tok.position)
        if tok.kind == "paren" and tok.lexeme == "(":
            node = self.parse_chain()
            self.expect("paren", ")")
            return node
        raise ParseError(f"unexpected token {tok.lexeme!r}", tok.position)


def parse(tokens: list[Token]) -> FunctionExpr:
    parser = _Parser(tokens)
    root = parser.parse_chain()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected token {tok.lexeme!r} after expression", tok.position)
    return FunctionExpr(root)


def parse_source(src: str) -> FunctionExpr:
    """The expression tree of src; ParseError (with a position) if it is
    malformed, DomainError if it is not a string."""
    if not isinstance(src, str):
        raise DomainError(f"expression must be a string, got {src!r}")
    return parse(tokenize(src))


def _walk(node: Node):
    """Every node of the tree, a shared subtree once per occurrence."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinOp):
            stack += (node.left, node.right)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.append(node.arg)


def free_variables(expr: FunctionExpr) -> frozenset[str]:
    """The variable names (z, y) that occur in the expression."""
    root = check_type("expr", expr, FunctionExpr).root
    return frozenset(node.name for node in _walk(root) if isinstance(node, Var))


def _substitute(node: Node, mapping: dict) -> Node:
    """node with each subtree that is a key of mapping replaced by its value."""
    if node in mapping:
        return mapping[node]
    if isinstance(node, Neg):
        return Neg(_substitute(node.operand, mapping))
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute(node.left, mapping), _substitute(node.right, mapping))
    return Call(node.func, _substitute(node.arg, mapping)) if isinstance(node, Call) else node


_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
# a op b, a op= b and the ufunc of a op b: _eval_node puts each result in an operand array that it made
_OPS = {"+": (operator.add, operator.iadd, np.add), "-": (operator.sub, operator.isub, np.subtract),
        "*": (operator.mul, operator.imul, np.multiply), "/": (operator.truediv, operator.itruediv, np.divide),
        "^": (operator.pow, operator.ipow, np.power)}


def _own(x, other: tuple, z, y) -> bool:
    """Whether x is an array the walk made (not z or y) that an operand of shape `other` broadcasts to."""
    return type(x) is np.ndarray and x is not z and x is not y and len(other) <= x.ndim \
        and all(n == 1 or n == m for n, m in zip(reversed(other), reversed(x.shape)))


def _eval_node(node: Node, z, y):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "z":
            return z
        if y is None:
            raise EvaluationError("expression uses 'y' but no y value was supplied")
        return y
    if isinstance(node, Neg):
        a = _eval_node(node.operand, z, y)
        return np.negative(a, out=a) if _own(a, (), z, y) else -a
    if isinstance(node, BinOp):
        a = _eval_node(node.left, z, y)
        b = _eval_node(node.right, z, y)
        # a numpy base, so a power of a negative constant is NaN (or raises
        # under evaluate's errstate), never a Python complex
        a = np.float64(a) if node.op == "^" and isinstance(a, float) else a
        new, inplace, ufunc = _OPS[node.op]
        if _own(a, np.shape(b), z, y):
            return inplace(a, b)
        return ufunc(a, b, out=b) if _own(b, np.shape(a), z, y) else new(a, b)
    a = _eval_node(node.arg, z, y)
    return _CALLS[node.func](a, out=a if _own(a, (), z, y) else None)


def evaluate(expr: FunctionExpr, z, y=None):
    """Evaluate the expression at points read as check_points reads them, of
    any shape and value: a float for scalars, an array for arrays unless the
    expression is constant (eval_function broadcasts that).

    Scalars and the bases of powers are routed through numpy float64
    arithmetic so that invalid operations (division by zero, fractional
    powers of negatives) raise EvaluationError instead of producing complex
    values or infinities.  An overflow gives inf without a warning; the
    callers reject non-finite values.
    """
    check_type("expr", expr, FunctionExpr)
    zz = _real_array(z)[()]  # [()] reads a 0-d array as a float64 scalar
    yy = None if y is None else _real_array(y, "y")[()]
    try:
        with np.errstate(divide="raise", over="ignore", invalid="raise"):
            out = _eval_node(expr.root, zz, yy)
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"evaluation failed: {exc}") from exc
    return float(out) if np.ndim(zz) == 0 and np.ndim(yy) == 0 else out


def eval_function(f, *args) -> np.ndarray:
    """An expression or callable at broadcastable arrays z (and y), as floats
    of the broadcast shape, so a constant function gives a full array;
    DomainError for another f, EvaluationError for values not of that kind."""
    if not (isinstance(f, FunctionExpr) or callable(f)):
        raise DomainError(f"f must be an expression or a callable, got {type(f).__name__}")
    vals = evaluate(f, *args) if isinstance(f, FunctionExpr) else f(*args)  # the callable's errors propagate
    vals = _real_array(vals, "the values of f", EvaluationError)
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    try:
        return vals if vals.shape == shape else np.broadcast_to(vals, shape)
    except ValueError as exc:
        raise EvaluationError(f"f must be vectorised and give one value per point: expected shape "
                              f"{shape}, got shape {vals.shape}") from exc


# Interval evaluation (Moore, Kearfott & Cloud 2009).  An interval is a pair
# (lo, hi) of broadcastable float arrays.  Each rounded operation widens its
# result outward, one unit in the last place for the correctly rounded
# arithmetic and sqrt and a few for numpy's exp, sin, cos and power.  A NaN
# end (inf - inf, 0 * inf) makes the interval unbounded.

def _outward(lo, hi, ulps: int = 1):
    step = ulps * 2.0**-52
    lo = lo - (np.abs(lo) * step + ulps * 5e-324)
    hi = hi + (np.abs(hi) * step + ulps * 5e-324)
    return np.fmax(lo, -math.inf), np.fmin(hi, math.inf)


def _unbounded_where(mask, lo, hi):
    return np.where(mask, -math.inf, lo), np.where(mask, math.inf, hi)


def _corners(op, a, b, ulps: int = 1):
    """Hull of op over the four end pairs: exact for a monotone op.  An
    operand that is one float (a Num, an integer exponent) makes two."""
    if any(isinstance(x[0], float) and x[0] == x[1] for x in (a, b)):
        c = (op(a[0], b[0]), op(a[1], b[1]))
        return _outward(np.minimum(*c), np.maximum(*c), ulps)
    c = (op(a[0], b[0]), op(a[0], b[1]), op(a[1], b[0]), op(a[1], b[1]))
    lo = np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3]))
    hi = np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3]))
    return _outward(lo, hi, ulps)


def _hits(lo, hi, phase: float):
    """Whether phase + 2*pi*k lies in [lo, hi] for some integer k; errs
    towards True, which only loosens the enclosure."""
    t_lo, t_hi = (lo - phase) / (2.0 * math.pi), (hi - phase) / (2.0 * math.pi)
    slack = 1e-7 + 1e-12 * np.maximum(np.abs(t_lo), np.abs(t_hi))
    return np.floor(t_hi + slack) >= t_lo - slack


def _trig(func, a, peak: float):
    """sin or cos: the end values, raised to 1 (lowered to -1) where the cell
    holds a maximum at peak (a minimum at peak + pi) modulo 2*pi."""
    u, v = func(a[0]), func(a[1])
    lo = np.where(_hits(a[0], a[1], peak + math.pi), -1.0, np.minimum(u, v))
    hi = np.where(_hits(a[0], a[1], peak), 1.0, np.maximum(u, v))
    lo, hi = _outward(lo, hi, 4)
    return np.maximum(lo, -1.0), np.minimum(hi, 1.0)


def _constant(node: Node):
    """The float value of a subtree without variables, else None."""
    if free_variables(FunctionExpr(node)):
        return None
    try:
        with np.errstate(divide="raise", invalid="raise"):
            return float(_eval_node(node, None, None))
    except (ArithmeticError, ValueError):  # e.g. 1/0 or a power of a negative
        return math.nan


def _sum(x, y, op: str = "+"):
    """x + y (x - y for op "-") of two intervals, None standing for an exact 0."""
    if x is None or y is None:
        return x if y is None else y if op == "+" else (-y[1], -y[0])
    return _outward(x[0] + y[0], x[1] + y[1]) if op == "+" else _outward(x[0] - y[1], x[1] - y[0])


def _conv(a, b, k: int, weight=None):
    """sum_i weight(i) a_i b_(k-i) for coefficient lists a and b, whose
    missing entries are 0 (so i >= 1 for a b of k entries), weight(i) a
    rational rounded to nearest and 1 by default; None for no term."""
    total = None
    for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
        x = _corners(np.multiply, a[i], _outward(weight(i), weight(i))) if weight else a[i]
        total = _sum(total, _corners(np.multiply, x, b[k - i]))
    return total


def _series_product(a, b, K: int) -> list:
    return [_conv(a, b, k) for k in range(min(len(a) + len(b) - 1, K + 1))]


def _real_power(a, p0, c: float, K: int) -> list:
    """base^c from the base's coefficients a and p_0, by k a_0 p_k = sum over
    i of ((c+1)i - k) a_i p_(k-i); unbounded where a_0 holds 0 or p_0 is."""
    p, mask = [p0], (a[0][0] <= 0.0) & (a[0][1] >= 0.0) | (p0[1] == math.inf)
    num, den = c.as_integer_ratio()  # so the weights are exact rationals, rounded once
    for k in range(1, K + 1 if len(a) > 1 else 1):
        x = _conv(a, p, k, lambda i: ((num + den) * i - den * k) / (den * k))
        p.append(_unbounded_where(mask, *_corners(np.divide, x, a[0])))
    return p


def _power(a, exponent: Node, cells, K: int) -> list:
    """base^exponent from the base's coefficients a: by products for an
    integer n >= 0, by _real_power for other constants, and unbounded past
    f_0 for a varying exponent."""
    c = _constant(exponent)
    lo, hi = a[0]
    if c is not None and math.isfinite(c) and c == math.floor(c):  # an integer power, any base sign
        out = _corners(np.power, a[0], (c, c), 4)
        if c > 0 and c % 2 == 0:  # even: the minimum 0 where the base holds 0
            out = (np.where((lo < 0.0) & (hi > 0.0), 0.0, out[0]), out[1])
        out = _unbounded_where(c < 0 and (lo <= 0.0) & (hi >= 0.0), *out)
        if c < 0:
            return _real_power(a, out, c, K)
        p = a if c > 0 else [out]
        for bit in bin(int(c))[3:] if len(a) > 1 else "":  # a^c by squaring, below the top bit
            p = _series_product(p, p, K)
            p = _series_product(p, a, K) if bit == "1" else p
        return [out] + p[1:]
    # a real power needs a base >= 0; x^y is monotone in each argument
    e = (c, c) if c is not None else _taylor(exponent, cells, 0)[0]
    out = _unbounded_where(lo < 0.0, *_corners(np.power, (np.fmax(lo, 0.0), hi), e, 4))
    if c is None or not math.isfinite(c):
        return [out] + [(-math.inf, math.inf)] * K
    return _real_power(a, out, c, K)


def _taylor(node: Node, cells, K: int) -> list:
    """The Taylor coefficients f_k = f^(k)/k! in z of node on the cells as
    intervals, k <= K, up to the last that may not be 0 (a constant has one
    and z two).  f_0 is the enclosure, the others come by products and the
    recurrences of quotients, powers, exp and sin with cos (Moore, Kearfott
    & Cloud 2009, ch. 9); unbounded where these divide by an interval
    holding 0, past a varying exponent and where abs may kink."""
    if isinstance(node, Num):
        return [(node.value, node.value)]
    if isinstance(node, Var):
        if node.name == "y" and len(cells) < 2:
            raise EvaluationError("expression uses 'y' but no y cells were supplied")
        return [cells[0], (1.0, 1.0)][: K + 1] if node.name == "z" else [cells[1]]
    if isinstance(node, Neg):
        return [(-hi, -lo) for lo, hi in _taylor(node.operand, cells, K)]
    if isinstance(node, BinOp):
        a = _taylor(node.left, cells, K)
        if node.op == "^":
            return _power(a, node.right, cells, K)
        b = _taylor(node.right, cells, K)
        if node.op in "+-":
            return [_sum(x, y, node.op) for x, y in itertools.zip_longest(a, b)]
        if node.op == "*":
            return _series_product(a, b, K)
        mask, q = (b[0][0] <= 0.0) & (b[0][1] >= 0.0), [_corners(np.divide, a[0], b[0])]
        for k in range(1, K + 1 if len(b) > 1 else len(a)):  # b q = a
            q.append(_corners(np.divide, _sum(a[k] if k < len(a) else None, _conv(b, q, k), "-"), b[0]))
        return [_unbounded_where(mask, *x) for x in q]
    a = _taylor(node.arg, cells, K)
    (lo, hi), n = a[0], K + 1 if len(a) > 1 else 1
    if node.func in ("sin", "cos"):  # sin' = a' cos and cos' = -a' sin
        sin = [_trig(np.sin, (lo, hi), 0.5 * math.pi)] if node.func == "sin" or n > 1 else None
        cos = [_trig(np.cos, (lo, hi), 0.0)] if node.func == "cos" or n > 1 else None
        for k in range(1, n):  # each from the other's first k coefficients
            sin, cos = sin + [_conv(a, cos, k, lambda i: i / k)], cos + [_conv(a, sin, k, lambda i: -i / k)]
        return sin if node.func == "sin" else cos
    if node.func == "exp":  # exp' = a' exp
        e = [_outward(np.exp(lo), np.exp(hi), 4)]
        for k in range(1, n):
            e.append(_conv(a, e, k, lambda i: i / k))
        return e
    if node.func == "sqrt":
        return _real_power(a, _unbounded_where(lo < 0.0, *_outward(np.sqrt(np.fmax(lo, 0.0)), np.sqrt(hi))), 0.5, K)
    out = [(np.where(lo >= 0.0, lo, np.where(hi <= 0.0, -hi, 0.0)), np.maximum(-lo, hi))]
    kink, neg = (lo <= 0.0) & (hi >= 0.0), hi < 0.0  # abs(a) is a or -a where a keeps a sign
    for x, y in a[1:]:
        out.append(_unbounded_where(kink, np.where(neg, -y, x), np.where(neg, -x, y)))
    return out + [_unbounded_where(kink, 0.0, 0.0)] * (n - len(a))


def enclose(expr: FunctionExpr, z_cells, y_cells=None) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (lo, hi) with lo <= f(z, y) <= hi for every point of each cell.

    z_cells and y_cells are pairs (lo, hi) of broadcastable arrays of cell
    ends, as evaluate takes points.  Where the expression is undefined or
    unbounded on a cell (a divisor interval holding 0, the root or real
    power of a base below 0) that cell's enclosure is (-inf, inf).
    """
    cells = (z_cells,) if y_cells is None else (z_cells, y_cells)
    shape = np.broadcast_shapes(*(np.shape(end) for cell in cells for end in cell))
    with np.errstate(all="ignore"):
        lo, hi = _taylor(expr.root, cells, 0)[0]
    return np.broadcast_to(lo, shape).astype(float), np.broadcast_to(hi, shape).astype(float)


def _cell_signs(expr: FunctionExpr, z_cells, y_cells=None) -> np.ndarray:
    """The sign of the expression on each cell, as enclose takes cells: +1
    or -1 where its enclosure is bounded and keeps that sign, and 0 where
    the enclosure holds 0 or is unbounded (where abs of it may kink)."""
    lo, hi = enclose(expr, z_cells, y_cells)
    return ((lo > 0.0) & (hi < math.inf)).astype(np.int8) - ((hi < 0.0) & (lo > -math.inf))


_TAYLOR_TERMS = 12


@functools.lru_cache(maxsize=1024)
def _sups(expr: FunctionExpr, cells: int, K: int) -> tuple:
    """k! max |f_k| for k <= K on `cells` equal cells of [0, 1] from one
    _taylor pass to K (f_k reads f_j for j <= k only, so K > k leaves it as
    it is); inf for NaN, rounded up where k! is no power of two."""
    u = np.linspace(0.0, 1.0, cells + 1)
    with np.errstate(all="ignore"):
        coeffs = _taylor(expr.root, ((u[:-1], u[1:]),), K)
    sups = [math.factorial(k) * float(np.maximum(np.max(hi), -np.min(lo))) for k, (lo, hi) in enumerate(coeffs)]
    sups = [math.nextafter(s, math.inf) if k > 2 and s else s for k, s in enumerate(sups)]
    return tuple(math.inf if math.isnan(s) else s for s in sups + [0.0] * (K + 1 - len(sups)))


def derivative_sup(expr: FunctionExpr, k: int, cells: int) -> float:
    """An upper bound on sup |f^(k)| over [0, 1] from _sups to _TAYLOR_TERMS
    on `cells` equal cells: 0 past the last coefficient that may not be 0,
    inf where one is unbounded, and inf for k past _TAYLOR_TERMS."""
    return _sups(expr, cells, _TAYLOR_TERMS)[k] if k <= _TAYLOR_TERMS else math.inf


_ZERO, _ONE = Num(0.0), Num(1.0)


_MAX_RANK = 16


def _vars(node: Node) -> frozenset[str]:
    return free_variables(FunctionExpr(node))


def _factors(node: Node) -> list:
    return _factors(node.left) + _factors(node.right) if isinstance(node, BinOp) and node.op == "*" else [node]


def _times(a: Node, b: Node) -> Node:
    """a * b, dropping a factor 1 (exact); never a factor 0, whose partner
    may fail to evaluate.  The factors of both * chains are multiplied from
    the left in one order (by repr), so equal products are one tree."""
    if a == _ONE or b == _ONE:
        return b if a == _ONE else a
    return functools.reduce(lambda s, t: BinOp("*", s, t), sorted(_factors(a) + _factors(b), key=repr))


def _merged(terms: list) -> list | None:
    """The terms with the y-factors summed per z-factor of a mixed term (1 last
    for a pure-z term of it), the other pure-z terms (y-factor 1) into one and
    the pure-y ones (a constant z-factor) into another; None above _MAX_RANK."""
    add = functools.partial(functools.reduce, lambda s, t: BinOp("+", s, t))
    pure_y = [_times(a, b) for a, b in terms if b != _ONE and not _vars(a)]
    mixed = {}
    for a, b in sorted(terms, key=lambda term: term[1] == _ONE):  # stable: the pure-z terms last
        if (b != _ONE and _vars(a)) or a in mixed:
            mixed.setdefault(a, []).append(b)
    pure_z = [a for a, b in terms if b == _ONE and a not in mixed]
    out = [(add(pure_z), _ONE)] if pure_z else []
    out += [(a, add(bs)) for a, bs in mixed.items()]
    out += [(_ONE, add(pure_y))] if pure_y else []
    return out if len(out) <= _MAX_RANK else None


def _product(left: list | None, right: list | None) -> list | None:
    if left is None or right is None:
        return None
    return _merged([(_times(a, c), _times(b, d)) for a, b in left for c, d in right])


def _terms(node: Node) -> list | None:
    """node as a list of (z-factor, y-factor) pairs whose products sum to
    it, or None; every operation of node stays in some factor, so a factor
    fails to evaluate where node does."""
    names = _vars(node)
    if "y" not in names:
        return [(node, _ONE)]
    if "z" not in names:
        return [(_ONE, node)]
    if isinstance(node, Neg):
        inner = _terms(node.operand)
        return None if inner is None else [(Neg(a), b) for a, b in inner]
    if not isinstance(node, BinOp):  # a call of a mixed argument
        return None
    if node.op == "*":
        return _product(_terms(node.left), _terms(node.right))
    if node.op == "^":
        # a zeroth power is left out: 1 would drop a base that fails
        k = _constant(node.right)
        if k is None or not (1 <= k <= _MAX_RANK and k == int(k)):
            return None
        base = terms = _terms(node.left)
        for _ in range(int(k) - 1):
            terms = _product(terms, base)
        return terms
    left = _terms(node.left)
    if node.op == "/":
        divisor = _vars(node.right)
        if left is None or len(divisor) > 1:
            return None
        if "y" in divisor:
            return [(a, BinOp("/", b, node.right)) for a, b in left]
        return [(BinOp("/", a, node.right), b) for a, b in left]
    right = _terms(node.right)
    if left is None or right is None:
        return None
    if node.op == "-":
        right = [(Neg(a), b) for a, b in right]
    return _merged(left + right)


def separate(expr: FunctionExpr) -> tuple[tuple[FunctionExpr, FunctionExpr], ...] | None:
    """F(z, y) as a sum of products a_r(z) * b_r(y): a tuple of (a_r, b_r)
    pairs, a_r free of y and b_r free of z, or None.

    A subtree free of y is a z-factor and one free of z a y-factor; + and -
    concatenate the terms, unary minus negates them, * multiplies them out,
    / by a subtree of one variable divides that variable's factors, and a
    power 1..16 of a mixed base multiplies it out.  Anything else of both
    variables (abs(z-y), sin(z*y), (z+y)^0.5) gives None (abs(z-y)
    separates cell by cell: separate_cells).  Terms with the same z-factor,
    pure-z ones (y-factor 1) among them, merge into one, the other pure-z
    terms into one, pure-y terms into another; more than 16 give None.
    """
    terms = _terms(expr.root)
    return None if terms is None else tuple((FunctionExpr(a), FunctionExpr(b)) for a, b in terms)


def separate_cells(expr: FunctionExpr, z_cells, y_cells):
    """(pieces, rest) on cells as enclose takes them, or None where abs has
    more than two distinct arguments g of both z and y.  A piece is (cells,
    terms): on those cells every g keeps a sign s (_cell_signs), and terms
    is separate() of expr with each abs(g) read as s*g; rest marks the cells
    where some g may change sign (without such a g: True and False)."""
    args = tuple(dict.fromkeys(node.arg for node in _walk(expr.root)
                               if isinstance(node, Call) and node.func == "abs" and len(_vars(node.arg)) == 2))
    if len(args) > 2:
        return None
    signs = [_cell_signs(FunctionExpr(g), z_cells, y_cells) for g in args]
    pieces = []
    for pattern in itertools.product((1, -1), repeat=len(args)):
        cells = np.logical_and.reduce([s == sign for s, sign in zip(signs, pattern)])
        if cells.any():
            resolved = {Call("abs", g): g if sign > 0 else Neg(g) for g, sign in zip(args, pattern)}
            pieces.append((cells, separate(FunctionExpr(_substitute(expr.root, resolved)) if resolved else expr)))
    return pieces, np.logical_or.reduce([s == 0 for s in signs])

