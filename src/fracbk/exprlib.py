"""Tokenizer, parser and evaluator for small arithmetic expressions.

Expressions describe real-valued test functions of one variable ``z`` or two
variables ``z`` and ``y``.  Supported syntax: numbers in ASCII digits
(``1``, ``2.5``, ``.5``; one that overflows a float is an error), the
constant ``pi``, the operators ``+ - * / ^`` (with ``^`` binding tightest
and associating to the right), unary minus, parentheses, and the calls
``sin``, ``cos``, ``exp``, ``sqrt`` and ``abs``.  Evaluation accepts
scalars or numpy arrays; enclose bounds an expression over cells (interval
arithmetic), second_derivative differentiates it symbolically, and separate
splits a function of z and y into a sum of products of one-variable ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, ParseError

FUNCTION_NAMES = ("sin", "cos", "exp", "sqrt", "abs")
VARIABLE_NAMES = ("z", "y")
CONSTANT_NAMES = ("pi",)

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
            if name in CONSTANT_NAMES:
                return Const(name)
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
    """The expression tree of src; ParseError (with a position) if it is malformed."""
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
    return frozenset(node.name for node in _walk(expr.root) if isinstance(node, Var))


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
        # a numpy base, so a power of a negative constant is NaN (or raises
        # under evaluate's errstate), never a Python complex
        return np.float64(a) ** b if isinstance(a, float) else a ** b
    return _CALLS[node.func](_eval_node(node.arg, z, y))


def evaluate(expr: FunctionExpr, z, y=None):
    """Evaluate the expression at scalar or array arguments.

    Scalars and the bases of powers are routed through numpy float64
    arithmetic so that invalid operations (division by zero, fractional
    powers of negatives) raise EvaluationError instead of producing complex
    values or infinities.  An overflow gives inf without a warning; the
    callers reject non-finite values.
    """
    scalar = np.isscalar(z) and (y is None or np.isscalar(y))
    zz = np.float64(z) if np.isscalar(z) else z
    yy = np.float64(y) if (y is not None and np.isscalar(y)) else y
    try:
        with np.errstate(divide="raise", over="ignore", invalid="raise"):
            out = _eval_node(expr.root, zz, yy)
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"evaluation failed: {exc}") from exc
    return float(out) if scalar else out


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
    """Hull of op over the four end pairs: exact for a monotone op."""
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


def _power(base, exponent: Node, cells):
    c = _constant(exponent)
    lo, hi = base
    if c is not None and math.isfinite(c) and c == math.floor(c):  # an integer power, any base sign
        out = _corners(np.power, base, (c, c), 4)
        if c > 0 and c % 2 == 0:  # even: the minimum 0 where the base holds 0
            out = (np.where((lo < 0.0) & (hi > 0.0), 0.0, out[0]), out[1])
        return _unbounded_where(c < 0 and (lo <= 0.0) & (hi >= 0.0), *out)
    # a real power needs a base >= 0; x^y is monotone in each argument
    e = (c, c) if c is not None else _interval(exponent, cells)
    return _unbounded_where(lo < 0.0, *_corners(np.power, (np.fmax(lo, 0.0), hi), e, 4))


def _interval(node: Node, cells):
    if isinstance(node, (Num, Const)):
        value = node.value if isinstance(node, Num) else math.pi
        return value, value
    if isinstance(node, Var):
        if node.name == "y" and len(cells) < 2:
            raise EvaluationError("expression uses 'y' but no y cells were supplied")
        return cells[0] if node.name == "z" else cells[1]
    if isinstance(node, Neg):
        lo, hi = _interval(node.operand, cells)
        return -hi, -lo
    if isinstance(node, BinOp):
        a = _interval(node.left, cells)
        if node.op == "^":
            return _power(a, node.right, cells)
        b = _interval(node.right, cells)
        if node.op == "+":
            return _outward(a[0] + b[0], a[1] + b[1])
        if node.op == "-":
            return _outward(a[0] - b[1], a[1] - b[0])
        if node.op == "*":
            return _corners(np.multiply, a, b)
        return _unbounded_where((b[0] <= 0.0) & (b[1] >= 0.0), *_corners(np.divide, a, b))
    lo, hi = _interval(node.arg, cells)
    if node.func == "sin":
        return _trig(np.sin, (lo, hi), 0.5 * math.pi)
    if node.func == "cos":
        return _trig(np.cos, (lo, hi), 0.0)
    if node.func == "exp":
        return _outward(np.exp(lo), np.exp(hi), 4)
    if node.func == "sqrt":
        return _unbounded_where(lo < 0.0, *_outward(np.sqrt(np.fmax(lo, 0.0)), np.sqrt(hi)))
    return np.where(lo >= 0.0, lo, np.where(hi <= 0.0, -hi, 0.0)), np.maximum(-lo, hi)


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
        lo, hi = _interval(expr.root, cells)
    return np.broadcast_to(lo, shape).astype(float), np.broadcast_to(hi, shape).astype(float)


_ZERO, _ONE = Num(0.0), Num(1.0)
_MAX_DERIVATIVE_NODES = 2000


def _add(a: Node, b: Node) -> Node:
    return b if a == _ZERO else a if b == _ZERO else BinOp("+", a, b)


def _neg(a: Node) -> Node:
    return _ZERO if a == _ZERO else Neg(a)


def _sub(a: Node, b: Node) -> Node:
    return _neg(b) if a == _ZERO else a if b == _ZERO else BinOp("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    return b if a == _ONE else a if b == _ONE else BinOp("*", a, b)


def _derivative(node: Node, var: str) -> Node | None:
    """d node / d var by the sum, product, quotient, power and chain rules;
    exactly _ZERO for a subtree without var, None where no rule applies
    (abs of a varying argument, a varying exponent)."""
    if isinstance(node, (Num, Const)):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Neg):
        d = _derivative(node.operand, var)
        return None if d is None else _neg(d)
    if isinstance(node, Call):
        d = _derivative(node.arg, var)
        if d is None or d == _ZERO:
            return d
        outer = {"sin": Call("cos", node.arg), "cos": Neg(Call("sin", node.arg)), "exp": node,
                 "sqrt": BinOp("/", Num(0.5), node)}.get(node.func)
        return None if outer is None else _mul(outer, d)
    a, b = node.left, node.right
    da, db = _derivative(a, var), _derivative(b, var)
    if da is None or db is None:
        return None
    if node.op == "+":
        return _add(da, db)
    if node.op == "-":
        return _sub(da, db)
    if node.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if node.op == "/":
        return _mul(_sub(_mul(da, b), _mul(a, db)), BinOp("^", b, Num(-2.0)))
    if db != _ZERO:
        return None
    lowered = Num(b.value - 1.0) if isinstance(b, Num) else BinOp("-", b, _ONE)
    return _mul(_mul(b, BinOp("^", a, lowered)), da)


def _size_at_most(node: Node, limit: int) -> bool:
    """Whether the tree, shared subtrees counted each time, has <= limit nodes."""
    return next(itertools.islice(_walk(node), limit, None), None) is None


def second_derivative(expr: FunctionExpr, var: str = "z") -> FunctionExpr | None:
    """The symbolic second derivative in var; None where no rule applies or
    it has more than _MAX_DERIVATIVE_NODES nodes (deep nesting grows it
    fast, and evaluating it would cost more than it saves)."""
    d = _derivative(expr.root, var)
    d2 = None if d is None else _derivative(d, var)
    return FunctionExpr(d2) if d2 is not None and _size_at_most(d2, _MAX_DERIVATIVE_NODES) else None


_MAX_RANK = 16


def _vars(node: Node) -> frozenset[str]:
    return free_variables(FunctionExpr(node))


def _times(a: Node, b: Node) -> Node:
    """a * b, dropping a factor 1 (exact); never a factor 0, whose partner
    may fail to evaluate."""
    return b if a == _ONE else a if b == _ONE else BinOp("*", a, b)


def _merged(terms: list) -> list | None:
    """The terms with the pure-z ones (y-factor 1) summed into one term, the
    pure-y ones (a constant z-factor) into another, and the y-factors of the
    others summed per z-factor; None above _MAX_RANK terms."""
    add = functools.partial(functools.reduce, lambda s, t: BinOp("+", s, t))
    pure_z = [a for a, b in terms if b == _ONE]
    pure_y = [_times(a, b) for a, b in terms if b != _ONE and not _vars(a)]
    mixed = {}
    for a, b in terms:
        if b != _ONE and _vars(a):
            mixed.setdefault(a, []).append(b)
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
    variables (abs(z-y), sin(z*y), (z+y)^0.5) gives None.  Pure-z terms
    merge into one, pure-y terms into another, terms with the same z-factor
    into one, and more than 16 terms give None.
    """
    terms = _terms(expr.root)
    return None if terms is None else tuple((FunctionExpr(a), FunctionExpr(b)) for a, b in terms)

