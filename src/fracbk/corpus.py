"""Named test functions used throughout the experiments and demos."""

from __future__ import annotations

from .exprlib import FunctionExpr, free_variables, parse_source

UNIVARIATE = ("f1", "f2", "f3", "f4")
BIVARIATE = ("g1", "g2", "g3")

BUILTINS: dict[str, str] = {
    "f1": "z*(z-4/7)*sin(pi*z)",
    "f2": "(1-z)*cos(2*pi*z)",
    "f3": "22*z*(z-0.9)*(z-0.3)",
    "f4": "z*(z-2/5)*(z-7/8)",
    "g1": "(y*z^2-1)*sin(2*pi*y)",
    "g2": "(y*z+2)*cos(2*pi*z)",
    "g3": "2*cos(pi*z)+3*sin(2*pi*y)",
}


def get_function(name_or_expr: str) -> FunctionExpr:
    """Look up a built-in by name, or parse the string as an expression."""
    return parse_source(BUILTINS.get(name_or_expr, name_or_expr) if isinstance(name_or_expr, str) else name_or_expr)


def is_bivariate(expr: FunctionExpr) -> bool:
    """Whether the expression uses the second variable y."""
    return "y" in free_variables(expr)
