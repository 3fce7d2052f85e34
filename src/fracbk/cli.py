"""Command-line interface: ad-hoc evaluation plus preset table/figure output.

Exit codes: 0 success, 2 usage error (bad flags, bad expression, bad domain),
3 numeric failure during computation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .basis import OperatorParams
from .corpus import get_function, is_bivariate
from .errors import DomainError, FracbkError, ParseError
from .experiments import (
    Dataset,
    compare_rows,
    figure_dataset,
    table_dataset,
    to_csv,
)
from .error_analysis import (
    bound_kfunctional,
    bound_lipschitz,
    bound_t2,
    error_table,
)
from .operator_biv import BivariateParams, surface_rows
from .operator_uni import DEFAULT_ORDER


def _parse_axis(spec: str) -> np.ndarray:
    """A single value '0.3' or a grid spec 'a:b:n'."""
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) == 3:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 2:
                raise DomainError(f"grid spec needs at least 2 points, got {n}")
            return np.linspace(a, b, n)
    except ValueError as exc:
        raise DomainError(f"bad grid spec {spec!r}: {exc}") from exc
    raise DomainError(f"bad grid spec {spec!r}: expected VALUE or START:STOP:COUNT")


def _parse_int_list(spec: str) -> list[int]:
    try:
        return [int(part) for part in spec.split(",") if part]
    except ValueError as exc:
        raise DomainError(f"bad integer list {spec!r}") from exc


def _params(args, suffix: str = "") -> OperatorParams:
    def pick(name):
        override = getattr(args, name + suffix)
        return getattr(args, name) if override is None else override

    return OperatorParams(
        m=pick("m"), eta=pick("eta"), gamma=pick("gamma"),
        alpha=pick("alpha"), s=pick("s"),
    )


def _add_operator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=10, help="operator degree")
    p.add_argument("--eta", type=float, default=1.0, help="kernel exponent")
    p.add_argument("--gamma", type=float, default=1.0, help="argument exponent")
    p.add_argument("--alpha", type=float, default=1.0, help="blend weight in [0,1]")
    p.add_argument("--s", type=int, default=2, help="blending shift")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, default=DEFAULT_ORDER, help="quadrature order")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbk",
        description="Fractional generalized Bernstein-Kantorovich operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the univariate operator on a z grid")
    _add_operator_flags(p)
    p.add_argument("--fn", required=True, help="built-in name (f1..f4) or expression in z")
    p.add_argument("--z", required=True, help="value or grid spec a:b:n")
    _add_common(p)

    p = sub.add_parser("table", help="emit a preset error table (1..7)")
    p.add_argument("which", type=int, help="table number 1..7")
    _add_common(p)

    p = sub.add_parser("figure", help="emit a preset figure dataset (1..6)")
    p.add_argument("which", type=int, help="figure number 1..6")
    _add_common(p)

    p = sub.add_parser("compare", help="four-way operator comparison per m")
    p.add_argument("--fn", default="f4")
    p.add_argument("--m", default="10,20,40,80", help="comma-separated degrees")
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--z", default="0.2", help="value or grid spec; error is max over it")
    p.add_argument("--bbk-gamma", type=float, default=None,
                   help="gamma for the bbk comparator (default: keep base gamma)")
    _add_common(p)

    p = sub.add_parser("bounds", help="error bounds alongside the actual error")
    _add_operator_flags(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--z", required=True, help="value or grid spec a:b:n")
    p.add_argument("--grid", type=int, default=4001,
                   help="cells of [0,1] the moduli are enclosed on (at most 65536)")
    p.add_argument("--M", type=float, default=None, help="Lipschitz constant")
    p.add_argument("--kappa", type=float, default=None, help="Lipschitz exponent in (0,1]")
    p.add_argument("--C", type=float, default=None, help="K-functional constant")
    _add_common(p)

    p = sub.add_parser("biv-eval", help="evaluate the bivariate operator on a z,y grid")
    _add_operator_flags(p)
    for name, kind in (("m2", int), ("eta2", float), ("gamma2", float),
                       ("alpha2", float), ("s2", int)):
        p.add_argument(f"--{name}", type=kind, default=None,
                       help=f"second-axis {name[:-1]} (default: first axis)")
    p.add_argument("--fn", required=True, help="built-in name (g1..g3) or expression in z,y")
    p.add_argument("--z", required=True, help="value or grid spec a:b:n")
    p.add_argument("--y", required=True, help="value or grid spec a:b:n")
    _add_common(p)

    return parser


def _write(text: str, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if out is None:  # the reader has gone: keep the exit-time flush quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise DomainError(f"cannot write {out or '<stdout>'!r}: {exc.strerror or exc}") from exc


def _meta_params(params: OperatorParams) -> str:
    return (f"m={params.m} eta={params.eta} gamma={params.gamma} "
            f"alpha={params.alpha} s={params.s}")


def _cmd_eval(args) -> str:
    f = get_function(args.fn)
    if is_bivariate(f):
        raise DomainError("eval is univariate; use biv-eval for functions of z and y")
    zs = _parse_axis(args.z)
    params = _params(args)
    et = error_table(params, f, zs, order=args.order)
    comments = (f"eval fn={args.fn}", _meta_params(params), f"order={args.order}")
    return et.to_csv(comments)


def _cmd_compare(args) -> str:
    f = get_function(args.fn)
    if is_bivariate(f):
        raise DomainError("compare is univariate; functions of y are not supported")
    m_values = _parse_int_list(args.m)
    if not m_values:
        raise DomainError("--m must list at least one degree")
    zs = _parse_axis(args.z)
    rows = compare_rows(args.fn, m_values, args.eta, args.gamma, args.alpha, args.s,
                        zs, args.order, args.bbk_gamma)
    meta = (
        f"compare fn={args.fn}",
        f"base eta={args.eta} gamma={args.gamma} alpha={args.alpha} s={args.s}",
        f"z={args.z} order={args.order} bbk_gamma={args.bbk_gamma}",
    )
    return to_csv(Dataset("compare", meta, ("m", "rlbk", "bbk", "fbk", "rlgbk"), rows))


def _cmd_bounds(args) -> str:
    f = get_function(args.fn)
    if is_bivariate(f):
        raise DomainError("bounds is univariate; functions of y are not supported")
    if (args.M is None) != (args.kappa is None):
        raise DomainError("--M and --kappa must be supplied together")
    zs = _parse_axis(args.z)
    params = _params(args)
    et = error_table(params, f, zs, order=args.order)
    meta = (f"bounds fn={args.fn}", _meta_params(params), f"grid={args.grid} order={args.order}")
    rows = tuple(
        (z, err, bound_t2(params, f, z, grid_n=args.grid),
         "" if args.M is None else bound_lipschitz(params, args.M, args.kappa, z),
         "" if args.C is None else bound_kfunctional(params, f, z, args.C, grid_n=args.grid))
        for z, _exact, _approx, err in et.rows
    )
    columns = ("z", "actual_error", "bound_t2", "bound_lipschitz", "bound_kfunctional")
    return to_csv(Dataset("bounds", meta, columns, rows))


def _cmd_biv_eval(args) -> str:
    F = get_function(args.fn)
    bp = BivariateParams(_params(args), _params(args, "2"))
    zs = _parse_axis(args.z)
    ys = _parse_axis(args.y)
    rows, max_err = surface_rows(bp, F, zs, ys, order=args.order)
    meta = (f"biv-eval fn={args.fn}", f"axis1 {_meta_params(bp.px)}",
            f"axis2 {_meta_params(bp.py)}", f"order={args.order}")
    columns = ("z", "y", "exact", "approx", "abs_error")
    return to_csv(Dataset("biv-eval", meta, columns, tuple(rows), (f"max_error={max_err!r}",)))


_HANDLERS = {
    "eval": _cmd_eval,
    "table": lambda args: to_csv(table_dataset(args.which, args.order)),
    "figure": lambda args: to_csv(figure_dataset(args.which, args.order)),
    "compare": _cmd_compare,
    "bounds": _cmd_bounds,
    "biv-eval": _cmd_biv_eval,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _write(_HANDLERS[args.command](args), args.out)
    except (ParseError, DomainError) as exc:
        print(f"fracbk: error: {exc}", file=sys.stderr)
        return 2
    except (FracbkError, MemoryError) as exc:
        print(f"fracbk: numeric failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
