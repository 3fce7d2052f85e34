"""Preset experiment datasets: error tables 1-7 and figure datasets 1-6.

Each preset emits a deterministic CSV through dataset.to_csv.  Every
preset but table 4 is one row of PRESETS, stored as data: the fixed
operator parameters, stated once, and a sweep of the remaining one over
which the operator is evaluated at fixed points.
"""

from __future__ import annotations

import numpy as np

from .basis import OperatorParams
from .corpus import BUILTINS, UNIVARIATE, get_function
from .dataset import Dataset, to_csv
from .error_analysis import error_table
from .errors import DomainError, check_int
from .exprlib import eval_function
from .operator_biv import BivariateParams, surface_values
from .operator_uni import _REDUCTIONS, DEFAULT_ORDER, kernel_integrals, operator_values

NINE_POINTS = tuple(round(0.1 * k, 1) for k in range(1, 10))
# The columns of the comparison after m: three reductions, then the base operator
_COMPARATORS = ("rlbk", "bbk", "fbk", "rlgbk")

# (function, fixed parameters, swept parameter, its values) of the
# bivariate presets, each shown both as a table and as a figure; the
# parameters hold on both axes
_G1 = ("g1", dict(eta=2.0, gamma=3.0, alpha=0.9, s=2), "m", (10, 30, 90))
_G2 = ("g2", dict(m=15, eta=2.0, gamma=2.0, s=2), "alpha", (0.1, 0.5, 0.9))
_G3 = ("g3", dict(m=15, eta=3.0, gamma=2.0, alpha=0.8), "s", (9, 6, 3))

# (kind, number, function, fixed parameters, swept parameter, its values)
PRESETS = (
    ("table", 1, "f1", dict(eta=2.0, gamma=4.0, alpha=0.9, s=3), "m", (40, 100, 250)),
    ("table", 2, "f2", dict(m=90, eta=3.0, gamma=2.0, s=3), "alpha", (0.35, 0.65, 0.95)),
    ("table", 3, "f3", dict(m=70, eta=3.0, gamma=2.0, alpha=0.75), "s", (8, 5, 2)),
    ("table", 5, *_G1),
    ("table", 6, *_G2),
    ("table", 7, *_G3),
    ("figure", 1, "f1", dict(eta=3.0, gamma=3.0, alpha=0.9, s=4), "m", (20, 30, 70)),
    ("figure", 2, "f2", dict(m=10, eta=2.0, gamma=3.0, s=4), "alpha", (0.35, 0.65, 0.95)),
    ("figure", 3, "f3", dict(m=10, eta=3.0, gamma=2.0, alpha=0.75), "s", (2, 5, 8)),
    ("figure", 4, *_G1),
    ("figure", 5, *_G2),
    ("figure", 6, *_G3),
)


def _sweep(spec) -> list:
    """The OperatorParams at each swept value."""
    base, name, values = spec[3:]
    return [OperatorParams(**base, **{name: v}) for v in values]


def _values(fn, p, u, order) -> np.ndarray:
    """The operator with parameters p at the points u or, for a function of
    z and y, with p on both axes on the product grid u x u."""
    f = get_function(fn)
    if fn in UNIVARIATE:
        return operator_values(kernel_integrals(p, f, order), u)
    return surface_values(BivariateParams(p, p), f, u, u, order)


def _dataset(spec, order, coords, data, prefix, extra=()) -> Dataset:
    """Columns z (and y), the extra data columns, then one per sweep value,
    named prefix + parameter initial + value; the rows are a 2-D float array."""
    kind, number, fn, base, sweep_name, sweep = spec
    fixed = " ".join(f"{k}={v:g}" for k, v in base.items())
    meta = (f"{kind} {number}", f"function {fn} = {BUILTINS[fn]}",
            fixed if fn in UNIVARIATE else f"{fixed} (both axes)",
            f"{sweep_name} values: {', '.join(str(v) for v in sweep)}", f"order={order}")
    columns = ("z", "y")[: len(coords)] + extra
    columns += tuple(f"{prefix}{sweep_name[0]}{str(v).replace('.', '')}" for v in sweep)
    return Dataset(meta, columns, np.stack([np.ravel(a) for a in (*coords, *data)], axis=1, dtype=float))


def _table(spec, order) -> Dataset:
    """Absolute errors at NINE_POINTS, paired as (z, z) for a function of z and y."""
    u = np.array(NINE_POINTS)
    coords = (u,) if spec[2] in UNIVARIATE else (u, u)
    exact = eval_function(get_function(spec[2]), *coords)
    ops = (_values(spec[2], p, u, order) for p in _sweep(spec))
    errors = [np.abs(exact - (v if v.ndim == 1 else v.diagonal())) for v in ops]
    return _dataset(spec, order, coords, errors, "err_")


def _figure(spec, order) -> Dataset:
    """The function (phi) and the operators on 201 points, or on a 41 x 41
    product grid for a function of z and y."""
    u = np.linspace(0.0, 1.0, 201 if spec[2] in UNIVARIATE else 41)
    coords = (u,) if spec[2] in UNIVARIATE else tuple(np.meshgrid(u, u, indexing="ij"))
    phi = eval_function(get_function(spec[2]), *coords)
    ops = [_values(spec[2], p, u, order) for p in _sweep(spec)]
    return _dataset(spec, order, coords, [phi, *ops], "op_", ("phi",))


def comparator_params(m, eta, gamma, alpha, s, bbk_gamma=None):
    """Derive the four comparison operators from one base parameter set:
    rlbk, bbk and fbk take the values their operator_uni._REDUCTIONS entry
    fixes (bbk's gamma overridable); rlgbk keeps the base parameters.
    """
    base, fixed = dict(m=m, eta=eta, gamma=gamma, alpha=alpha, s=s), dict(_REDUCTIONS)
    fixed["BBK"] = dict(gamma=gamma if bbk_gamma is None else bbk_gamma, **fixed["BBK"])
    return tuple((tag, OperatorParams(**{**base, **fixed.get(tag.upper(), {})})) for tag in _COMPARATORS)


def compare_rows(fn, m_values, eta, gamma, alpha, s, z_values, order=DEFAULT_ORDER,
                 bbk_gamma=None):
    """One row per m: the largest error over z_values for each comparator."""
    f = get_function(fn)
    degrees = [int(check_int("m", m)) for m in m_values]
    return tuple(
        (m, *(error_table(params, f, z_values, order).max_error
              for _tag, params in comparator_params(m, eta, gamma, alpha, s, bbk_gamma)))
        for m in degrees
    )


def _table4(order: int) -> Dataset:
    eta, gamma, alpha, s = 2.0, 3.0, 0.9, 2
    m_values = (10, 20, 40, 80)
    rows = compare_rows("f4", m_values, eta, gamma, alpha, s, [0.2], order, bbk_gamma=2.0)
    meta = ("table 4", f"function f4 = {BUILTINS['f4']}", f"base eta={eta} gamma={gamma} alpha={alpha} s={s}",
            "errors at z=0.2; bbk comparator uses gamma=2", f"order={order}")
    return Dataset(meta, ("m", *_COMPARATORS), rows)


def _preset(kind: str, which: int, count: int, order: int, build) -> Dataset:
    for spec in PRESETS:
        if spec[:2] == (kind, which):
            return build(spec, order)
    raise DomainError(f"{kind} number must be in 1..{count}, got {which}")


def table_dataset(which: int, order: int = DEFAULT_ORDER) -> Dataset:
    """Preset error table 1..7 (table 4 is the four-way operator comparison)."""
    return _table4(order) if check_int("which", which) == 4 else _preset("table", which, 7, order, _table)


def figure_dataset(which: int, order: int = DEFAULT_ORDER) -> Dataset:
    """Preset figure dataset 1..6: the function and the operators on a grid."""
    return _preset("figure", check_int("which", which), 6, order, _figure)
