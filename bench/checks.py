"""Output checks; every failed check counts the request in error_rate.

- preset CSVs: cell by cell against the reference CSVs in reference/, within
  REF_ATOL + REF_RTOL*|reference|, so that changes which only move the last
  bits (batching, a different quadrature order) still pass;
- quadratic inputs: against the closed forms raw_moments / biv_moments;
- other inputs: min f <= R(f; z) <= max f, which holds because the operator
  is a convex combination of values of f;
- bound_t2, bound_partial and bound_complete: at least the actual error.

A failure has a kind: "bound" for a bound below the actual error (a known
defect of the grid moduli) and "wrong" for everything else, including an
exception or a non-zero exit.  Only "wrong" makes a run incorrect.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import fracbk
from fracbk.experiments import comparator_params

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REF_RTOL = 1e-9
REF_ATOL = 1e-12
CLOSED_TOL = 1e-8  # times the sum of |coefficients|
BOUND_SLACK = 1e-13

_UNI_GRID = 100_001
_BIV_GRID = 1001


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_name(preset_argv) -> str:
    return "".join(preset_argv) + ".csv"


def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def compare_csv(text: str, ref: str) -> list[str]:
    """Cell-by-cell comparison of two CSVs, ignoring '#' metadata lines."""
    got, want = _data_lines(text), _data_lines(ref)
    if len(got) != len(want):
        return [f"{len(got)} data lines, reference has {len(want)}"]
    problems = []
    for row, (g_line, w_line) in enumerate(zip(got, want)):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        if len(g_cells) != len(w_cells):
            problems.append(f"line {row}: {len(g_cells)} cells, reference has {len(w_cells)}")
            continue
        for col, (g, w) in enumerate(zip(g_cells, w_cells)):
            try:
                gv, wv = float(g), float(w)
            except ValueError:
                if g != w:
                    problems.append(f"line {row} col {col}: {g!r} != {w!r}")
                continue
            if not abs(gv - wv) <= REF_ATOL + REF_RTOL * abs(wv):
                problems.append(f"line {row} col {col}: {gv!r} vs reference {wv!r}")
    return problems


def parse_csv_rows(text: str) -> list[tuple]:
    """Data rows as tuples of floats (blank cells become None), header skipped."""
    rows = []
    for line in _data_lines(text)[1:]:
        rows.append(tuple(float(c) if c else None for c in line.split(",")))
    return rows


def _params(p) -> fracbk.OperatorParams:
    m, eta, gamma, alpha, s = p
    return fracbk.OperatorParams(int(m), float(eta), float(gamma), float(alpha), int(s))


def _uni_closed(params, quad, z: float) -> float:
    mo = fracbk.raw_moments(params, z)
    return quad[0] + quad[1] * mo.e1 + quad[2] * mo.e2


def _biv_closed(bp, quad, z: float, y: float) -> float:
    mo = fracbk.biv_moments(bp, z, y)
    return (quad[0] + quad[1] * mo.e10 + quad[2] * mo.e01 + quad[3] * mo.e11
            + quad[4] * mo.e20 + quad[5] * mo.e02)


class Checker:
    """Checks one request's output; caches the range of each function."""

    def __init__(self):
        self._ranges: dict[str, tuple[float, float, float]] = {}

    def value_range(self, src: str) -> tuple[float, float, float]:
        """(min, max, slack) of f over [0,1] or [0,1]^2 on a fine grid; slack
        is the largest step between neighbouring grid values, which bounds
        how far the true extremes can lie beyond the grid's."""
        if src not in self._ranges:
            f = fracbk.get_function(src)
            if fracbk.is_bivariate(f):
                u = np.linspace(0.0, 1.0, _BIV_GRID)
                # Blocks of 101 rows, overlapping by one row, keep temporaries small.
                blocks = (fracbk.evaluate(f, u[i:i + 101, None], u[None, :])
                          for i in range(0, _BIV_GRID - 1, 100))
            else:
                blocks = [fracbk.evaluate(f, np.linspace(0.0, 1.0, _UNI_GRID))]
            lo, hi, step = np.inf, -np.inf, 0.0
            for block in blocks:
                block = np.atleast_2d(np.asarray(block, dtype=float))
                lo, hi = min(lo, float(block.min())), max(hi, float(block.max()))
                for axis in (0, 1):
                    if block.shape[axis] > 1:
                        step = max(step, float(np.max(np.abs(np.diff(block, axis=axis)))))
            self._ranges[src] = (lo, hi, step + 1e-12 * (1.0 + max(abs(lo), abs(hi))))
        return self._ranges[src]

    def _in_range(self, src: str, values) -> list[str]:
        lo, hi, slack = self.value_range(src)
        bad = [v for v in values if not lo - slack <= v <= hi + slack]
        return [f"{len(bad)} values outside [{lo!r}, {hi!r}], e.g. {bad[0]!r}"] if bad else []

    def _uni_values(self, req, params, zs, approx) -> list[str]:
        if not np.all(np.isfinite(approx)):
            return ["non-finite operator value"]
        if req["quad"] is None:
            return self._in_range(req["fn"], approx)
        tol = CLOSED_TOL * sum(abs(c) for c in req["quad"])
        worst = max(abs(a - _uni_closed(params, req["quad"], z)) for z, a in zip(zs, approx))
        return [] if worst <= tol else [f"closed-form mismatch {worst:.3e} > {tol:.3e}"]

    def _biv_values(self, req, bp, pts, approx) -> list[str]:
        if not np.all(np.isfinite(approx)):
            return ["non-finite operator value"]
        if req["quad"] is None:
            return self._in_range(req["fn"], approx)
        tol = CLOSED_TOL * sum(abs(c) for c in req["quad"])
        worst = max(abs(a - _biv_closed(bp, req["quad"], z, y)) for (z, y), a in zip(pts, approx))
        return [] if worst <= tol else [f"closed-form mismatch {worst:.3e} > {tol:.3e}"]

    @staticmethod
    def _dominates(errors, bounds, label) -> list[str]:
        low = [(e, b) for e, b in zip(errors, bounds) if not e <= b + BOUND_SLACK]
        if low:
            return [f"{label} below the actual error at {len(low)} points, e.g. {low[0][1]!r} < {low[0][0]!r}"]
        return []

    def check(self, req: dict, out) -> list[tuple[str, str]]:
        """Failures of one request as (kind, message); empty when it passes."""
        op = req["op"]
        if op == "bounds_uni":
            if not all(np.isfinite(v) for r in out for v in r):
                return [("wrong", "non-finite value, error or bound")]
            zs, approx, errors = ([r[k] for r in out] for k in range(3))
            found = [("wrong", w) for w in self._uni_values(req, _params(req["p"]), zs, approx)]
            return found + [("bound", w) for w in self._dominates(errors, [r[3] for r in out], "bound_t2")]
        if op == "bounds_biv":
            if not all(np.isfinite(v) for r in out for v in r):
                return [("wrong", "non-finite value, error or bound")]
            bp = fracbk.BivariateParams(_params(req["px"]), _params(req["py"]))
            pts, approx, errors = [(r[0], r[1]) for r in out], [r[2] for r in out], [r[3] for r in out]
            found = [("wrong", w) for w in self._biv_values(req, bp, pts, approx)]
            low = self._dominates(errors, [r[4] for r in out], "bound_partial")
            low += self._dominates(errors, [r[5] for r in out], "bound_complete")
            return found + [("bound", w) for w in low]
        return self.check_cli(req, out)

    def check_cli(self, req: dict, out) -> list[tuple[str, str]]:
        """out is (exit code, CSV text)."""
        code, text = out
        if code != 0:
            return [("wrong", f"exit code {code}")]
        if req["kind"] == "preset":
            ref = (REFERENCE_DIR / reference_name(req["argv"])).read_text()
            return [("wrong", p) for p in compare_csv(text, ref)[:3]]
        opts = _argv_options(req["argv"])
        rows = parse_csv_rows(text)
        if not rows:
            return [("wrong", "no data rows")]
        kind = req["kind"]
        if kind == "eval":
            wrong = self._uni_values(req, _cli_params(opts), [r[0] for r in rows], [r[2] for r in rows])
        elif kind == "biv-eval":
            p = _cli_params(opts)
            bp = fracbk.BivariateParams(p, p)
            wrong = self._biv_values(req, bp, [(r[0], r[1]) for r in rows], [r[3] for r in rows])
        elif kind == "compare":
            wrong = self._compare(req, opts, rows)
        else:
            if not all(v is not None and np.isfinite(v) for r in rows for v in r[:3]):
                return [("wrong", "non-finite error or bound")]
            return [("bound", w) for w in self._dominates([r[1] for r in rows], [r[2] for r in rows], "bound_t2")]
        return [("wrong", w) for w in wrong]

    def _compare(self, req, opts, rows) -> list[str]:
        """Each comparator's largest error over the single point --z."""
        z = float(opts["--z"])
        values = [v for r in rows for v in r[1:]]
        if not all(np.isfinite(values)):
            return ["non-finite error"]
        if req["quad"] is None:
            lo, hi, slack = self.value_range(req["fn"])
            bad = [v for v in values if not 0.0 <= v <= hi - lo + slack]
            return [f"{len(bad)} errors outside [0, max f - min f]"] if bad else []
        a, b, c = req["quad"]
        exact = a + b * z + c * z * z
        tol = CLOSED_TOL * (abs(a) + abs(b) + abs(c))
        for row in rows:
            comps = comparator_params(int(row[0]), float(opts["--eta"]), float(opts["--gamma"]),
                                      float(opts["--alpha"]), int(opts["--s"]))
            for (_tag, params), got in zip(comps, row[1:]):
                want = abs(exact - _uni_closed(params, req["quad"], z))
                if not abs(got - want) <= tol:
                    return [f"closed-form mismatch for m={int(row[0])}: {got!r} vs {want!r}"]
        return []


def _argv_options(argv) -> dict[str, str]:
    opts = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--") and "=" in arg:
            key, value = arg.split("=", 1)
            opts[key] = value
        elif arg.startswith("--") and i + 1 < len(argv):
            opts[arg] = argv[i + 1]
            i += 1
        i += 1
    return opts


def _cli_params(opts) -> fracbk.OperatorParams:
    return _params([opts["--m"], opts["--eta"], opts["--gamma"], opts["--alpha"], opts["--s"]])
