"""Seeded request generators for the benchmark workloads.

Standard library only, so the driver can size a run without importing numpy
or fracbk.  The continuous parameters of a workload's n requests form a
Latin hypercube: each parameter takes each of n equal slices of its range
once.  Which slices share a request is fixed per workload and n; the seed
moves the continuous values other than the degrees inside their slices and
draws the functions' coefficients, the centres of abs(z - c) and the
interior points of the bivariate bounds.
The requests run in design order, which is fixed too, so that the memory
allocator's history is the same in every run.  The request costs, and with
them medians, tails and peak memory, are then nearly the same from seed to
seed, while every seed still sends different inputs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli", "bounds")

# Rough seconds per request on a 2-vCPU machine; only used to turn --seconds
# into the run's fixed request count.
NOMINAL_S = {"cli": 0.5, "bounds": 0.6}

# eta comes from a fixed set so that, after warm-up, the Gauss-Jacobi rules
# of the in-process workload come from the rule cache.
ETAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0)

PRESETS = tuple(f"table {i}" for i in range(1, 8)) + tuple(f"figure {i}" for i in range(1, 7))
ADHOC_KINDS = ("eval", "compare", "bounds", "biv-eval")
ADHOC_PER_ROUND = 3
BIV_EVAL_SIZES = (21, 41, 101)  # grid points per axis, one per ad-hoc slot

UNI_KINDS = ("f1", "f2", "f3", "f4", "quadratic", "abs", "sqrt")
BIV_KINDS = ("g1", "g2", "g3", "bilinear", "quadratic", "abs")


def request_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_S[workload]))


# Share of its slice by which the seed may move a value.  Kept small so that
# the largest requests, which set the tail latency, change little.
JITTER = 0.2


class _Design:
    """Columns of a Latin hypercube with n points (see the module docstring)."""

    def __init__(self, name: str, n: int, rng: random.Random):
        self._layout = random.Random(f"layout:{name}:{n}")
        self._rng = rng
        self.n = n

    def column(self, jitter: float = JITTER) -> list[float]:
        """One parameter's values; discrete choices pass jitter=0 so that a
        seed cannot move a value across the boundary between two choices."""
        slots = list(range(self.n))
        self._layout.shuffle(slots)
        return [(k + 0.5 + jitter * (self._rng.random() - 0.5)) / self.n for k in slots]


def _strata(rng: random.Random, n: int) -> list[float]:
    slots = list(range(n))
    rng.shuffle(slots)
    return [(k + rng.random()) / n for k in slots]


def _pick(seq, u: float):
    return seq[min(int(u * len(seq)), len(seq) - 1)]


def _log_uniform_int(lo: int, hi: int, u: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _int_range(lo: int, hi: int, u: float) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _coeffs(rng: random.Random, k: int) -> list[float]:
    return [round(rng.uniform(-2.0, 2.0), 6) for _ in range(k)]


def _num(x: float) -> str:
    """Fixed-point text: the expression language has no exponent notation."""
    return f"{x:.6f}"


def uni_function(kind: str, rng: random.Random) -> dict:
    """Source text plus, for quadratics, the coefficients of 1, z, z^2."""
    if kind == "quadratic":
        a, b, c = _coeffs(rng, 3)
        return {"fn": f"{_num(a)} + {_num(b)}*z + {_num(c)}*z^2", "quad": [a, b, c]}
    if kind == "abs":
        return {"fn": f"abs(z - {_num(rng.uniform(0.1, 0.9))})", "quad": None}
    if kind == "sqrt":
        return {"fn": "sqrt(z)", "quad": None}
    return {"fn": kind, "quad": None}


def biv_function(kind: str, rng: random.Random) -> dict:
    """Source text plus, for bilinear and quadratic forms, the coefficients
    of 1, z, y, z*y, z^2, y^2."""
    if kind == "bilinear":
        a, b, c, d = _coeffs(rng, 4)
        src = f"{_num(a)} + {_num(b)}*z + {_num(c)}*y + {_num(d)}*z*y"
        return {"fn": src, "quad": [a, b, c, d, 0.0, 0.0]}
    if kind == "quadratic":
        a, b, c, d, e, f = _coeffs(rng, 6)
        src = (f"{_num(a)} + {_num(b)}*z + {_num(c)}*y + {_num(d)}*z*y + {_num(e)}*z^2 "
               f"+ {_num(f)}*y^2")
        return {"fn": src, "quad": [a, b, c, d, e, f]}
    if kind == "abs":
        return {"fn": "abs(z - y)", "quad": None}
    return {"fn": kind, "quad": None}


def _axis_params(design: _Design, m_lo: int, m_hi: int, log_m: bool) -> list[list]:
    """Parameter lists [m, eta, gamma, alpha, s], one per design point."""
    draw_m = _log_uniform_int if log_m else _int_range
    # m sets the array sizes; left unjittered, the sizes and with them the
    # allocator's reuse of freed memory, and so peak memory, repeat exactly.
    ms, etas, gammas, alphas, ss = (design.column(j) for j in (0, 0, JITTER, JITTER, 0))
    return [
        [draw_m(m_lo, m_hi, ms[i]), _pick(ETAS, etas[i]), 1.0 + 4.0 * gammas[i],
         alphas[i], _int_range(0, 6, ss[i])]
        for i in range(design.n)
    ]


CORNERS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))


def _bounds_requests(rng: random.Random, n: int) -> list[dict]:
    n_uni = (n + 1) // 2
    n_biv = n - n_uni
    design = _Design("bounds_uni", n_uni, rng)
    params = _axis_params(design, 10, 100_000, log_m=True)
    kinds, sizes = design.column(0), design.column()
    out = [
        {"op": "bounds_uni", "p": params[i], "nz": _int_range(11, 51, sizes[i]), "C": 1.0,
         **uni_function(_pick(UNI_KINDS, kinds[i]), rng)}
        for i in range(n_uni)
    ]
    # Both axes share one parameter set, as the CLI's biv-eval does by default.
    design = _Design("bounds_biv", n_biv, rng)
    axes = _axis_params(design, 5, 120, log_m=False)
    kinds, corners = design.column(0), design.column(0)
    for i in range(n_biv):
        interior = (rng.randint(1, 9) / 10.0, rng.randint(1, 9) / 10.0)
        out.append({"op": "bounds_biv", "px": axes[i], "py": axes[i],
                    "points": [list(_pick(CORNERS, corners[i])), list(interior)],
                    **biv_function(_pick(BIV_KINDS, kinds[i]), rng)})
    return out


def _adhoc_argv(kind: str, rng: random.Random, u: float, slot: int) -> dict:
    """One ad-hoc CLI call at the README's sizes; slot (0..ADHOC_PER_ROUND-1)
    fixes the biv-eval grid size, so every round writes the same grids.

    --fn=SRC keeps argparse from reading a leading minus sign as a flag.
    """
    eta, gamma = _pick(ETAS, rng.random()), round(rng.uniform(1.0, 5.0), 3)
    alpha, s = round(rng.random(), 3), rng.randint(0, 6)
    shape = ["--eta", repr(eta), "--gamma", repr(gamma), "--alpha", repr(alpha), "--s", str(s)]
    if kind == "eval":
        fn = uni_function(_pick(UNI_KINDS, u), rng)
        argv = ["eval", "--m", str(rng.randint(20, 60)), *shape, f"--fn={fn['fn']}", "--z", "0:1:101"]
    elif kind == "compare":
        fn = uni_function(_pick(UNI_KINDS, u), rng)
        argv = ["compare", f"--fn={fn['fn']}", "--m", "10,20,40,80", *shape, "--z", "0.2"]
    elif kind == "bounds":
        fn = uni_function(_pick(UNI_KINDS, u), rng)
        argv = ["bounds", "--m", str(rng.randint(20, 40)), *shape, f"--fn={fn['fn']}",
                "--z", "0:1:11", "--M", "1", "--kappa", "1", "--C", "2"]
    else:
        fn = biv_function(_pick(BIV_KINDS, u), rng)
        n = BIV_EVAL_SIZES[slot]
        argv = ["biv-eval", "--m", str(rng.randint(5, 15)), *shape, f"--fn={fn['fn']}",
                "--z", f"0:1:{n}", "--y", f"0:1:{n}"]
    return {"op": "cli", "kind": kind, "argv": argv, "quad": fn["quad"], "fn": fn["fn"]}


def _cli_requests(rng: random.Random, n: int) -> list[dict]:
    """Rounds of the 13 presets plus ADHOC_PER_ROUND calls of each ad-hoc
    kind; the run takes the first n.  Each round's order is shuffled by a
    generator that does not depend on the seed, so a truncated last round
    holds the same presets and call kinds for every seed."""
    out: list[dict] = []
    while len(out) < n:
        rnd = [{"op": "cli", "kind": "preset", "argv": p.split(), "quad": None, "fn": None}
               for p in PRESETS]
        for kind in ADHOC_KINDS:
            rnd.extend(_adhoc_argv(kind, rng, u, slot)
                       for slot, u in enumerate(_strata(rng, ADHOC_PER_ROUND)))
        random.Random(f"layout:cli:{len(out)}").shuffle(rnd)
        out.extend(rnd)
    return out[:n]


_GENERATORS = {"cli": _cli_requests, "bounds": _bounds_requests}


def make_requests(workload: str, seed: int, count: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, count)


def warmup_requests(workload: str) -> list[dict]:
    """Small fixed requests that fill the rule cache for every eta in ETAS."""
    if workload != "bounds":
        return []
    uni = [{"op": "bounds_uni", "p": [10, eta, 2.0, 0.5, 2], "nz": 3, "C": 1.0,
            "fn": "f1", "quad": None} for eta in ETAS]
    biv = [{"op": "bounds_biv", "px": [5, eta, 2.0, 0.5, 2], "py": [5, eta, 2.0, 0.5, 2],
            "points": [[0.5, 0.5]], "fn": "g1", "quad": None} for eta in ETAS]
    return uni + biv
