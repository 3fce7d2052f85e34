"""The kernel integrals of f1 and f2 against a 30-digit reference.

K_j = int_0^1 eta (1-s)^(eta-1) f((j + s^gamma)/(m+1)) ds is taken by
mpmath.quad over the parsed expression (oracles.kernel_reference), which
shares no code with the library's rules.  Every value must lie within
1e-14 + 1e-13 |K_j| of it: the kernels behind tables 1 and 2 and figures 1
and 2 (every row below m = 100, 26 rows from m = 100 on), and 11 rows at
m = 10^4 and 10^5.
"""

import numpy as np
import pytest

from fracbk import OperatorParams, get_function, kernel_integrals
from fracbk.experiments import PRESETS, _sweep
from oracles import kernel_reference

pytest.importorskip("mpmath")

_PRESET_KERNELS = sorted({(spec[2], p.m, p.eta, p.gamma) for spec in PRESETS if spec[2] in ("f1", "f2")
                          for p in _sweep(spec)})
_LARGE_M = [(fn, m, 2.0, 2.3) for fn in ("f1", "f2", "exp(z)*sin(5*z)") for m in (10**4, 10**5)]


def _check_rows(fn, m, eta, gamma, rows):
    f = get_function(fn)
    values = kernel_integrals(OperatorParams(m, eta, gamma, 0.5, 2), f).values
    for j in rows:
        ref = kernel_reference(f, eta, gamma, m, j)
        assert abs(values[j] - ref) <= 1e-14 + 1e-13 * abs(ref), (j, values[j], ref)


def test_the_presets_take_the_kernels_listed():
    assert [k[:2] for k in _PRESET_KERNELS] == [("f1", 20), ("f1", 30), ("f1", 40), ("f1", 70), ("f1", 100),
                                                 ("f1", 250), ("f2", 10), ("f2", 90)]


@pytest.mark.parametrize("fn, m, eta, gamma", _PRESET_KERNELS)
def test_preset_kernels(fn, m, eta, gamma):
    rows = range(m + 1) if m < 100 else np.linspace(0, m, 26).round().astype(int).tolist()
    _check_rows(fn, m, eta, gamma, rows)


@pytest.mark.parametrize("fn, m, eta, gamma", _LARGE_M)
def test_large_m_kernels(fn, m, eta, gamma):
    _check_rows(fn, m, eta, gamma, [m * k // 10 for k in range(11)])
