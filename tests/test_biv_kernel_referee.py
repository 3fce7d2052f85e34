"""The one-buffer bivariate kernel against the masked builder it replaced.

biv_kernel_integrals writes each separated piece into the matrix that it
returns, and separate_cells builds no mask for an expression without abs
of a function of z and y.  oracles.masked_biv_kernel_integrals keeps the
builder with a mask of every cell per piece, an empty placeholder and one
np.where copy per piece.  Every entry must be the same bits, or the same
error must be raised, except where a pure-z term now joins the mixed terms
of its z-factor, which regroups the sum: there V stays within 1e-13 of
max|V|.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbk import BivariateParams, FracbkError, OperatorParams, biv_kernel_integrals, get_function, parse_source
from fracbk.exprlib import FunctionExpr, separate_cells

import oracles
from conftest import expression_texts

# g1-g3, the forms of the benchmark's bilinear and quadratic functions, abs
# of one and of two g of z and y, an inseparable expression, a factor that
# overflows, and a callable
_CASES = {
    "g1": get_function("g1"),
    "g2": get_function("g2"),
    "g3": get_function("g3"),
    "bilinear": parse_source("-0.613480 + 1.904212*z + 0.250000*y + -1.377051*z*y"),
    "quadratic": parse_source("0.5 + -1.25*z + 0.75*y + 1.5*z*y + -0.25*z^2 + 2.000000*y^2"),
    "abs(z-y)": parse_source("abs(z-y)"),
    "abs(z-y)+abs(z+y-1)": parse_source("abs(z-y)+abs(z+y-1)"),
    "sin(z*y)": parse_source("sin(z*y)"),
    "exp(800*z)*y": parse_source("exp(800*z)*y"),
    "callable": lambda z, y: np.exp(z) * np.cos(3.0 * y) + z * y,
}


_TEXT, _Z, _Y = (expression_texts(4, names) for names in (("z", "y"), ("z",), ("y",)))
# two-variable texts; sums of products; a pure-z term next to a mixed term
# of the same z-factor; and abs of a function of z and y, which keeps a
# sign on some cells and not on others
_DRAWN = st.one_of(
    expression_texts(max_leaves=6, variables=("z", "y")),
    st.builds("({})*({})+({})".format, _TEXT, _TEXT, _TEXT),
    st.builds(lambda a, b, c: f"({a})*({b})+({c})+({a})", _Z, _Y, _TEXT),
    st.builds("abs(({})*z-({})*y+({}))+({})".format, _TEXT, _TEXT, _TEXT, _TEXT),
)


def _params(m1, m2, s):
    return BivariateParams(OperatorParams(m1, 2.0, 2.3, 0.6, s), OperatorParams(m2, 1.5, 3.0, 0.8, s))


def _tensor_cells(bp):
    z, y = (np.arange(p.m + 2) / (p.m + 1.0) for p in (bp.px, bp.py))
    return (z[:-1, None], z[1:, None]), (y[:-1], y[1:])


def _outcome(build, bp, F):
    """The kernel matrix, or the type and message of the error raised."""
    try:
        return build(bp, F)
    except FracbkError as exc:
        return type(exc), str(exc)


def _regrouped(bp, F) -> bool:
    """Whether some piece of F separates into other terms than the masked
    builder's (a pure-z term joined to its z-factor's mixed terms)."""
    if not isinstance(F, FunctionExpr):
        return False
    new, old = (split(F, *_tensor_cells(bp)) for split in (separate_cells, oracles.masked_separate_cells))
    return new is not None and [terms for _c, terms in new[0]] != [terms for _c, terms in old[0]]


def _assert_same_kernel(bp, F, label):
    new = _outcome(lambda bp, F: biv_kernel_integrals(bp, F).values, bp, F)
    old = _outcome(oracles.masked_biv_kernel_integrals, bp, F)
    if isinstance(new, tuple) or isinstance(old, tuple):
        assert isinstance(new, tuple) and isinstance(old, tuple) and new == old, label
    elif _regrouped(bp, F):
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old)), label
    else:
        assert new.tobytes() == old.tobytes(), label


class TestOneBufferReferee:
    @pytest.mark.parametrize("s", [0, 2, 3])
    @pytest.mark.parametrize("m", [5, 12, 30, 120])
    @pytest.mark.parametrize("name", list(_CASES))
    def test_matches_the_masked_builder(self, name, m, s):
        _assert_same_kernel(_params(m, m, s), _CASES[name], name)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_DRAWN, st.integers(1, 12), st.integers(1, 12), st.sampled_from([0, 2, 3]))
    def test_matches_the_masked_builder_drawn(self, text, m1, m2, s):
        _assert_same_kernel(_params(m1, m2, s), parse_source(text), text)

    @pytest.mark.parametrize("src", ["z*y+z", "(z+y)^4*(1+z*y)", "abs(z-y)*(z*y+z)"])
    def test_a_joined_pure_z_term_regroups_within_the_bound(self, src):
        bp, F = _params(12, 12, 2), parse_source(src)
        assert _regrouped(bp, F)
        _assert_same_kernel(bp, F, src)

    @pytest.mark.parametrize("name", ["g1", "abs(z-y)", "abs(z-y)+abs(z+y-1)", "sin(z*y)"])
    def test_pieces_and_rest_are_the_masks_broadcast(self, name):
        F, cells = _CASES[name], _tensor_cells(_params(30, 12, 2))
        (new, new_rest), (old, old_rest) = separate_cells(F, *cells), oracles.masked_separate_cells(F, *cells)
        assert len(new) == len(old)
        for (got, _), (want, _) in zip(new, old):
            assert np.array_equal(np.broadcast_to(got, want.shape), want)
        assert np.array_equal(np.broadcast_to(new_rest, old_rest.shape), old_rest)


def _peak_per_matrix(bp, F) -> float:
    """The tracemalloc peak of one biv_kernel_integrals call, in units of
    the (m1+1) x (m2+1) float matrix it returns (rules built before)."""
    biv_kernel_integrals(bp, F)
    tracemalloc.start()
    try:
        biv_kernel_integrals(bp, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((bp.px.m + 1) * (bp.py.m + 1) * 8.0)


@pytest.mark.parametrize("src, m, bound", [
    ("g1", 1500, 2.05),  # the sum of two outer products, and nothing of V's size more (3.38 before)
    ("abs(z-y)", 1000, 4.1),  # the second piece's sum beside V (5.13 before)
])
def test_kernel_footprint(src, m, bound):
    p = OperatorParams(m, 2.0, 3.0, 0.9, 2)
    assert _peak_per_matrix(BivariateParams(p, p), get_function(src)) <= bound
