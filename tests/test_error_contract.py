"""The error contract.  Whatever the input, `fracbk` exits 0, 2 (a
DomainError, a ParseError or a usage error) or 3 (another FracbkError), and
no exception escapes `main`; and every public function that takes a
function or points returns or raises a FracbkError."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracbk as fb
from fracbk.cli import main
from fracbk.exprlib import FUNCTION_NAMES

from conftest import expression_texts


def _expressions(variables):
    """Depth-limited expression texts over the given variables."""
    leaves = st.sampled_from([*variables, "pi", "0", "1", "2.5", "1e308"])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds("({}{}{})".format, sub, st.sampled_from("+-*/^"), sub),
            st.builds("{}({})".format, st.sampled_from(FUNCTION_NAMES), sub),
            st.builds("-{}".format, sub),
        ),
        max_leaves=6,
    )


# Valid parameter texts, and odd ones that may replace any of them: NaN,
# +-inf, huge, negative, bool-like and non-integral values.  argparse keeps
# the last of a repeated flag, so an odd value is appended after the valid
# one.  Integers stay small so that no draw allocates much.
_VALID = {"--m": ["1", "3", "6"], "--s": ["0", "2", "5"], "--order": ["1", "4", "8"],
          "--eta": ["0.5", "1", "2.5"], "--gamma": ["1", "2", "3.5"],
          "--alpha": ["0", "0.6", "1"]}
_ODD_INTS = ["0", "-2", "2.5", "True", "nan", "1e3"]
_ODD_REALS = ["0", "-1", "1.5", "nan", "inf", "-inf", "1e308", "1e-300", "True", "x"]
_AXES = ["0.5", "0", "1", "0:1:3", "0.2:0.8:2"]
_ODD_AXES = ["nan", "-0.1", "1e308", "0:1:1", "0:1:2.5", "a"]


def _flags(names):
    """The named flags with valid values, then at most one of them again
    with an odd value."""
    valid = st.tuples(*(st.tuples(st.just(n), st.sampled_from(_VALID[n.rstrip("2")]))
                        for n in names))
    ints = [n for n in names if n.rstrip("2") in ("--m", "--s", "--order")]
    reals = [n for n in names if n not in ints]
    odd = st.lists(st.one_of(st.tuples(st.sampled_from(ints), st.sampled_from(_ODD_INTS)),
                             st.tuples(st.sampled_from(reals), st.sampled_from(_ODD_REALS))),
                   max_size=1)
    return st.builds(lambda v, o: [text for pair in (*v, *o) for text in pair], valid, odd)


def _axis():
    return st.sampled_from(_AXES * 4 + _ODD_AXES)


_OPERATOR = ["--m", "--eta", "--gamma", "--alpha", "--s", "--order"]
_CONSTANTS = st.lists(st.tuples(st.sampled_from(["--M", "--kappa", "--C"]),
                                st.sampled_from(["1", "0.5", "2"] * 4 + _ODD_REALS)),
                      max_size=3)


def _argvs():
    uni = st.one_of(_expressions(["z"]), st.sampled_from(["f1", "f4", "g1", "2$z", ""]))
    biv = st.one_of(_expressions(["z", "y"]), st.sampled_from(["g1", "g3", "f2"]))
    return st.one_of(
        st.builds(lambda fn, ops, z: ["eval", f"--fn={fn}", *ops, "--z", z],
                  uni, _flags(_OPERATOR), _axis()),
        st.builds(lambda fn, ops, z, grid, consts: ["bounds", f"--fn={fn}", *ops, "--z", z,
                                                     "--grid", grid, *sum(consts, ())],
                  uni, _flags(_OPERATOR), _axis(),
                  st.sampled_from(["101", "401"] * 2 + ["5", "200.5"]), _CONSTANTS),
        st.builds(lambda fn, ops, z, y: ["biv-eval", f"--fn={fn}", *ops, "--z", z, "--y", y],
                  biv, _flags([*_OPERATOR, "--m2", "--eta2", "--gamma2", "--alpha2", "--s2"]),
                  _axis(), _axis()),
        st.builds(lambda fn, ms, ops, z, bbk: ["compare", f"--fn={fn}", "--m", ms, *ops,
                                               "--z", z, "--bbk-gamma", bbk],
                  uni, st.sampled_from(["1,2", "3", "2,4", "0,2", "2.5", ","]),
                  _flags(["--eta", "--gamma", "--alpha", "--s", "--order"]), _axis(),
                  st.sampled_from(["2", *_ODD_REALS])),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_every_input_ends_in_a_known_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    if code:
        assert out.getvalue() == "" and "Traceback" not in err.getvalue()


# Functions: expressions of z (and y), callables that never raise by
# themselves (an error inside f is the caller's and propagates), and odd
# values that are no function at all.
_CALLABLES = [lambda *a: a[0], lambda *a: 1.0, lambda *a: np.ones(3), lambda *a: 1j * a[0],
              lambda *a: None, lambda *a: "x", lambda *a: [[0.1], [0.2, 0.3]]]
_ODD_F = st.one_of(st.text(max_size=4), st.sampled_from(["f1", "g1", "z", ""]), st.floats(), st.integers(),
                   st.none(), st.lists(st.floats(), max_size=3))
_F = st.one_of(expression_texts(6).map(fb.parse_source), expression_texts(6, ("z", "y")).map(fb.parse_source),
               st.sampled_from(_CALLABLES), _ODD_F)
# Points: valid ones, then NaN, +-inf and points off [0, 1], and odd values:
# text, None, complex, ragged or mixed lists, an int past the float range
_VALID_POINT = st.floats(0.0, 1.0)
_POINTS = st.one_of(
    _VALID_POINT, st.lists(_VALID_POINT, max_size=4), st.floats(), st.booleans(), st.text(max_size=3),
    st.none(), st.complex_numbers(max_magnitude=2.0), st.just(10**400),
    st.sampled_from([[[0.1], [0.2, 0.3]], [0.1, None], [0.1, "a"], [0.5j], [[0.1, 0.2], [0.3, 0.4]]]),
    st.lists(st.one_of(_VALID_POINT, st.text(max_size=2), st.none()), max_size=3),
)
_LIB_PARAMS = st.builds(fb.OperatorParams, st.integers(1, 6), st.sampled_from([0.5, 1.0, 2.0]),
                        st.sampled_from([1.0, 2.5, 3.0]), st.sampled_from([0.0, 0.9]), st.integers(0, 3))
_KI_F = fb.parse_source("z*(z-0.5)")


def _library_calls(p, f, z, y, odd):
    """Every public function that takes a function or points, on small
    sizes, and the ones whose first argument is a record or an expression
    with an odd value in its place."""
    bp, order = fb.BivariateParams(p, p), 8
    return {
        "apply": lambda: fb.apply(p, f, z, order),
        "kernel_integrals": lambda: fb.kernel_integrals(p, f, order),
        "error_table": lambda: fb.error_table(p, f, z, order),
        "max_error": lambda: fb.max_error(p, f),
        "modulus_continuity": lambda: fb.modulus_continuity(f, 0.1, 101),
        "second_modulus": lambda: fb.second_modulus(f, 0.1, 101),
        "bound_t2": lambda: fb.bound_t2(p, f, z, 101),
        "bound_kfunctional": lambda: fb.bound_kfunctional(p, f, z, 1.0, 101),
        "bound_lipschitz": lambda: fb.bound_lipschitz(p, 1.0, 1.0, z),
        "apply_biv": lambda: fb.apply_biv(bp, f, z, y, order),
        "biv_kernel_integrals": lambda: fb.biv_kernel_integrals(bp, f, order),
        "surface_values": lambda: fb.surface_values(bp, f, z, y, order),
        "surface_rows": lambda: fb.surface_rows(bp, f, z, y, order),
        "partial_moduli": lambda: fb.partial_moduli(f, 0.1, 0.2),
        "complete_modulus": lambda: fb.complete_modulus(f, 0.1),
        "bound_partial": lambda: fb.bound_partial(bp, f, z, y),
        "bound_complete": lambda: fb.bound_complete(bp, f, z, y),
        "integrate": lambda: fb.integrate(fb.gauss_jacobi_rule(p.eta, order), f),
        "compare_rows": lambda: fb.compare_rows(f, [2], p.eta, p.gamma, p.alpha, p.s, z, order),
        "get_function": lambda: fb.get_function(f),
        "evaluate": lambda: fb.evaluate(fb.parse_source("z*y+1"), z, y),
        "is_bivariate": lambda: fb.is_bivariate(f),
        "evaluate(odd)": lambda: fb.evaluate(odd, z, y),
        "is_bivariate(odd)": lambda: fb.is_bivariate(odd),
        "integrate(odd)": lambda: fb.integrate(odd, f),
        "apply_kernel(odd)": lambda: fb.apply_kernel(odd, z),
        "operator_values(odd)": lambda: fb.operator_values(odd, z),
        "apply_biv_kernel(odd)": lambda: fb.apply_biv_kernel(odd, z, y),
        "to_csv(odd)": lambda: fb.to_csv(odd),
        "apply_kernel": lambda: fb.apply_kernel(fb.kernel_integrals(p, _KI_F, order), z),
        "operator_values": lambda: fb.operator_values(fb.kernel_integrals(p, _KI_F, order), z),
        "apply_biv_kernel": lambda: fb.apply_biv_kernel(fb.biv_kernel_integrals(bp, _KI_F, order), z, y),
        "raw_moments": lambda: fb.raw_moments(p, z),
        "central_moments": lambda: fb.central_moments(p, z),
        "moment_recurrence": lambda: fb.moment_recurrence(p, 2, z),
        "biv_moments": lambda: fb.biv_moments(bp, z, y),
        "basis_row": lambda: fb.basis_row(p, z),
        "basis_matrix": lambda: fb.basis_matrix(p, z),
        "bernstein_row": lambda: fb.bernstein_row(p.m, z),
    }


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_LIB_PARAMS, _F, _POINTS, _POINTS, _ODD_F)
def test_every_library_call_returns_or_raises_a_fracbk_error(p, f, z, y, odd):
    for name, call in _library_calls(p, f, z, y, odd).items():
        try:
            call()
        except fb.FracbkError:
            pass
        except Exception as exc:  # noqa: BLE001 - the assertion names it
            raise AssertionError(f"{name} raised {type(exc).__name__}: {exc}") from exc


_P = fb.OperatorParams(3, 1.0, 1.0, 1.0, 2)
_BP = fb.BivariateParams(_P, _P)
_F1, _G1 = fb.get_function("f1"), fb.get_function("g1")
_PARAMS, _BIV = "params must be an OperatorParams", "bp must be a BivariateParams"
_FIRST_ARGUMENTS = {
    "evaluate": (lambda a: fb.evaluate(a, 0.5), "expr must be a FunctionExpr"),
    "is_bivariate": (lambda a: fb.is_bivariate(a), "expr must be a FunctionExpr"),
    "integrate": (lambda a: fb.integrate(a, _KI_F), "rule must be a QuadratureRule"),
    "apply_kernel": (lambda a: fb.apply_kernel(a, 0.5), "ki must be a KernelIntegrals"),
    "operator_values": (lambda a: fb.operator_values(a, [0.5]), "ki must be a KernelIntegrals"),
    "apply_biv_kernel": (lambda a: fb.apply_biv_kernel(a, 0.5, 0.5), "ki must be a BivKernelIntegrals"),
    "to_csv": (lambda a: fb.to_csv(a), "ds must be a Dataset"),
    "kernel_integrals": (lambda a: fb.kernel_integrals(a, _F1), _PARAMS),
    "error_table": (lambda a: fb.error_table(a, _F1, [0.5]), _PARAMS),
    "max_error": (lambda a: fb.max_error(a, _F1), _PARAMS),
    "basis_row": (lambda a: fb.basis_row(a, 0.5), _PARAMS),
    "basis_matrix": (lambda a: fb.basis_matrix(a, [0.5]), _PARAMS),
    "apply": (lambda a: fb.apply(a, _F1, 0.5), _PARAMS),
    "central_moments": (lambda a: fb.central_moments(a, 0.5), _PARAMS),
    "raw_moments": (lambda a: fb.raw_moments(a, 0.5), _PARAMS),
    "moment_recurrence": (lambda a: fb.moment_recurrence(a, 2, 0.5), _PARAMS),
    "special_case": (lambda a: fb.special_case(a), _PARAMS),
    "bound_t2": (lambda a: fb.bound_t2(a, _F1, 0.5), _PARAMS),
    "bound_lipschitz": (lambda a: fb.bound_lipschitz(a, 1.0, 1.0, 0.5), _PARAMS),
    "bound_kfunctional": (lambda a: fb.bound_kfunctional(a, _F1, 0.5, 1.0), _PARAMS),
    "biv_kernel_integrals": (lambda a: fb.biv_kernel_integrals(a, _G1), _BIV),
    "surface_values": (lambda a: fb.surface_values(a, _G1, [0.5], [0.5]), _BIV),
    "surface_rows": (lambda a: fb.surface_rows(a, _G1, [0.5], [0.5]), _BIV),
    "apply_biv": (lambda a: fb.apply_biv(a, _G1, 0.5, 0.5), _BIV),
    "biv_moments": (lambda a: fb.biv_moments(a, 0.5, 0.5), _BIV),
    "bound_partial": (lambda a: fb.bound_partial(a, _G1, 0.5, 0.5), _BIV),
    "bound_complete": (lambda a: fb.bound_complete(a, _G1, 0.5, 0.5), _BIV),
}
_RECORD = object()  # an OperatorParams, or a BivariateParams where an OperatorParams is due


@pytest.mark.parametrize("name", sorted(_FIRST_ARGUMENTS))
@pytest.mark.parametrize("odd", ["z*y", None, 0.5, _RECORD], ids=["str", "None", "float", "record"])
def test_a_first_argument_of_the_wrong_type_names_the_type(name, odd):
    # each ended in a raw AttributeError
    call, message = _FIRST_ARGUMENTS[name]
    if odd is _RECORD:
        odd = _BP if message == _PARAMS else _P
    with pytest.raises(fb.DomainError, match=f"^{message}, got {type(odd).__name__}$"):
        call(odd)
