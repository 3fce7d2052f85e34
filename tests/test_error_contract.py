"""The CLI's error contract: whatever the input, `fracbk` exits 0, 2 (a
DomainError, a ParseError or a usage error) or 3 (another FracbkError), and
no exception escapes `main`."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from fracbk.cli import main
from fracbk.exprlib import FUNCTION_NAMES


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
