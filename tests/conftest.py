import numpy as np
import pytest
from hypothesis import strategies as st

from fracbk import OperatorParams


@pytest.fixture
def rng():
    return np.random.default_rng(20250825)


def draw_params(rng, m_max=150, eta_range=(0.0, 5.0), gamma_range=(1.0, 5.0), s_max=6):
    """One random parameter set; eta is drawn from the open-left interval."""
    lo, hi = eta_range
    eta = rng.uniform(lo, hi)
    while eta <= 0.0:
        eta = rng.uniform(lo, hi)
    return OperatorParams(
        m=int(rng.integers(1, m_max + 1)),
        eta=float(eta),
        gamma=float(rng.uniform(*gamma_range)),
        alpha=float(rng.uniform(0.0, 1.0)),
        s=int(rng.integers(0, s_max + 1)),
    )


def expression_texts(max_leaves=8, variables=("z",)):
    """Depth-limited expression texts in the given variables over every
    operator and call."""
    return st.recursive(
        st.sampled_from([*variables, "pi", "0.5", "2", "3", "0"]),
        lambda sub: st.one_of(
            st.builds("({}{}{})".format, sub, st.sampled_from("+-*/^"), sub),
            st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), sub),
            st.builds("-{}".format, sub),
        ),
        max_leaves=max_leaves,
    )
