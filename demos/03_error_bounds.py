"""A priori error bounds versus the error the operator actually commits.

Three bounds are available for the univariate operator:

* ``bound_t2``          - 2*omega(f; sqrt(xi2)), a first-modulus bound, valid for any continuous f;
* ``bound_lipschitz``   - for f in a Holder class with constant M, order kappa;
* ``bound_kfunctional`` - K-functional form with an explicit constant C.

The demo evaluates each bound for the identity function (M = 1, kappa = 1)
and for a corpus function, next to the actual error |R(f; z) - f(z)|, so
the guaranteed-but-pessimistic nature of the bounds is visible.  The last
block prints the certified moduli of continuity that feed them: upper
bounds from interval enclosures of f on 65,536 cells, next to the largest
difference of f over the shifts of a grid of 4,001 points, which
approaches the modulus from below.
"""

import numpy as np

from fracbk import (
    OperatorParams,
    apply,
    bound_kfunctional,
    bound_lipschitz,
    bound_t2,
    evaluate,
    get_function,
    modulus_continuity,
    second_modulus,
)


def main():
    params = OperatorParams(m=50, eta=2.0, gamma=3.0, alpha=0.8, s=2)

    print("identity function (Lipschitz with M = 1, kappa = 1), m = 50")
    print(f"{'z':>5} {'actual':>11} {'t2 bound':>11} {'lipschitz':>11}")
    ident = get_function("z")
    for z in (0.1, 0.3, 0.5, 0.7, 0.9):
        actual = abs(apply(params, ident, z) - z)
        b_t2 = bound_t2(params, ident, z)
        b_lip = bound_lipschitz(params, 1.0, 1.0, z)
        print(f"{z:>5.2f} {actual:>11.3e} {b_t2:>11.3e} {b_lip:>11.3e}")

    print()
    f = get_function("f1")
    print("corpus function f1, K-functional bound with C = 2")
    print(f"{'z':>5} {'actual':>11} {'t2 bound':>11} {'k-functional':>13}")
    for z in (0.1, 0.3, 0.5, 0.7, 0.9):
        actual = abs(apply(params, f, z) - evaluate(f, z))
        b_t2 = bound_t2(params, f, z)
        b_k = bound_kfunctional(params, f, z, C=2.0)
        print(f"{z:>5.2f} {actual:>11.3e} {b_t2:>11.3e} {b_k:>13.3e}")

    print()
    print("moduli of f1: certified upper bounds and a grid estimate from below")
    print(f"{'delta':>7} {'omega1':>10} {'grid':>10} {'omega2':>10}")
    values = evaluate(f, np.linspace(0.0, 1.0, 4001))
    for delta in (0.2, 0.1, 0.05, 0.025):
        w1 = modulus_continuity(f, delta).value
        # |f(u + k/4000) - f(u)| over the grid points u and shifts k/4000 <= delta
        shifts = range(1, round(delta * 4000) + 1)
        below = max(float(np.max(np.abs(values[k:] - values[:-k]))) for k in shifts)
        w2 = second_modulus(f, delta).value
        print(f"{delta:>7.3f} {w1:>10.6f} {below:>10.6f} {w2:>10.6f}")


if __name__ == "__main__":
    main()
