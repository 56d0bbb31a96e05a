"""Why the one-step data matrix is always invertible.

The starting states double as interpolation nodes: for any state
dimension and any set of polynomial degrees (gaps allowed), the square
matrix pairing nodes with monomials is invertible.  This demo shows the
worked 2-D example with degrees {1, 2}, a gapped univariate fit, and the
hit-one-degree-miss-the-rest polynomials behind the general argument.

Run:  python3 demos/04_gappy_interpolation.py
"""

import numpy as np

from exactopinf.gappy_interp import (
    gappy_interpolate,
    interpolation_matrix,
    univariate_specific,
)


def main():
    M = interpolation_matrix(2, (1, 2))
    print("2-D, degrees {1, 2}: nodes are all sums of one or two unit vectors")
    print(M.astype(int))
    print(f"condition number: {np.linalg.cond(M):.2f}\n")

    print("univariate fit on degrees {0, 2} (nodes x = 0 and x = 2):")
    coeffs = gappy_interpolate(1, (0, 2), [1.0, 0.0])
    print(f"  p(x) = {coeffs[0]:g} + {coeffs[1]:g} x^2   "
          f"-> p(0) = {coeffs[0]:g}, p(2) = {coeffs[0] + 4 * coeffs[1]:g}\n")

    print("degree-selective polynomials on the gapped set {1, 3}:")
    c = univariate_specific((1, 3), 1)
    print(f"  q(x) = {c[0]:g} x + {c[1]:g} x^3 hits 1 at x = 1, 0 at x = 3")
    print(f"  check: q(1) = {c[0] + c[1]:g}, q(3) = {3 * c[0] + 27 * c[1]:g}")


if __name__ == "__main__":
    main()
