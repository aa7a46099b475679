"""
BCH utilities and the spectral toolbox
======================================

The Baker-Campbell-Hausdorff combination of derivations, exact by the Dynkin
series or by the analytic kernel of ad(X) for a degree-preserving X, the
conjugation identity, and the Jordan structure of tensor products of Jordan
blocks.
"""

import math
from fractions import Fraction

import numpy as np

from lielog import (
    GradedDerivation,
    bch_series,
    conjugation_defect,
    exp_derivation,
    jordan_tensor_blocks,
)
from lielog.scalars import COMPLEX, EXACT, zeros_matrix
from lielog.spectral import phi1_matrix

# Exact BCH for two IA derivations: the Dynkin series terminates and the
# exponentials compose exactly over the rationals.
d2 = zeros_matrix(4, 2, EXACT)
d2[1, 0] = Fraction(1)
d2[2, 0] = Fraction(-1)
x = GradedDerivation(2, 4, {2: d2})
d3 = zeros_matrix(8, 2, EXACT)
d3[1, 1] = Fraction(2)
y = GradedDerivation(2, 4, {3: d3})
z = bch_series(x, y)
print("exp(BCH(X,Y)) == exp(X) o exp(Y):",
      exp_derivation(z.derivation) == exp_derivation(x).compose(exp_derivation(y)))

# With a degree-preserving X the series no longer terminates; BCH inverts the
# kernel z/(1 - e^{-z}) of ad(X) degree by degree instead.  For diagonal X it
# acts on each coordinate by its ad-eigenvalue lam.
a1, a2 = math.log(2), math.log(3)
xd = GradedDerivation(2, 3, {1: np.diag([a1, a2]).astype(complex)}, backend=COMPLEX)
y2 = np.zeros((4, 2), dtype=complex)
y2[1, 0] = 1.0  # word (1,2) in the image of x_1, ad-eigenvalue a1 + a2 - a1
yd = GradedDerivation(2, 3, {2: y2}, backend=COMPLEX)
kernel = bch_series(xd, yd)
lam = a2
print("kernel vs lam/(1 - e^-lam):", abs(kernel.derivation.block(2)[1, 0] - lam / (1 - math.exp(-lam))))
print("residual |exp(B) - exp(X) o exp(Y)|:", kernel.residual)

# The kernel z/(1 - e^{-z}) acts eigenvalue-wise on the ad-operator; its
# reciprocal (1 - e^{-z})/z is entire and evaluated singularity-free.
print("phi1(0) block:", phi1_matrix(np.zeros((2, 2))).round(12))

# Conjugation identity: matrix conjugation equals the finite bracket series.
# Two degree-2 blocks at depth 4 have a nonzero degree-3 bracket.
e2 = zeros_matrix(4, 2, EXACT)
e2[2, 1] = Fraction(1)
w = GradedDerivation(2, 4, {2: e2})
defect = conjugation_defect(x, w)
print("X - e^{-W} X e^{W} blocks:", sorted(defect.d), "(both routes agree exactly)")

# Jordan blocks of a Kronecker product J_lam(2) (x) J_mu(3).
blocks = jordan_tensor_blocks(2.0, 2, 5.0, 3)
print("J_2(2) (x) J_5(3) decomposes as:", blocks)
