"""Derivations of the truncated tensor algebra and their exponentials.

A derivation is stored as blocks d_m: H -> H^(x m) for 1 <= m < k; the block
d_1 is the degree-preserving part (an n x n matrix, the base-matrix slot) and
the higher blocks raise degree.  Generator images determine the derivation;
the action on words is the Leibniz extension.

The bracket applies lift_j(d_l) = sum_pos I (x) d_l (x) I one tensor factor
at a time (tensor_algebra.lift_apply); only to_matrix, whose output is the
matrix, forms it as Kronecker products (tensor_lift).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from .automorphisms import GradedAut
from .free_lie import lie_to_tensor, omega_tensor
from .scalars import (
    COMPLEX,
    EXACT,
    DimensionMismatch,
    DomainError,
    default_tol,
    eye_matrix,
    matrices_close,
    matrix_backend,
    matrix_max_abs,
    matrix_to_backend,
    zeros_matrix,
)
from .tensor_algebra import (
    TruncatedTensor,
    basis_dimension,
    column_tensors,
    degree_columns,
    lift_apply,
    mul,
)


class GradedDerivation:
    """Derivation of T/T_k in per-degree blocks d_m: H -> H^(x m)."""

    __slots__ = ("n", "k", "backend", "d", "_images")

    def __init__(self, n, k, d=None, backend=EXACT):
        self.n = n
        self.k = k
        self.backend = backend
        blocks = {}
        for m, mat in (d or {}).items():
            m = int(m)
            if not 1 <= m < k:
                raise DomainError(f"derivation block degree {m} outside 1..{k - 1}")
            if mat.shape != (n**m, n):
                raise DimensionMismatch(f"d_{m} must be {n ** m}x{n}")
            if matrix_max_abs(mat) != 0:
                blocks[m] = matrix_to_backend(mat, backend)
        self.d = blocks
        self._images = None

    @classmethod
    def zero(cls, n, k, backend=EXACT):
        return cls(n, k, {}, backend)

    @property
    def d1(self):
        blk = self.d.get(1)
        return zeros_matrix(self.n, self.n, self.backend) if blk is None else blk

    def block(self, m):
        blk = self.d.get(m)
        return zeros_matrix(self.n**m, self.n, self.backend) if blk is None else blk

    def _check_compatible(self, other):
        if (self.n, self.k) != (other.n, other.k):
            raise DimensionMismatch("GradedDerivation (n,k) mismatch")
        if self.backend != other.backend:
            raise DimensionMismatch("GradedDerivation backend mismatch")

    def is_ia(self, tol=None):
        tol = default_tol(self.backend) if tol is None else tol
        return matrix_max_abs(self.d1) <= tol

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        blocks = {}
        for m in set(self.d) | set(other.d):
            blocks[m] = self.block(m) + other.block(m)
        return GradedDerivation(self.n, self.k, blocks, self.backend)

    def __neg__(self):
        return GradedDerivation(
            self.n, self.k, {m: -b for m, b in self.d.items()}, self.backend
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        if self.backend == EXACT and isinstance(scalar, float):
            scalar = Fraction(scalar)
        elif self.backend == COMPLEX and isinstance(scalar, Fraction):
            scalar = complex(scalar)  # keep complex blocks out of object dtype
        return GradedDerivation(
            self.n, self.k, {m: b * scalar for m, b in self.d.items()}, self.backend
        )

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def max_abs(self):
        return max((matrix_max_abs(b) for b in self.d.values()), default=0)

    def is_zero(self, tol=None):
        tol = default_tol(self.backend) if tol is None else tol
        return self.max_abs() <= tol

    def close_to(self, other, tol=None):
        self._check_compatible(other)
        tol = default_tol(self.backend) if tol is None else tol
        for m in set(self.d) | set(other.d):
            if not matrices_close(self.block(m), other.block(m), tol):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, GradedDerivation):
            return NotImplemented
        if (self.n, self.k, self.backend) != (other.n, other.k, other.backend):
            return False
        return self.close_to(other, 0)

    def __hash__(self):
        return hash((self.n, self.k, self.backend))

    def __repr__(self):
        return (
            f"GradedDerivation(n={self.n}, k={self.k}, backend={self.backend}, "
            f"blocks={sorted(self.d)})"
        )

    # -- action --------------------------------------------------------------

    def generator_images(self):
        if self._images is None:
            self._images = column_tensors(self.d, self.n, self.k, self.backend)
        return self._images

    def apply(self, t):
        """Leibniz extension: D(w) = sum over letter positions."""
        if (t.n, t.k) != (self.n, self.k) or t.backend != self.backend:
            raise DimensionMismatch("tensor does not match the derivation")
        images = self.generator_images()
        out = TruncatedTensor.zero(self.n, self.k, self.backend)
        for w, c in t.coeffs.items():
            for pos in range(len(w)):
                prefix = TruncatedTensor(
                    self.n, self.k, {w[:pos]: c}, self.backend
                )
                suffix = TruncatedTensor(
                    self.n, self.k, {w[pos + 1 :]: 1}, self.backend
                )
                out = out + mul(mul(prefix, images[w[pos] - 1]), suffix)
        return out

    def to_matrix(self):
        """Dense matrix of the Leibniz extension on the word basis.

        The degree-j -> degree-(j+l-1) block is
        sum_pos I^(x pos) (x) d_l (x) I^(x (j-1-pos)).
        """
        n, k = self.n, self.k
        dim = basis_dimension(n, k)
        mat = zeros_matrix(dim, dim, self.backend)
        for ell, blk in self.d.items():
            for j in range(1, k - ell + 1):
                m = j + ell - 1
                row, col = basis_dimension(n, m), basis_dimension(n, j)
                mat[row : row + n**m, col : col + n**j] = tensor_lift(blk, j)
        return mat

    def bracket(self, other):
        """Commutator of derivations, block by block:
        [D, E]_m = sum_{l+j-1=m} lift_j(d_l) e_j - lift_l(e_j) d_l."""
        self._check_compatible(other)
        blocks = {}
        for ell, d_blk in self.d.items():
            for j, e_blk in other.d.items():
                m = ell + j - 1
                if m >= self.k:
                    continue
                term = lift_apply(d_blk, e_blk, j) - lift_apply(e_blk, d_blk, ell)
                blocks[m] = term if m not in blocks else blocks[m] + term
        return GradedDerivation(self.n, self.k, blocks, self.backend)

    def to_complex(self):
        if self.backend == COMPLEX:
            return self
        return GradedDerivation(
            self.n,
            self.k,
            {m: matrix_to_backend(b, COMPLEX) for m, b in self.d.items()},
            COMPLEX,
        )


def tensor_lift(blk, j):
    """lift_j(blk) = sum_pos I^(x pos) (x) blk (x) I^(x (j-1-pos)): the action on
    H^(x j) of the derivation whose only block is blk (n^l x n)."""
    n, backend = blk.shape[1], matrix_backend(blk)
    eyes = [eye_matrix(n**p, backend) for p in range(j)]
    return sum(np.kron(np.kron(eyes[pos], blk), eyes[j - 1 - pos]) for pos in range(j))


def extend(images):
    """The unique derivation with the given generator images.

    Images must have zero constant term; Leibniz holds by construction.
    """
    n = len(images)
    k, backend = images[0].k, images[0].backend
    for img in images:
        if img.n != n or img.k != k or img.backend != backend:
            raise DimensionMismatch("generator images disagree on (n, k, backend)")
        if img.constant_term != 0:
            raise DomainError("derivation images must have zero constant term")
    blocks = {m: degree_columns(images, m) for m in range(1, k)}
    return GradedDerivation(n, k, blocks, backend)


def leibniz_defect(deriv, w1, w2):
    """D(w1 w2) - D(w1) w2 - w1 D(w2) for basis words (zero for a derivation)."""
    n, k, backend = deriv.n, deriv.k, deriv.backend
    t1 = TruncatedTensor(n, k, {tuple(w1): 1}, backend)
    t2 = TruncatedTensor(n, k, {tuple(w2): 1}, backend)
    return deriv.apply(mul(t1, t2)) - mul(deriv.apply(t1), t2) - mul(t1, deriv.apply(t2))


def exp_derivation(deriv):
    """Exponentiate a derivation to a filtered automorphism.

    Exact backend: the generator-image series sum D^j(x_i)/j! must terminate
    (nilpotent derivation; always the case when d_1 is nilpotent, in
    particular for IA derivations), and the result is exact.  Complex
    backend: the full endomorphism is exponentiated by scaling and squaring
    and the automorphism is read off the generator columns.
    """
    n, k, backend = deriv.n, deriv.k, deriv.backend
    if backend == EXACT:
        cap = basis_dimension(n, k) + 1
        images = []
        for i in range(n):
            term = TruncatedTensor.generator(n, k, i + 1, backend)
            total = term
            j = 0
            while not term.is_zero(0):
                j += 1
                if j > cap:
                    raise DomainError(
                        "derivation is not nilpotent; exponentiate on the complex backend"
                    )
                term = deriv.apply(term).scale(Fraction(1, j))
                total = total + term
            images.append(total)
        return GradedAut.from_generator_images(images)
    full = scipy.linalg.expm(np.asarray(deriv.to_matrix(), dtype=complex))
    # generator x_{i+1} is basis column 1 + i, right after the empty word
    blocks = {}
    for m in range(1, k):
        row = basis_dimension(n, m)
        blocks[m] = full[row : row + n**m, 1 : n + 1].copy()
    return GradedAut.from_generator_blocks(blocks, k)


def annihilates_omega(deriv, g, tol=None):
    """True iff the derivation kills the symplectic tensor."""
    if deriv.n != 2 * g:
        raise DomainError("annihilates_omega requires n = 2g")
    w = omega_tensor(g, deriv.k, deriv.backend)
    return deriv.apply(w).is_zero(tol)


def inner(z):
    """The inner derivation ad(z): x -> zx - xz for a Lie element z."""
    t = lie_to_tensor(z)
    n, k, backend = z.n, z.k, z.backend
    images = []
    for i in range(n):
        xi = TruncatedTensor.generator(n, k, i + 1, backend)
        images.append(mul(t, xi) - mul(xi, t))
    return extend(images)


def conjugation_defect(x, y, tol=None):
    """X - exp(-Y) X exp(Y) for derivations, computed along two routes.

    Route one conjugates the endomorphism matrices; route two sums the
    finite bracket series sum_{j>=1} (-1)^(j-1) ad_Y^j(X)/j!.  Y must be IA
    so that both are finite; the two evaluations are asserted equal and the
    common value returned.
    """
    x._check_compatible(y)
    if not y.is_ia(0 if y.backend == EXACT else None):
        raise DomainError("conjugation defect requires an IA second argument")
    n, k, backend = x.n, x.k, x.backend

    # matrix route
    ey = exp_derivation(y)
    ey_inv = exp_derivation(y.scale(-1))
    images = []
    for i in range(n):
        xi = TruncatedTensor.generator(n, k, i + 1, backend)
        conj = ey_inv.apply(x.apply(ey.apply(xi)))
        images.append(x.apply(xi) - conj)
    matrix_route = extend(images)

    # bracket series route: X - e^{-Y} X e^{Y} = -sum_{j>=1} [[..[X,Y]..],Y]/j!
    # (the iterated right bracket with j copies of Y equals (-1)^j ad_Y^j(X))
    series = GradedDerivation.zero(n, k, backend)
    term = x
    j = 0
    while True:
        j += 1
        term = term.bracket(y)
        if term.is_zero(0):
            break
        coeff = (
            Fraction(-1, math.factorial(j))
            if backend == EXACT
            else -1.0 / math.factorial(j)
        )
        series = series + term.scale(coeff)
        if j > k + 2:
            raise DomainError("bracket series failed to terminate")
    tol = default_tol(backend) if tol is None else tol
    if not matrix_route.close_to(series, tol):
        raise DomainError("conjugation identity failed: the two routes disagree")
    return matrix_route
