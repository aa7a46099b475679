"""Filtered algebra automorphisms of the truncated tensor algebra.

An automorphism is stored in semidirect coordinates (A, u): an invertible
degree-1 matrix A together with linear maps u_m: H -> H^(x m) for
2 <= m < k.  It sends the generator with coordinate vector a to
A a + sum_m u_m(A a) and extends multiplicatively.  The GL part acts first:
as a linear map the automorphism is (extension of u) o (tensor lift of A).

Coordinates: degree-m words are indexed lexicographically, matching iterated
Kronecker products with the first letter most significant; u_m is an
n^m x n matrix whose column i holds the coordinates of u_m(x_{i+1}).

Composition, inversion and the GL action on Hom blocks apply partition sums
of Kronecker products one factor at a time (tensor_algebra.partition_sum);
only to_matrix, whose output is the matrix, forms Kronecker products.
"""

from __future__ import annotations

import numpy as np

from . import rational_linalg
from .free_lie import omega_tensor
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
    one,
    zeros_matrix,
)
from .tensor_algebra import (
    TruncatedTensor,
    basis_dimension,
    column_tensors,
    degree_columns,
    is_lie_block,
    is_primitive,
    mul,
    normed_log,
    partition_sum,
)


def matrix_inverse(a, backend):
    if backend == EXACT:
        return rational_linalg.inverse(a)
    return np.linalg.inv(a)


class GradedAut:
    """Filtered automorphism of T/T_k in semidirect (A, u) coordinates."""

    __slots__ = ("n", "k", "backend", "A", "u", "_images", "_word_images")

    def __init__(self, n, k, A, u=None, backend=None):
        self.n = n
        self.k = k
        self.backend = matrix_backend(A) if backend is None else backend
        A = matrix_to_backend(A, self.backend) if matrix_backend(A) != self.backend else A
        if A.shape != (n, n):
            raise DimensionMismatch(f"degree-1 part must be {n}x{n}")
        self.A = A
        blocks = {}
        for m, mat in (u or {}).items():
            m = int(m)
            if not 2 <= m < k:
                raise DomainError(f"u block degree {m} outside 2..{k - 1}")
            if mat.shape != (n**m, n):
                raise DimensionMismatch(f"u_{m} must be {n ** m}x{n}")
            if matrix_max_abs(mat) != 0:
                blocks[m] = matrix_to_backend(mat, self.backend)
        self.u = blocks
        self._images = None
        self._word_images = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n, k, backend=EXACT):
        return cls(n, k, eye_matrix(n, backend), {}, backend)

    @classmethod
    def splitting(cls, A, k, backend=None):
        """The GL splitting: u = 0, degree-j words transform by A^(x j)."""
        backend = matrix_backend(A) if backend is None else backend
        return cls(A.shape[0], k, A, {}, backend)

    @classmethod
    def from_generator_images(cls, images):
        """Reconstruct (A, u) from generator image tensors.

        The degree-1 parts must form an invertible matrix.
        """
        n, k = images[0].n, images[0].k
        if len(images) != n:
            raise DomainError(f"expected {n} generator images")
        if any(img.constant_term != 0 for img in images):
            raise DomainError("generator image has a nonzero constant term")
        return cls.from_generator_blocks({m: degree_columns(images, m) for m in range(1, k)}, k)

    @classmethod
    def from_generator_blocks(cls, blocks, k):
        """Reconstruct (A, u) from generator blocks G_m (see generator_blocks),
        m in 1..k-1: A = G_1, which must be invertible, and u_m = G_m A^-1."""
        A = blocks[1]
        a_inv = matrix_inverse(A, matrix_backend(A))
        return cls(A.shape[0], k, A, {m: g @ a_inv for m, g in blocks.items() if m != 1})

    # -- basic structure ----------------------------------------------------

    def u_block(self, m):
        blk = self.u.get(m)
        return zeros_matrix(self.n**m, self.n, self.backend) if blk is None else blk

    def _check_compatible(self, other):
        if (self.n, self.k) != (other.n, other.k):
            raise DimensionMismatch("GradedAut (n,k) mismatch")
        if self.backend != other.backend:
            raise DimensionMismatch("GradedAut backend mismatch")

    def generator_blocks(self):
        """G_1 = A and G_m = u_m A: column i of G_m is the degree-m part of the
        image of x_{i+1}."""
        blocks = {1: self.A}
        blocks.update((m, blk @ self.A) for m, blk in self.u.items())
        return blocks

    def generator_images(self):
        """Image tensors of the generators (cached)."""
        if self._images is None:
            self._images = column_tensors(
                self.generator_blocks(), self.n, self.k, self.backend
            )
        return self._images

    def _word_image(self, word):
        if self._word_images is None:
            self._word_images = {(): TruncatedTensor.unit(self.n, self.k, self.backend)}
        cached = self._word_images.get(word)
        if cached is None:
            prefix = self._word_image(word[:-1])
            cached = mul(prefix, self.generator_images()[word[-1] - 1])
            self._word_images[word] = cached
        return cached

    def apply(self, t):
        """Apply the automorphism to a tensor (multiplicative extension)."""
        if (t.n, t.k) != (self.n, self.k) or t.backend != self.backend:
            raise DimensionMismatch("tensor does not match the automorphism")
        out = TruncatedTensor.zero(self.n, self.k, self.backend)
        for w, c in t.coeffs.items():
            out = out + self._word_image(w).scale(c)
        return out

    def to_matrix(self):
        """Dense matrix of the action on the word basis (degree-graded order).

        With G_1 = A and G_i = u_i A, the degree-j -> degree-m block is the
        partition sum over compositions (i_1..i_j) of m of
        kron(G_{i_1}, ..., G_{i_j}), built here one leading part at a time:
        B_j[m] = sum_i kron(G_i, B_{j-1}[m - i]).
        """
        n, k = self.n, self.k
        gens = self.generator_blocks()
        dim = basis_dimension(n, k)
        mat = zeros_matrix(dim, dim, self.backend)
        mat[0, 0] = one(self.backend)
        blocks = dict(gens)  # degree-1 sources, keyed by target degree
        for j in range(1, k):
            col = basis_dimension(n, j)
            for m, blk in blocks.items():
                row = basis_dimension(n, m)
                mat[row : row + n**m, col : col + n**j] = blk
            longer = {}
            for i, g in gens.items():
                for m, blk in blocks.items():
                    if i + m < k:
                        term = np.kron(g, blk)
                        longer[i + m] = term if i + m not in longer else longer[i + m] + term
            blocks = longer
        return mat

    # -- group structure ----------------------------------------------------

    def compose(self, other):
        """self o other in closed form: w_m = u_m + sum_l sum over compositions
        (i_1..i_l) of m of kron(G_{i_1}, ..., G_{i_l}) v_l A^-1, with G the
        generator blocks of self and v the u blocks of other."""
        self._check_compatible(other)
        a_inv = matrix_inverse(self.A, self.backend)
        gens = self.generator_blocks() if other.u else None  # skipped for a splitting
        w = dict(self.u)
        for ell, v in other.u.items():
            for m, term in partition_sum(gens, v @ a_inv, ell, self.k - 1).items():
                w[m] = term if m not in w else w[m] + term
        return GradedAut(self.n, self.k, self.A @ other.A, w, self.backend)

    def inverse(self):
        """Group inverse, solved degree by degree: the degree-m block of
        self o inv depends on the inverse's blocks below m only through the
        partition sum (the defect), and on its block v_m only through
        A^(x m) v_m A^-1, which must therefore be -defect."""
        a_inv = matrix_inverse(self.A, self.backend)
        gens = self.generator_blocks()
        defects = dict(self.u)
        blocks = {}
        for m in range(2, self.k):
            defect = defects.get(m)
            if defect is None or matrix_max_abs(defect) == 0:
                continue
            # y = v_m A^-1 = (A^-1)^(x m) (-defect)
            y = partition_sum({1: a_inv}, -defect, m, m)[m]
            blocks[m] = y @ self.A
            for mm, term in partition_sum(gens, y, m, self.k - 1).items():
                if mm > m:
                    defects[mm] = term if mm not in defects else defects[mm] + term
        return GradedAut(self.n, self.k, a_inv, blocks, self.backend)

    def ia_decompose(self):
        """Split off the GL part: self = IA part o splitting(A)."""
        ia = self.compose(GradedAut.splitting(matrix_inverse(self.A, self.backend), self.k))
        return ia, self.A

    # -- predicates ----------------------------------------------------------

    def is_ia(self, tol=None):
        tol = default_tol(self.backend) if tol is None else tol
        return matrices_close(self.A, eye_matrix(self.n, self.backend), tol)

    def is_identity(self, tol=None):
        tol = default_tol(self.backend) if tol is None else tol
        if not self.is_ia(tol):
            return False
        return all(matrix_max_abs(b) <= tol for b in self.u.values())

    def is_hopf(self, tol=None):
        """True iff the coproduct is preserved, i.e. generator images primitive:
        every column of every generator block G_m is Lie."""
        tol = default_tol(self.backend) if tol is None else tol
        return all(
            is_lie_block(blk, self.n, m, tol)
            for m, blk in self.generator_blocks().items()
        )

    def preserves_omega(self, g, tol=None):
        """True iff the symplectic tensor is fixed.

        Membership in the omega-preserving group at level k-1 is certified by
        calling this on a lift at level k (one level above the claim).
        """
        if self.n != 2 * g:
            raise DomainError("preserves_omega requires n = 2g")
        w = omega_tensor(g, self.k, self.backend)
        return self.apply(w).close_to(w, tol)

    # -- conversions / comparison --------------------------------------------

    def to_complex(self):
        if self.backend == COMPLEX:
            return self
        return GradedAut(
            self.n,
            self.k,
            matrix_to_backend(self.A, COMPLEX),
            {m: matrix_to_backend(b, COMPLEX) for m, b in self.u.items()},
            COMPLEX,
        )

    def close_to(self, other, tol=None):
        self._check_compatible(other)
        tol = default_tol(self.backend) if tol is None else tol
        if not matrices_close(self.A, other.A, tol):
            return False
        for m in set(self.u) | set(other.u):
            if not matrices_close(self.u_block(m), other.u_block(m), tol):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, GradedAut):
            return NotImplemented
        if (self.n, self.k, self.backend) != (other.n, other.k, other.backend):
            return False
        return self.close_to(other, 0)

    def __hash__(self):
        return hash((self.n, self.k, self.backend))

    def __repr__(self):
        return (
            f"GradedAut(n={self.n}, k={self.k}, backend={self.backend}, "
            f"u blocks={sorted(self.u)})"
        )


def splitting(A, k, backend=None):
    return GradedAut.splitting(A, k, backend)


def gl_action_on_hom(A, f, j, backend=None):
    """(A f)(v) = A^(x j) f(A^-1 v) on Hom(H, H^(x j)) matrices."""
    backend = matrix_backend(A) if backend is None else backend
    return partition_sum({1: A}, f @ matrix_inverse(A, backend), j, j)[j]


def transporter(theta, theta_prime):
    """The unique Hopf automorphism U with U o theta = theta'.

    theta and theta_prime expose .images (generator image tensors), .n, .k;
    every image must be group-like, that is, its logarithm primitive.  U is
    an algebra map, so it sends log theta(x_i) to log theta'(x_i):
    U = Pi_theta' o Pi_theta^-1, where Pi_theta sends x_i to log theta(x_i).
    Uniqueness comes from the invertibility of the degree-1 parts.
    """
    first, first_p = theta.images[0], theta_prime.images[0]
    if (first_p.n, first_p.k) != (first.n, first.k):
        raise DimensionMismatch("expansions do not share (n, k)")
    pis = []
    for expansion in (theta, theta_prime):
        logs = [normed_log(img, None) for img in expansion.images]
        if not all(is_primitive(lg) for lg in logs):
            raise DomainError("transporter requires group-like expansions")
        pis.append(GradedAut.from_generator_images(logs))
    return pis[1].compose(pis[0].inverse())
