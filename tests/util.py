"""Shared random samplers for the test suite.

Exact-backend samples use small integer (Fraction) coefficients so that
identities can be asserted with equality rather than tolerance.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from lielog.automorphisms import GradedAut, matrix_inverse
from lielog.derivations import GradedDerivation, extend
from lielog.free_lie import LiePoly, lyndon_basis, lyndon_bracket_tensor
from lielog.scalars import (
    EXACT,
    DimensionMismatch,
    DomainError,
    eye_matrix,
    matrix_max_abs,
    zeros_matrix,
)
from lielog.tensor_algebra import (
    TruncatedTensor,
    degree_columns,
    is_grouplike,
    words_of_degree,
)


def random_tensor(rng, n, k, backend=EXACT, density=0.4, zero_constant=False,
                  lo=-3, hi=3):
    coeffs = {}
    for m in range(0 if not zero_constant else 1, k):
        for w in itertools.product(range(1, n + 1), repeat=m):
            if rng.random() < density:
                if backend == EXACT:
                    c = Fraction(rng.randint(lo, hi))
                else:
                    c = complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
                if c != 0:
                    coeffs[tuple(w)] = c
    return TruncatedTensor(n, k, coeffs, backend)


def random_lie_poly(rng, n, k, density=0.6, lo=-3, hi=3):
    coeffs = {}
    for m, words in lyndon_basis(n, k).items():
        for w in words:
            if rng.random() < density:
                c = Fraction(rng.randint(lo, hi))
                if c != 0:
                    coeffs[w] = c
    return LiePoly(n, k, coeffs)


def random_primitive_block(rng, n, k, m, terms=3, lo=-2, hi=2):
    """An n^m x n exact matrix whose columns are primitive degree-m tensors."""
    words = lyndon_basis(n, k)[m]
    index = {w: r for r, w in enumerate(words_of_degree(n, m))}
    mat = zeros_matrix(n**m, n, EXACT)
    nonzero = False
    for col in range(n):
        for _ in range(terms):
            if rng.random() < 0.7:
                w = rng.choice(words)
                c = Fraction(rng.randint(lo, hi))
                if c:
                    t = lyndon_bracket_tensor(w, n, k, EXACT).scale(c)
                    for ww, cc in t.coeffs.items():
                        mat[index[ww], col] += cc
                    nonzero = True
    return mat if nonzero else None


def random_block(rng, n, k, m, density=0.5, lo=-2, hi=2):
    """An arbitrary exact n^m x n block (not necessarily primitive columns)."""
    mat = zeros_matrix(n**m, n, EXACT)
    nonzero = False
    for r in range(n**m):
        for c in range(n):
            if rng.random() < density:
                v = Fraction(rng.randint(lo, hi))
                if v:
                    mat[r, c] = v
                    nonzero = True
    return mat if nonzero else None


def random_ia_hopf_aut(rng, n, k, terms=3):
    """IA automorphism with primitive u-columns (hence a Hopf automorphism)."""
    blocks = {}
    for m in range(2, k):
        mat = random_primitive_block(rng, n, k, m, terms=terms)
        if mat is not None:
            blocks[m] = mat
    return GradedAut(n, k, eye_matrix(n, EXACT), blocks)


def random_ia_aut(rng, n, k, density=0.5):
    """IA automorphism with arbitrary (generally non-Hopf) blocks."""
    blocks = {}
    for m in range(2, k):
        mat = random_block(rng, n, k, m, density=density)
        if mat is not None:
            blocks[m] = mat
    return GradedAut(n, k, eye_matrix(n, EXACT), blocks)


def random_ia_derivation(rng, n, k, density=0.5, hopf=False):
    blocks = {}
    for m in range(2, k):
        mat = (
            random_primitive_block(rng, n, k, m)
            if hopf
            else random_block(rng, n, k, m, density=density)
        )
        if mat is not None:
            blocks[m] = mat
    return GradedDerivation(n, k, blocks)


def random_invertible_exact(rng, n, lo=-3, hi=3):
    """Random exact invertible n x n matrix (unimodular-ish by retries)."""
    while True:
        mat = zeros_matrix(n, n, EXACT)
        for i in range(n):
            for j in range(n):
                mat[i, j] = Fraction(rng.randint(lo, hi))
        arr = np.array([[float(x) for x in row] for row in mat])
        if abs(np.linalg.det(arr)) > 0.5:
            return mat


def kron_power(a, j, backend):
    """a^(x j) as an explicit Kronecker product (the 1 x 1 identity for j = 0):
    the reference the block engine's mode products are checked against."""
    if j == 0:
        return eye_matrix(1, backend)
    out = a
    for _ in range(j - 1):
        out = np.kron(out, a)
    return out


def word_basis(n, k):
    """All words of length < k, ordered by (degree, lexicographic)."""
    return [w for m in range(k) for w in words_of_degree(n, m)]


def word_index_map(n, k):
    return {w: i for i, w in enumerate(word_basis(n, k))}


def coproduct(a):
    """Coproduct of a tensor as a sparse {(left word, right word): coefficient}
    map.  Every generator is primitive, so a word maps to the sum over sets S
    of its letter positions of (subword on S) (x) (subword on the complement)."""
    out = {}
    for word, c in a.coeffs.items():
        m = len(word)
        for r in range(m + 1):
            for positions in itertools.combinations(range(m), r):
                left = tuple(word[i] for i in positions)
                right = tuple(word[i] for i in range(m) if i not in positions)
                out[(left, right)] = out.get((left, right), 0) + c
    return {key: c for key, c in out.items() if c != 0}


def outer(a, b):
    """a (x) b, truncated by total degree < k (the quotient the coproduct of a
    truncated tensor lands in)."""
    return {
        (wa, wb): ca * cb
        for wa, ca in a.coeffs.items()
        for wb, cb in b.coeffs.items()
        if len(wa) + len(wb) < a.k
    }


def dict_sub(x, y):
    """x - y for sparse coefficient maps, zeros dropped."""
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0) - c
    return {key: c for key, c in out.items() if c != 0}


def oracle_is_primitive(a, tol=0):
    """coproduct(a) = 1 (x) a + a (x) 1 within tol, by splitting every word."""
    unit = TruncatedTensor.unit(a.n, a.k, a.backend)
    defect = dict_sub(dict_sub(coproduct(a), outer(unit, a)), outer(a, unit))
    return all(abs(c) <= tol for c in defect.values())


def oracle_is_grouplike(u, tol=0):
    """coproduct(u) = u (x) u within tol, by splitting every word."""
    return all(abs(c) <= tol for c in dict_sub(coproduct(u), outer(u, u)).values())


def word_by_word_matrix(op):
    """Dense matrix of op.apply on the word basis, one basis word at a time.

    The sparse-dictionary reference for the block-built to_matrix of a
    GradedAut or GradedDerivation.
    """
    n, k, backend = op.n, op.k, op.backend
    index = word_index_map(n, k)
    mat = zeros_matrix(len(index), len(index), backend)
    for w, col in index.items():
        img = op.apply(TruncatedTensor(n, k, {w: 1}, backend))
        for ww, c in img.coeffs.items():
            mat[index[ww], col] = c
    return mat


def bracket_by_images(d, e):
    """[D, E] from the generator images D(E(x_i)) - E(D(x_i)) (sparse reference)."""
    images = []
    for i in range(d.n):
        xi = TruncatedTensor.generator(d.n, d.k, i + 1, d.backend)
        images.append(d.apply(e.apply(xi)) - e.apply(d.apply(xi)))
    return extend(images)


def transporter_by_degrees(theta, theta_prime):
    """U with U o theta = theta', solved degree by degree on the word path.

    The reference for the closed-form transporter: start from the degree-1
    part and, at each degree m, correct u_m by the degree-m defect of
    theta' - U(theta) on the generators.
    """
    images = list(theta.images)
    images_p = list(theta_prime.images)
    n, k, backend = images[0].n, images[0].k, images[0].backend
    if (images_p[0].n, images_p[0].k) != (n, k):
        raise DimensionMismatch("expansions do not share (n, k)")
    for img in images + images_p:
        if not is_grouplike(img):
            raise DomainError("transporter requires group-like expansions")
    m1 = degree_columns(images_p, 1)
    b = m1 @ matrix_inverse(degree_columns(images, 1), backend)
    m1_inv = matrix_inverse(m1, backend)
    current = GradedAut(n, k, b, {}, backend)
    for m in range(2, k):
        defects = [p - current.apply(t) for p, t in zip(images_p, images)]
        delta = degree_columns(defects, m)
        if matrix_max_abs(delta) == 0:
            continue
        blocks = dict(current.u)
        blocks[m] = delta @ m1_inv
        current = GradedAut(n, k, b, blocks, backend)
    return current


def inverse_by_compose(phi):
    """Group inverse solved degree by degree, each defect read off a full
    composition phi o inv (the reference for GradedAut.inverse)."""
    n, k, backend = phi.n, phi.k, phi.backend
    a_inv = matrix_inverse(phi.A, backend)
    inv = GradedAut(n, k, a_inv, {}, backend)
    for m in range(2, k):
        defect = phi.compose(inv).u_block(m)
        if matrix_max_abs(defect) == 0:
            continue
        # the only term of the partition sum containing v_m is A^(x m) v_m A^-1
        blocks = dict(inv.u)
        blocks[m] = kron_power(a_inv, m, backend) @ (-defect) @ phi.A
        inv = GradedAut(n, k, a_inv, blocks, backend)
    return inv


def seeded(seed=0):
    return random.Random(seed)
