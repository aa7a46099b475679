"""Shared random samplers for the test suite.

Exact-backend samples use small integer (Fraction) coefficients so that
identities can be asserted with equality rather than tolerance.
"""

import importlib
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

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
from lielog.spectral import (
    DEFAULT_TOL,
    ENUMERATION_BUDGET,
    RANK_TOL,
    SolvabilityVerdict,
    _as_complex,
    _clusters,
    jordan_block_sizes,
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


# ---------------------------------------------------------------------------
# Solvability oracle
# ---------------------------------------------------------------------------
# The solvability verdict as it was before its relation search became a
# lattice search: the same eigenvalue reading, then every integer vector of
# the box max|v_i| <= exponent_bound in shells of increasing max-norm.  The
# tests require the library's verdict to equal it wherever this scan stays
# inside ENUMERATION_BUDGET.


def verdict_by_box_scan(a, exponent_bound=8, tol=DEFAULT_TOL):
    """Decide whether the eigenvalue group of A meets the unit circle only at 1.

    The eigenvalue group is generated by the eigenvalues and their conjugates.
    The tests below trust an eigenvalue to strict = 100 tol max(1, max|A_ij|).
    A cluster of computed eigenvalues (see _clusters) that spreads wider than
    strict is read as its centre c only when c is certified as one eigenvalue
    of that multiplicity, the sizes from jordan_block_sizes(A, c) summing to
    the cluster size: that is how a defective eigenvalue scatters.  Otherwise
    its members are read as close distinct eigenvalues when all are real; a
    member off the real axis cannot be told from a small rotation, so the
    verdict is then at best 'inconclusive'.  A non-real eigenvalue lam gives the
    witness lam/conj(lam) immediately.  For all-real spectra the circle
    elements are products with vanishing total log-modulus (within tol); a
    bounded integer search looks for one with sign -1.  The verdict is
    three-valued: 'solvable' only when certified, 'inconclusive' when the
    bounded search cannot decide.
    """
    a = _as_complex(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    eigs = list(np.linalg.eigvals(a))
    if any(abs(z) < RANK_TOL * scale for z in eigs):
        raise DomainError("matrix is singular")
    strict = 100 * tol * scale
    points = []
    unresolved = False
    for members in _clusters(eigs):
        centre = sum(members) / len(members)
        # a non-real centre means a non-real eigenvalue, whatever the members
        if (max(abs(z - centre) for z in members) <= strict
                or abs(centre.imag) > strict
                or sum(jordan_block_sizes(a, centre)) == len(members)):
            points.append(centre)
        elif all(abs(z.imag) <= strict for z in members):
            points.extend(members)
        else:
            unresolved = True

    def solvable(detail):
        if unresolved:
            return SolvabilityVerdict(
                verdict="inconclusive",
                eigenvalues=eigs,
                detail="close eigenvalues off the real axis: a defective real "
                "eigenvalue or a small rotation",
            )
        return SolvabilityVerdict(verdict="solvable", eigenvalues=eigs, detail=detail)

    for z in points:
        if abs(z.imag) > strict:
            witness = z / z.conjugate()
            return SolvabilityVerdict(
                verdict="not_solvable",
                eigenvalues=eigs,
                witness=witness,
                exponents=None,
                detail=f"non-real eigenvalue {z}: lam/conj(lam) lies on the unit circle",
            )
    reals = [z.real for z in points]
    # the eigenvalue -1 is itself a witness
    for x in reals:
        if abs(x + 1.0) <= strict:
            return SolvabilityVerdict(
                verdict="not_solvable",
                eigenvalues=eigs,
                witness=complex(-1.0),
                exponents=None,
                detail=f"eigenvalue {x} lies on the unit circle and differs from 1",
            )
    # eigenvalues equal to 1 generate nothing, and the group depends only on
    # the set of eigenvalues
    distinct = []
    for x in reals:
        if abs(x - 1.0) > strict and all(abs(x - y) > strict for y in distinct):
            distinct.append(x)
    if all(x > 0 for x in distinct):
        return solvable("all eigenvalues real and positive: circle elements are all 1")
    logs = [math.log(abs(x)) for x in distinct]
    signs = [1 if x > 0 else -1 for x in distinct]
    r = len(distinct)
    found_any_relation = False
    count = 0
    # search shells of increasing max-norm so minimal witnesses are reported
    for shell in range(1, exponent_bound + 1):
        for vec in itertools.product(range(-shell, shell + 1), repeat=r):
            if max(abs(v) for v in vec) != shell:
                continue
            count += 1
            if count > ENUMERATION_BUDGET:
                return SolvabilityVerdict(
                    verdict="inconclusive",
                    eigenvalues=eigs,
                    detail="enumeration budget exhausted before the bound was covered",
                )
            total = sum(v * lg for v, lg in zip(vec, logs))
            if abs(total) <= tol:
                found_any_relation = True
                sign = 1
                for v, s in zip(vec, signs):
                    if s < 0 and v % 2 != 0:
                        sign = -sign
                if sign < 0:
                    witness = complex(-1.0)
                    return SolvabilityVerdict(
                        verdict="not_solvable",
                        eigenvalues=eigs,
                        witness=witness,
                        exponents=list(vec),
                        detail="integer relation with odd negative part: product is -1 on the circle",
                    )
    if not found_any_relation:
        return solvable(f"moduli multiplicatively independent at exponent bound {exponent_bound}")
    return SolvabilityVerdict(
        verdict="inconclusive",
        eigenvalues=eigs,
        detail="modulus relations exist; no sign obstruction found within the bound",
    )


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_perfbench(name):
    """Import a module of the benchmark harness by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
