"""Independent output oracle.

Nothing here calls lielog.  Word-basis matrices are built from the (A, u)
blocks of an automorphism and the d_m blocks of a derivation by Kronecker
products, exp(D) is taken with scipy (float) or the finite nilpotent series
(exact), and the two are compared on the generator columns.  ``classify``
then sets the outcome of one operation against the truth label that the input
generator attached to it.

Word order: degree by degree, lexicographic inside a degree, first letter most
significant, so that degree-m coordinates are those of an m-fold Kronecker
product.  Column i of u_m holds u_m(x_{i+1}).
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import bench_env  # noqa: F401  (pins BLAS threads before numpy loads)
import numpy as np
import scipy.linalg

# Bound at import, before a traced run patches these attributes, so the oracle
# and the input generators never run a wrapped function or show up in a span.
expm = scipy.linalg.expm
_eigvals = np.linalg.eigvals

FLOAT_TOL = 1e-9
TWO_PI = 2.0 * math.pi


def offsets(n, k):
    """Start index of each degree 0..k in the word basis (the last is its size)."""
    out = [0]
    for m in range(k):
        out.append(out[-1] + n**m)
    return out


def _compositions(m, parts):
    if parts == 1:
        yield (m,)
        return
    for first in range(1, m - parts + 2):
        for rest in _compositions(m - first, parts - 1):
            yield (first,) + rest


def _kron(mats):
    return functools.reduce(np.kron, mats)


def _eye(size, exact):
    return np.identity(size, dtype=object if exact else complex)


def _aut_blocks(n, k, g):
    """(j, m, block) for the nonzero degree-j to degree-m blocks of an automorphism.

    The block is the sum over compositions (i_1..i_j) of m of
    kron(G_{i_1}, ..., G_{i_j}), where g maps i to G_i (G_1 = A, G_i = u_i A).
    """
    for j in range(1, k):
        for m in range(j, k):
            terms = [
                _kron([g[i] for i in comp])
                for comp in _compositions(m, j)
                if all(i in g for i in comp)
            ]
            if terms:
                yield j, m, sum(terms[1:], terms[0])


def aut_matrix(n, k, A, u):
    """Word-basis matrix of the automorphism with degree-1 part A and blocks u (float)."""
    off = offsets(n, k)
    mat = np.zeros((off[k], off[k]), dtype=complex)
    mat[0, 0] = 1
    g = {1: A}
    g.update({m: blk @ A for m, blk in u.items()})
    for j, m, blk in _aut_blocks(n, k, g):
        mat[off[m] : off[m + 1], off[j] : off[j + 1]] = blk
    return mat


def aut_apply_exact(n, k, A, u, vecs):
    """M @ vecs over the rationals, M the word-basis matrix of (A, u).

    The blocks are built from G_i scaled to integers by a common denominator c,
    which scales the degree-j columns of M by c^j; the rows of vecs are scaled
    to match so that the product is one integer matrix product.
    """
    off, top = offsets(n, k), k - 1
    g = {1: A}
    g.update({m: blk @ A for m, blk in u.items()})
    scaled = {i: _integer_scaled(blk) for i, blk in g.items()}
    c = math.lcm(*(d for _, d in scaled.values()))
    g_int = {i: ints * (c // d) for i, (ints, d) in scaled.items()}
    v_int, v_den = _integer_scaled(vecs)
    for j in range(k):
        v_int[off[j] : off[j + 1]] *= c ** (top - j)
    out = np.zeros(vecs.shape, dtype=object)
    out[0] = v_int[0]
    for j, m, blk in _aut_blocks(n, k, g_int):
        out[off[m] : off[m + 1]] += blk @ v_int[off[j] : off[j + 1]]
    return out * Fraction(1, c**top * v_den)


def generator_basis(n, k):
    """The generator columns x_1..x_n of the word basis, as an exact matrix."""
    cols = np.zeros((offsets(n, k)[k], n), dtype=object)
    cols[1 : n + 1, :] = np.identity(n, dtype=object)
    return cols


def derivation_matrix(n, k, d, exact):
    """Word-basis matrix of the derivation with blocks d (Leibniz extension).

    The degree-j to degree-(j+m-1) block is the sum over letter positions p of
    kron(I_{n^p}, d_m, I_{n^(j-1-p)}).
    """
    off = offsets(n, k)
    mat = np.zeros((off[k], off[k]), dtype=object if exact else complex)
    for m, blk in d.items():
        for j in range(1, k - m + 1):
            out = j + m - 1
            total = sum(
                _kron([_eye(n**p, exact), blk, _eye(n ** (j - 1 - p), exact)])
                for p in range(j)
            )
            mat[off[out] : off[out + 1], off[j] : off[j + 1]] += total
    return mat


def _integer_scaled(mat):
    """(integer object matrix M, d) with mat = M / d, for a matrix of rationals.

    Products of integer matrices are much faster than products of Fractions.
    """
    fracs = [Fraction(x) for x in mat.flat]
    denom = math.lcm(*(f.denominator for f in fracs))
    ints = np.array([f.numerator * (denom // f.denominator) for f in fracs], dtype=object)
    return ints.reshape(mat.shape), denom


def exp_generator_columns(dmat, n, exact):
    """Generator columns of exp(D): scipy's expm, or the terminating series."""
    if not exact:
        return expm(dmat)[:, 1 : n + 1]
    scaled, denom = _integer_scaled(dmat)
    term = np.zeros((dmat.shape[0], n), dtype=object)
    term[1 : n + 1, :] = np.identity(n, dtype=object)
    total = term * Fraction(1)
    for j in range(1, dmat.shape[0] + 1):
        term = scaled @ term  # denom^j j! times D^j / j! on the generators
        if not any(x != 0 for x in term.flat):
            return total
        total = total + term * Fraction(1, denom**j * math.factorial(j))
    raise ValueError("derivation is not nilpotent on the exact backend")


def log_residual(n, k, A, u, d, exact):
    """max |exp(D) - Phi| on the generator columns (0.0 means exactly equal)."""
    if exact:
        phi_cols = aut_apply_exact(n, k, A, u, generator_basis(n, k))
    else:
        phi_cols = aut_matrix(n, k, A, u)[:, 1 : n + 1]
    exp_cols = exp_generator_columns(derivation_matrix(n, k, d, exact), n, exact)
    diff = exp_cols - phi_cols
    return float(max(abs(x) for x in diff.flat))


def log_passes(residual, exact):
    return residual == 0.0 if exact else residual <= FLOAT_TOL


# -- Johnson map -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _left_mult_exp(n, k, letter):
    """(k-1)! * exp(+-L) on the word basis, L prepending generator |letter|.

    exp(+-L) sends a degree-m word w to sum_j (+-1)^j / j! a^j w, so after the
    (k-1)! scaling every entry is an integer.  Callers must not modify it.
    """
    off = offsets(n, k)
    scale = math.factorial(k - 1)
    a = abs(letter) - 1
    sign = 1 if letter > 0 else -1
    out = np.zeros((off[k], off[k]), dtype=object)
    for m in range(k):
        for r in range(n**m):
            row = r
            for j in range(k - m):
                out[off[m + j] + row, off[m] + r] = sign**j * (scale // math.factorial(j))
                row += a * n ** (m + j)
    return out


def theta_exp_image(n, k, word):
    """theta(word) for theta(x_i) = exp(X_i), as an exact word-basis vector."""
    vec = np.zeros(offsets(n, k)[k], dtype=object)
    vec[0] = 1
    for letter in reversed(word):
        vec = _left_mult_exp(n, k, letter) @ vec
    return vec * Fraction(1, math.factorial(k - 1) ** len(word))


def johnson_residual(n, k, images, A, u):
    """max |T(theta(x_i)) - theta(phi(x_i))| for the standard expansion theta."""
    thetas = np.stack([theta_exp_image(n, k, [i + 1]) for i in range(n)], axis=1)
    lhs = aut_apply_exact(n, k, A, u, thetas)
    rhs = np.stack([theta_exp_image(n, k, images[i]) for i in range(n)], axis=1)
    return float(max(abs(x) for x in (lhs - rhs).flat))


# -- kernel margin -----------------------------------------------------------------


def _distance_to_poles(z):
    """Distance from z to 2 pi i Z without 0."""
    nearest = round(z.imag / TWO_PI)
    candidates = [c for c in (nearest - 1, nearest, nearest + 1) if c != 0]
    return min(abs(z - 1j * TWO_PI * c) for c in candidates)


def kernel_margin(log_eigs, k):
    """Smallest distance of an ad-eigenvalue sum from 2 pi i Z without 0.

    The sums are mu_{i_1} + ... + mu_{i_m} - mu_j for 2 <= m < k, with mu the
    eigenvalues of the principal logarithm of the degree-1 part.
    """
    idx = range(len(log_eigs))
    best = math.inf
    for m in range(2, k):
        for combo in itertools.combinations_with_replacement(idx, m):
            head = sum(log_eigs[i] for i in combo)
            for j in idx:
                best = min(best, _distance_to_poles(head - log_eigs[j]))
    return best


def principal_log_eigs(eigs):
    """log|z| + i arg z with arg in (-pi, pi]; roundoff-sized imaginary parts are
    dropped first so that a negative real eigenvalue always gets +pi."""
    out = []
    for z in eigs:
        z = complex(z)
        if abs(z.imag) <= 1e-9 * abs(z):
            z = complex(z.real, 0.0)
        out.append(complex(math.log(abs(z)), math.atan2(z.imag, z.real)))
    return out


def input_kernel_margin(A, k):
    """kernel_margin computed from the eigenvalues of a degree-1 matrix."""
    eigs = _eigvals(np.asarray(A, dtype=complex))
    return kernel_margin(principal_log_eigs(eigs), k)


# -- verdicts ------------------------------------------------------------------------

SOLVABLE, NOT_SOLVABLE, EITHER = "solvable", "not_solvable", "either"


@dataclass
class Outcome:
    """What the program returned for one operation, in oracle terms.

    status is "log" (a derivation came back), "rejected" (a typed rejection),
    "wrong" (an intermediate result reported as verified fails the oracle) or
    "crash" (anything else).  claimed_ok records whether the program itself
    reported the log as verified; residual is the oracle's, for logs.
    """

    status: str
    claimed_ok: bool = False
    residual: float | None = None
    passes: bool = False
    error: str = ""


@dataclass
class Check:
    kind: str
    ok: bool
    silent_wrong: bool


def classify(truth, outcome):
    """Set one outcome against the truth label.

    ok: the outcome is one the label allows and any log passes the oracle.
    silent_wrong: the program presented a wrong result as right, i.e. a log
    that it reported verified but the oracle rejects, or a log for an input
    whose label is not_solvable.  Typed rejections of solvable inputs and
    logs the program itself flagged as unverified are failures, not silent.
    """
    if outcome.status == "crash":
        return Check(f"crash:{outcome.error}", ok=False, silent_wrong=False)
    if outcome.status == "wrong":
        return Check(f"wrong:{outcome.error}", ok=False, silent_wrong=True)
    if outcome.status == "rejected":
        kind = f"rejected:{outcome.error}"
        if truth == EITHER:
            return Check(kind, ok=True, silent_wrong=False)
        ok = truth == NOT_SOLVABLE and outcome.error == "SolvabilityError/not_solvable"
        return Check(kind, ok=ok, silent_wrong=False)
    if truth == NOT_SOLVABLE:
        return Check("log_for_not_solvable", ok=False, silent_wrong=True)
    if outcome.passes:
        return Check("log", ok=True, silent_wrong=False)
    if outcome.claimed_ok:
        return Check("log_fails_oracle", ok=False, silent_wrong=True)
    return Check("log_unverified", ok=False, silent_wrong=False)
