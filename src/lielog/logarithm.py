"""Logarithms of filtered automorphisms.

Two routes are provided.  The Maclaurin logarithm handles exact unipotent
inputs (rational backend, degree-1 part with all eigenvalues 1) as the finite
sum -sum (id - Phi)^i / i.  The extended logarithm, the only complex one,
handles any automorphism whose degree-1 part passes the
exponential-solvability check: it fixes the degree-1 block to the principal
matrix logarithm and solves for the higher blocks degree by degree, inverting
the analytic kernel (1 - e^{-z})/z of the exponential's directional
derivative on each block.

BCH, log(exp X o exp Y) for an IA Y, takes the same degree loop with the
degree-1 block X_1 given when X is not IA.  When X is IA too, the Dynkin
series terminates and its exact sum is the logarithm.

The kernel phi1(ad X) on Hom(H, H^(x m)) is solved in the eigenbasis of the
degree-1 block X = V diag(lam) V^-1, where ad X is diagonal with entries
lam_{i_1} + ... + lam_{i_m} - lam_j (Higham, Functions of Matrices, on
Kronecker sums): m + 1 mode transforms by V or V^-1 and one entrywise
division, with the pole margin read off the same sums.  The transforms
amplify roundoff by about cond(V)^(m+1), so that path is taken only while
cond(V)^(m+1) eps < EIGENBASIS_TOL.  A defective or ill-conditioned X (a
Jordan block, a parabolic word) falls back to the dense n^(m+1)-square
ad-operator: its eigvals for the margin, phi1_matrix (Van Loan's augmented
exponential) and a linear solve.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .derivations import (
    GradedDerivation,
    annihilates_omega,
    exp_derivation,
    extend,
    tensor_lift,
)
from .scalars import (
    COMPLEX,
    EXACT,
    DomainError,
    KernelSingular,
    eye_matrix,
)
from .spectral import (
    DEFAULT_TOL,
    POLE_TOL,
    SolvabilityVerdict,
    eig_unit_circle_obstruction,
    phi1_matrix,
    pole_margin,
    principal_log,
)
from .tensor_algebra import (
    TruncatedTensor,
    basis_dimension,
    is_lie_block,
    partition_sum,
    words_of_degree,
)

# The kernel solve runs in the eigenbasis of X while cond(V)^(m+1) eps, the
# roundoff its m + 1 mode transforms can amplify, stays below this.
EIGENBASIS_TOL = 1e-10


class SolvabilityError(DomainError):
    """The degree-1 part failed the exponential-solvability check."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(
            f"degree-1 part is {verdict.verdict}: {verdict.detail}"
            + (f" (witness {verdict.witness})" if verdict.witness is not None else "")
        )


@dataclass
class LogReport:
    """Result envelope of the extended logarithm.

    The residual is recomputed from scratch when the report is assembled; the
    hopf/omega flags are None unless the corresponding predicate held for the
    input, in which case they record whether the conclusion held for the
    output derivation.  The report is verified when the residual is at most
    tol, the tolerance the solver was given.
    """

    input_digest: str
    verdict: SolvabilityVerdict
    derivation: GradedDerivation
    residual: float
    tol: float
    hopf_preserved: bool | None = None
    omega_annihilated: bool | None = None
    forced: bool = False
    trace: list = field(default_factory=list)

    @property
    def verified(self):
        return self.residual is not None and self.residual <= self.tol


def _digest_aut(phi):
    payload = {
        "n": phi.n,
        "k": phi.k,
        "backend": phi.backend,
        "A": [[repr(x) for x in row] for row in phi.A],
        "u": {
            str(m): [[repr(x) for x in row] for row in blk]
            for m, blk in sorted(phi.u.items())
        },
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _is_unipotent(phi):
    """Exact test that every eigenvalue of the degree-1 part is 1."""
    nilp = phi.A - eye_matrix(phi.n, EXACT)
    power = nilp
    for _ in range(phi.n):
        if all(x == 0 for x in power.flat):
            return True
        power = power @ nilp
    return all(x == 0 for x in power.flat)


def log_unipotent(phi):
    """Maclaurin logarithm -sum_i (id - Phi)^i / i of a unipotent automorphism.

    Exact-only: the input must be on the rational backend, where the series
    terminates because (id - Phi) is nilpotent on the truncated algebra.
    Raises DomainError for complex or non-unipotent inputs; ln_aut is the
    logarithm for those.
    """
    if phi.backend != EXACT:
        raise DomainError(
            "log_unipotent needs an exact (rational) input; use ln_aut for "
            "complex inputs."
        )
    if not _is_unipotent(phi):
        raise DomainError(
            "degree-1 part is not unipotent; the Maclaurin series does not "
            "converge. Use ln_aut for exponential-solvable inputs."
        )
    n, k = phi.n, phi.k
    deriv = extend([_maclaurin(phi, TruncatedTensor.generator(n, k, i + 1, EXACT)) for i in range(n)])
    _verify_derivation_property(deriv, phi)
    return deriv


def _maclaurin(phi, v):
    """-sum_i (id - Phi)^i v / i for an exact unipotent Phi, a finite sum."""
    n, k = phi.n, phi.k
    total = TruncatedTensor.zero(n, k, EXACT)
    for step in range(1, basis_dimension(n, k) + 2):
        v = v - phi.apply(v)  # (id - Phi)^step applied to the input
        if v.is_zero(0):
            break
        total = total + v.scale(Fraction(-1, step))
    else:
        raise DomainError("Maclaurin series failed to terminate")
    return total


def _verify_derivation_property(deriv, phi):
    """Spot-check that the Maclaurin sum acts as the Leibniz extension.

    Compares the extension of the generator images with the direct series on
    a sample of degree-2 basis words.
    """
    n, k = phi.n, phi.k
    if k < 3:
        return
    for w in words_of_degree(n, 2)[: min(4, n * n)]:
        word = TruncatedTensor(n, k, {w: 1}, EXACT)
        if not deriv.apply(word).close_to(_maclaurin(phi, word), 0):
            raise DomainError(
                "Maclaurin sum is not a derivation on the sampled words"
            )


def _degree_rows(n, m):
    offset = basis_dimension(n, m)
    return offset, offset + n**m


def _ad_operator(d1, m):
    """ad of the d1-lift on Hom(H, H^(x m)), acting on column-stacked matrices."""
    n = d1.shape[0]
    d1c = np.asarray(d1, dtype=complex)
    lift = tensor_lift(d1c, m)
    return np.kron(np.eye(n), lift) - np.kron(d1c.T, np.eye(n**m))


def _eigenvalue_sums(lam, m):
    """lam_{i_1} + ... + lam_{i_m} - lam_j as an n^m x n array, rows in word
    order: the spectrum of ad X on Hom(H, H^(x m)) when X has eigenvalues lam."""
    sums = np.zeros(1, dtype=complex)
    for _ in range(m):
        sums = (sums[:, None] + lam[None, :]).ravel()
    return sums[:, None] - lam[None, :]


def _phi1_values(z):
    """(1 - e^{-z})/z entrywise, with the value 1 at z = 0."""
    out = np.ones_like(z)
    nonzero = z != 0
    out[nonzero] = -np.expm1(-z[nonzero]) / z[nonzero]
    return out


def _solve_kernel(x_block, m, rhs, pole_tol):
    """Solve phi1(ad X) Z = rhs for Z in Hom(H, H^(x m)), an n^m x n block.

    With X = V diag(lam) V^-1, W = (V^-1)^(x m) Z V turns ad X into the
    entrywise product with the eigenvalue sums lam_I - lam_j.  The path rule
    (eigenbasis or dense ad-operator) is in the module docstring.

    Returns Z and a trace dict: the path taken, cond(V) (None when V is
    singular) and the kernel margin, the distance of the nearest
    ad-eigenvalue to a pole 2 pi i j (j != 0) of the inverse kernel.  Raises
    KernelSingular when the margin is below pole_tol.
    """
    n = x_block.shape[0]
    lam, v = np.linalg.eig(x_block)
    sv = np.linalg.svd(v, compute_uv=False)
    cond_v = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    if cond_v < (EIGENBASIS_TOL / np.finfo(float).eps) ** (1.0 / (m + 1)):
        path = "eigenbasis"
        ad_eigs = _eigenvalue_sums(lam, m)
    else:
        path = "dense"
        ad_op = _ad_operator(x_block, m)
        ad_eigs = np.linalg.eigvals(ad_op)
    margin = pole_margin(ad_eigs)
    if margin < pole_tol:
        raise KernelSingular(
            f"ad-operator eigenvalue within {pole_tol} of 2 pi i m at degree {m}"
        )
    if path == "eigenbasis":
        v_inv = np.linalg.inv(v)
        w = partition_sum({1: v_inv}, rhs, m, m)[m] @ v / _phi1_values(ad_eigs)
        z_block = partition_sum({1: v}, w, m, m)[m] @ v_inv
    else:
        z_vec = np.linalg.solve(phi1_matrix(ad_op), rhs.flatten(order="F"))
        z_block = z_vec.reshape((n**m, n), order="F")
    info = {
        "path": path,
        "cond_v": float(cond_v) if math.isfinite(cond_v) else None,
        "kernel_margin": margin,
    }
    return z_block, info


def ln_aut(phi, tol=DEFAULT_TOL, pole_tol=POLE_TOL, force=False):
    """The extended logarithm: the unique derivation D with exp(D) = Phi and
    degree-1 block the principal logarithm of Phi's degree-1 part.

    Runs on the complex backend (exact inputs are converted).  The input is
    rejected when the solvability check returns not_solvable, and when it
    returns inconclusive unless force=True; a forced run is recorded in the
    report.  Raises KernelSingular when an eigenvalue of the block ad-operator
    falls within pole_tol of 2 pi i m (m != 0), and DomainError unless tol is
    finite and >= 0 and pole_tol finite and > 0.
    """
    original = phi
    phi = phi.to_complex()
    n, k = phi.n, phi.k
    a = np.asarray(phi.A, dtype=complex)
    verdict = eig_unit_circle_obstruction(a)
    if verdict.verdict == "not_solvable":
        raise SolvabilityError(verdict)
    if verdict.verdict == "inconclusive" and not force:
        raise SolvabilityError(verdict)

    derivation, residual, trace = _solve_log(phi, principal_log(a), tol, pole_tol)

    hopf_flag = None
    if original.is_hopf(tol):
        hopf_flag = all(is_lie_block(blk, n, m, tol) for m, blk in derivation.d.items())
    omega_flag = None
    if n % 2 == 0 and k >= 3:
        g = n // 2
        if original.preserves_omega(g, tol):
            omega_flag = annihilates_omega(derivation, g, tol)

    return LogReport(
        input_digest=_digest_aut(original),
        verdict=verdict,
        derivation=derivation,
        residual=residual,
        tol=tol,
        hopf_preserved=hopf_flag,
        omega_annihilated=omega_flag,
        forced=force and verdict.verdict == "inconclusive",
        trace=trace,
    )


def _solve_log(phi, x_block, tol, pole_tol):
    """The derivation D with exp(D) = Phi and degree-1 block x_block, a
    logarithm of Phi's degree-1 part, for a complex automorphism Phi.

    Solves for the higher blocks degree by degree with _solve_kernel and
    recomputes the residual max|exp(D) - Phi| from scratch.  Returns D, the
    residual and the per-degree trace.  tol is only checked here: finite and
    >= 0, as pole_tol must be finite and > 0.
    """
    if not (math.isfinite(tol) and tol >= 0 and math.isfinite(pole_tol) and pole_tol > 0):
        raise DomainError(
            f"tolerances must be finite with tol >= 0 and pole_tol > 0; got "
            f"tol={tol}, pole_tol={pole_tol}"
        )
    n, k = phi.n, phi.k
    blocks = {1: x_block}
    phi_mat = np.asarray(phi.to_matrix(), dtype=complex)
    trace = []
    for m in range(2, k):
        current = GradedDerivation(n, k, dict(blocks), COMPLEX)
        exp_mat = scipy.linalg.expm(np.asarray(current.to_matrix(), dtype=complex))
        residual_mat = np.linalg.solve(exp_mat, phi_mat)
        lo, hi = _degree_rows(n, m)
        r_block = residual_mat[lo:hi, 1 : n + 1]
        z_block, info = _solve_kernel(x_block, m, r_block, pole_tol)
        if np.max(np.abs(z_block)) > 0:
            blocks[m] = z_block
        trace.append(
            {"degree": m, "residual_block": float(np.max(np.abs(r_block))), **info}
        )

    derivation = GradedDerivation(n, k, blocks, COMPLEX)
    exp_final = np.asarray(exp_derivation(derivation).to_matrix(), dtype=complex)
    residual = float(np.max(np.abs(exp_final - phi_mat)))
    return derivation, residual, trace


# ---------------------------------------------------------------------------
# BCH utilities
# ---------------------------------------------------------------------------


@dataclass
class BchResult:
    """log(exp(X) o exp(Y)).  The residual max|exp(B) - exp(X) o exp(Y)| is
    recomputed on the kernel route and None on the terminating series."""

    derivation: GradedDerivation
    residual: float | None


def _dynkin_words(order, max_y):
    """Words over {x, y} of length <= order with at most max_y letters y,
    skipping words whose right-nested bracket vanishes trivially (repeated
    last letter)."""
    stack = ["x"] + (["y"] if max_y > 0 else [])
    while stack:
        word = stack.pop()
        if len(word) < 2 or word[-1] != word[-2]:
            yield word
        if len(word) < order:
            for letter in ("x", "y"):
                nxt = word + letter
                if nxt.count("y") <= max_y:
                    stack.append(nxt)


@functools.lru_cache(maxsize=4096)
def _dynkin_coefficient(word):
    """Total Dynkin coefficient of a word: the sum over all decompositions of
    the word into syllables x^r y^s of (-1)^(p-1) / (p L prod r_i! s_i!).

    Dynamic program over prefixes; table[j][p] accumulates prod 1/(r_i! s_i!)
    over decompositions of the length-j prefix into p syllables.
    """
    length = len(word)
    table = [[Fraction(0)] * (length + 1) for _ in range(length + 1)]
    table[0][0] = Fraction(1)
    for j in range(1, length + 1):
        for i in range(j):
            seg = word[i:j]
            # valid syllable: a block of x's followed by a block of y's
            r = 0
            while r < len(seg) and seg[r] == "x":
                r += 1
            if "x" in seg[r:]:
                continue
            s = len(seg) - r
            weight = Fraction(1, math.factorial(r) * math.factorial(s))
            for p in range(j):
                if table[i][p]:
                    table[j][p + 1] += table[i][p] * weight
    total = Fraction(0)
    for p in range(1, length + 1):
        if table[length][p]:
            total += Fraction((-1) ** (p - 1), p) * table[length][p]
    return total / length


def bch_series(x, y):
    """log(exp(X) o exp(Y)) for an IA Y (exp(Y) acts first).

    For an IA X the Dynkin series terminates, since a bracket of k - 1 IA
    derivations raises degree past the truncation; its sum over the words of
    length <= k is the exact logarithm, on the backend of the inputs.  For a
    non-IA X the degree-1 block of the composite is e^{X_1}, so its
    logarithm is the extended logarithm's degree loop with the degree-1
    block X_1 given, run on the complex backend.  X_1 may have a complex
    spectrum; KernelSingular is raised when an ad X_1 eigenvalue falls
    within POLE_TOL of a pole.
    """
    x._check_compatible(y)
    exact_zero_tol = 0 if x.backend == EXACT else None
    if not y.is_ia(exact_zero_tol):
        raise DomainError("bch_series requires an IA second argument")
    if not x.is_ia(exact_zero_tol):
        x, y = x.to_complex(), y.to_complex()
        phi = exp_derivation(x).compose(exp_derivation(y))
        derivation, residual, _ = _solve_log(phi, x.d1, DEFAULT_TOL, POLE_TOL)
        return BchResult(derivation=derivation, residual=residual)
    return BchResult(derivation=_dynkin_sum(x, y, _dynkin_words(x.k, x.k - 2)), residual=None)


def _dynkin_sum(x, y, words):
    """Sum of the Dynkin terms of the given words over {x, y}: each word's
    coefficient times its right-nested bracket of X and Y."""
    letters = {"x": x, "y": y}
    bracket_cache = {}

    def nested_bracket(word):
        # right-nested [l1, [l2, [... [l_{p-1}, l_p] ...]]]
        if word in bracket_cache:
            return bracket_cache[word]
        if len(word) == 1:
            out = letters[word[0]]
        else:
            inner_val = nested_bracket(word[1:])
            out = letters[word[0]].bracket(inner_val)
        bracket_cache[word] = out
        return out

    total = GradedDerivation.zero(x.n, x.k, x.backend)
    for word in words:
        value = nested_bracket(word)
        if value.is_zero(0):
            continue
        coeff = _dynkin_coefficient(word)
        if coeff == 0:
            continue
        if x.backend != EXACT:
            coeff = float(coeff)
        total = total + value.scale(coeff)
    return total
