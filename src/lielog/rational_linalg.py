"""Exact dense linear algebra over the rationals, and integer lattices.

Plain Gaussian elimination on numpy object arrays of Fractions.  Sizes in this
package stay at desk scale (a few hundred at most), so there is no pivoting
strategy beyond "first nonzero".  Integer lattices get exact LLL reduction and
Fincke-Pohst enumeration of their short vectors.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .scalars import DomainError, zeros_matrix, EXACT


def _as_fraction_matrix(m):
    arr = np.empty(m.shape, dtype=object)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            arr[i, j] = Fraction(m[i, j])
    return arr


def rref(m):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    r = _as_fraction_matrix(m)
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, nrows):
            if r[i, col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        r[row] = r[row] / r[row, col]
        for i in range(nrows):
            if i != row and r[i, col] != 0:
                r[i] = r[i] - r[i, col] * r[row]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return r, pivots


def rank(m):
    return len(rref(m)[1])


def nullspace(m):
    """Basis of the exact kernel, as columns of an object matrix (possibly 0 cols)."""
    r, pivots = rref(m)
    ncols = m.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros_matrix(ncols, len(free), EXACT)
    for idx, fc in enumerate(free):
        basis[fc, idx] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            basis[pcol, idx] = -r[prow, fc]
    return basis

def solve(a, b):
    """Solve a @ x = b exactly.  b may be a vector or a matrix of columns.

    Raises DomainError when the system is inconsistent or underdetermined.
    """
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    nrows, ncols = a.shape
    aug = np.empty((nrows, ncols + b2.shape[1]), dtype=object)
    aug[:, :ncols] = a
    aug[:, ncols:] = b2
    r, pivots = rref(aug)
    if any(p >= ncols for p in pivots):
        raise DomainError("inconsistent linear system")
    if len(pivots) < ncols:
        raise DomainError("underdetermined linear system")
    x = zeros_matrix(ncols, b2.shape[1], EXACT)
    for prow, pcol in enumerate(pivots):
        x[pcol, :] = r[prow, ncols:]
    return x.reshape(-1) if b.ndim == 1 else x


def inverse(a):
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DomainError("inverse of a non-square matrix")
    ident = zeros_matrix(n, n, EXACT)
    for i in range(n):
        ident[i, i] = Fraction(1)
    try:
        return solve(a, ident)
    except DomainError as exc:
        raise DomainError("matrix is singular") from exc


# ---------------------------------------------------------------------------
# Integer lattices
# ---------------------------------------------------------------------------

# Relative slack on the float pruning test of short_vectors.  Its rounding
# error on an LLL-reduced basis of n rows is about n 2^(n/2) 2^-53 relative.
PRUNE_SLACK = 1e-6


def lll_reduce(rows):
    """LLL-reduce linearly independent integer row vectors, delta = 3/4.

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7): only the integers d_i = prod_{j<=i} |b*_j|^2 and
    lam[i][j] = d_j mu_ij are kept, and every division in it is exact.
    Returns the reduced rows as lists of ints.
    """
    b = [list(row) for row in rows]
    n = len(b)
    if n == 0:
        return b

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    # 1-based d and lam as in the reference; d[0] = 1
    d = [1, dot(b[0], b[0])] + [0] * (n - 1)
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k - 1] = [x - q * y for x, y in zip(b[k - 1], b[l - 1])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k - 1], b[k - 2] = b[k - 2], b[k - 1]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        big = (d[k - 2] * d[k] + lk * lk) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lk * t) // d[k - 1]
            lam[i][k - 1] = (big * t + lk * lam[i][k]) // d[k]
        d[k - 1] = big

    k, kmax = 2, 1
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = dot(b[k - 1], b[j - 1])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    if u == 0:
                        raise DomainError("lattice rows are linearly dependent")
                    d[k] = u
        red(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
    return b


def _gram_schmidt(rows):
    """Exact Gram-Schmidt data of independent rows: (mu, norms).

    mu[i][j] (j < i) are the projection coefficients and norms[i] = |b*_i|^2,
    all Fractions.
    """
    n = len(rows)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    stars = []
    for i, row in enumerate(rows):
        star = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(Fraction(x) * y for x, y in zip(row, stars[j])) / norms[j]
            star = [s - mu[i][j] * y for s, y in zip(star, stars[j])]
        stars.append(star)
        norms.append(sum(s * s for s in star))
    return mu, norms


def short_vectors(rows, radius_sq, visit, budget):
    """Fincke-Pohst enumeration of the lattice points of norm^2 <= radius_sq.

    Calls visit(x) with the integer coefficients x (a tuple, x != 0) of every
    point sum_i x_i rows_i whose squared norm is at most the current radius
    (and of any within a relative PRUNE_SLACK beyond it).  When visit returns
    a number, the search goes on inside the smaller of it and the current
    radius.  The Gram-Schmidt data are exact, rounded to floats only for the
    pruning test, whose PRUNE_SLACK covers that rounding: no point inside the
    radius is missed.  Every integer tried at every level that passes the
    test, a point of a projected lattice, counts one against budget.  Returns
    the count, or None as soon as it would exceed budget.
    """
    n = len(rows)
    mu, norms = _gram_schmidt(rows)
    mu = [[float(m) for m in row] for row in mu]
    norms = [float(b) for b in norms]
    x = [0] * n
    radius = _float_or_inf(radius_sq) * (1 + PRUNE_SLACK)
    count = 0

    def level(i, partial):
        # partial = sum over levels above i of norms_j (x_j - centre_j)^2
        nonlocal count, radius
        centre = -sum(mu[j][i] * x[j] for j in range(i + 1, n))
        nearest = round(centre)
        # Schnorr-Euchner order: nearest integer first, then outwards
        for step in itertools.count():
            for xi in ((nearest,) if step == 0 else (nearest + step, nearest - step)):
                here = partial + norms[i] * (xi - centre) ** 2
                if here > radius:
                    continue
                count += 1
                if count > budget:
                    return False
                x[i] = xi
                if i > 0:
                    if not level(i - 1, here):
                        return False
                elif any(x):
                    shrunk = visit(tuple(x))
                    if shrunk is not None:
                        radius = min(radius, _float_or_inf(shrunk) * (1 + PRUNE_SLACK))
            # every integer at distance > step + 1/2 from the centre is outside
            if partial + norms[i] * (step + 0.5) ** 2 > radius:
                break
        x[i] = 0
        return True

    if n and not level(n - 1, 0.0):
        return None
    return count


def _float_or_inf(value):
    try:
        return float(value)
    except OverflowError:
        return math.inf
