"""Scalar backends shared by every algebraic object in the package.

Two backends sit behind one interface: exact rationals (``fractions.Fraction``,
arbitrary precision) and double-precision complex.  Exact objects compare with
tolerance 0; complex objects compare in the max-abs coefficient norm with a
default tolerance of 1e-9.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EXACT = "exact"
COMPLEX = "complex"

BACKENDS = (EXACT, COMPLEX)

DEFAULT_TOL = 1e-9


class DimensionMismatch(ValueError):
    """Operands disagree on rank, truncation depth, or scalar backend."""


class DomainError(ValueError):
    """Input violates a documented precondition of the operation."""


class KernelSingular(ValueError):
    """An analytic kernel is evaluated or inverted too close to a singularity."""


def check_backend(backend):
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def to_scalar(value, backend):
    """Coerce a number to the backend's scalar type."""
    if backend == EXACT:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        if isinstance(value, float):
            # exact binary value: rounding would hide small perturbations
            if not math.isfinite(value):
                raise DomainError(f"cannot coerce {value!r} to an exact rational")
            return Fraction(value)
        raise DomainError(f"cannot coerce {value!r} to an exact rational")
    return complex(value)

def zero(backend):
    return Fraction(0) if backend == EXACT else 0j


def one(backend):
    return Fraction(1) if backend == EXACT else 1 + 0j


def default_tol(backend):
    return 0 if backend == EXACT else DEFAULT_TOL


def same_backend(a, b):
    if a.backend != b.backend:
        raise DimensionMismatch(f"backend mismatch: {a.backend} vs {b.backend}")


# ---------------------------------------------------------------------------
# Dense matrices.  Exact matrices are numpy object arrays filled with
# Fractions so that @ / kron stay exact; complex matrices are complex128.
# ---------------------------------------------------------------------------

def as_matrix(rows, backend):
    check_backend(backend)
    if backend == EXACT:
        arr = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                arr[i, j] = to_scalar(v, EXACT)
        return arr
    return np.asarray(rows, dtype=complex)


def zeros_matrix(nrows, ncols, backend):
    if backend == EXACT:
        arr = np.empty((nrows, ncols), dtype=object)
        arr[:] = Fraction(0)
        return arr
    return np.zeros((nrows, ncols), dtype=complex)


def eye_matrix(n, backend):
    m = zeros_matrix(n, n, backend)
    for i in range(n):
        m[i, i] = one(backend)
    return m


def matrix_backend(m):
    return EXACT if m.dtype == object else COMPLEX


def matrix_to_backend(m, backend):
    if matrix_backend(m) == backend:
        return m
    if backend == COMPLEX:
        return np.array([[complex(x) for x in row] for row in m], dtype=complex)
    raise DomainError("cannot promote a complex matrix to the exact backend")


def matrix_max_abs(m):
    if m.size == 0:
        return 0
    out = max(abs(x) for x in m.flat)
    return float(out) if isinstance(out, np.floating) else out


def matrices_close(a, b, tol):
    if a.shape != b.shape:
        return False
    if tol == 0:
        return all(x == y for x, y in zip(a.flat, b.flat))
    return matrix_max_abs(a - b) <= tol

