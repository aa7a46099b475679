"""The free nilpotent Lie algebra on n generators in a Lyndon-bracket basis.

Lyndon words over 1..n index a homogeneous basis of the free Lie algebra; each
word carries its standard (right) factorization w = uv with v the
lexicographically least proper suffix, and the basis element is the iterated
commutator [b(u), b(v)].  Elements embed into the truncated tensor algebra as
primitives, and conversion back is an exact per-degree linear solve.
"""

from __future__ import annotations

import numpy as np

from . import rational_linalg
from .scalars import (
    COMPLEX,
    EXACT,
    DimensionMismatch,
    DomainError,
    check_backend,
    default_tol,
    matrix_max_abs,
    one,
    same_backend,
    to_scalar,
    zeros_matrix,
)
from .tensor_algebra import TruncatedTensor, degree_columns, is_primitive, mul


def is_lyndon(word):
    """A nonempty word is Lyndon iff it is strictly smaller than all proper suffixes."""
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(n, max_len):
    """Lyndon words over 1..n grouped by length: result[m] lists length-m words.

    Duval's generation algorithm.
    """
    by_degree = {m: [] for m in range(1, max_len + 1)}
    w = [1]
    while w:
        if len(w) <= max_len:
            by_degree[len(w)].append(tuple(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[-m])
        while w and w[-1] == n:
            w.pop()
        if w:
            w[-1] += 1
    for m in by_degree:
        by_degree[m].sort()
    return by_degree


def lyndon_basis(n, k):
    """The Lyndon words of degree < k, grouped by degree (keys 1..k-1)."""
    if n < 1 or k < 2:
        raise DomainError("lyndon_basis requires n >= 1 and k >= 2")
    return lyndon_words(n, k - 1)


def standard_factorization(word):
    """w = uv with v the lexicographically least (longest Lyndon) proper suffix."""
    if len(word) < 2:
        raise DomainError("cannot factor a single letter")
    best = 1
    for i in range(2, len(word)):
        if word[i:] < word[best:]:
            best = i
    return word[:best], word[best:]


def necklace_count(n, m):
    """Dimension of the degree-m piece of the free Lie algebra (Witt formula)."""
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            total += _moebius(d) * n ** (m // d)
    return total // m


def _moebius(d):
    if d == 1:
        return 1
    out, rem, p = 1, d, 2
    while p * p <= rem:
        if rem % p == 0:
            rem //= p
            if rem % p == 0:
                return 0
            out = -out
        p += 1
    if rem > 1:
        out = -out
    return out


def lyndon_bracket_tensor(word, n, k, backend=EXACT):
    """Tensor image of the Lyndon bracket of `word` (commutator expansion)."""
    if len(word) == 1:
        return TruncatedTensor.generator(n, k, word[0], backend)
    u, v = standard_factorization(word)
    a = lyndon_bracket_tensor(u, n, k, backend)
    b = lyndon_bracket_tensor(v, n, k, backend)
    return mul(a, b) - mul(b, a)


class LiePoly:
    """Element of the free nilpotent Lie algebra, sparse over Lyndon words."""

    __slots__ = ("n", "k", "backend", "coeffs")

    def __init__(self, n, k, coeffs=None, backend=EXACT):
        if k < 2:
            raise DomainError("truncation depth k must be >= 2")
        self.n = n
        self.k = k
        self.backend = check_backend(backend)
        data = {}
        if coeffs:
            for word, value in coeffs.items():
                word = tuple(word)
                if len(word) >= k:
                    raise DomainError(f"Lyndon word {word} has degree >= {k}")
                if not is_lyndon(word) or any(not 1 <= i <= n for i in word):
                    raise DomainError(f"{word} is not a Lyndon word over 1..{n}")
                value = to_scalar(value, backend)
                if value != 0:
                    data[word] = value
        self.coeffs = data

    @classmethod
    def zero(cls, n, k, backend=EXACT):
        return cls(n, k, {}, backend)

    @classmethod
    def generator(cls, n, k, i, backend=EXACT):
        return cls(n, k, {(i,): one(backend)}, backend)

    def _check_compatible(self, other):
        if (self.n, self.k) != (other.n, other.k):
            raise DimensionMismatch("LiePoly (n,k) mismatch")
        same_backend(self, other)

    def __add__(self, other):
        self._check_compatible(other)
        data = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = data.get(w)
            s = c if s is None else s + c
            if s == 0:
                data.pop(w, None)
            else:
                data[w] = s
        out = LiePoly.zero(self.n, self.k, self.backend)
        out.coeffs = data
        return out

    def __neg__(self):
        out = LiePoly.zero(self.n, self.k, self.backend)
        out.coeffs = {w: -c for w, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        value = to_scalar(scalar, self.backend)
        out = LiePoly.zero(self.n, self.k, self.backend)
        if value != 0:
            out.coeffs = {w: value * c for w, c in self.coeffs.items()}
        return out

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def max_abs(self):
        if not self.coeffs:
            return 0
        return max(abs(c) for c in self.coeffs.values())

    def is_zero(self, tol=None):
        tol = default_tol(self.backend) if tol is None else tol
        if tol == 0:
            return not self.coeffs
        return self.max_abs() <= tol

    def __eq__(self, other):
        if not isinstance(other, LiePoly):
            return NotImplemented
        return (
            (self.n, self.k, self.backend) == (other.n, other.k, other.backend)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.k, self.backend, frozenset(self.coeffs.items())))

    def to_complex(self):
        if self.backend == COMPLEX:
            return self
        return LiePoly(
            self.n, self.k, {w: complex(c) for w, c in self.coeffs.items()}, COMPLEX
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for w in sorted(self.coeffs, key=lambda w: (len(w), w)):
            parts.append(f"({self.coeffs[w]})*L{list(w)}")
        return " + ".join(parts)


def lie_to_tensor(a):
    """Embed into the tensor algebra via iterated commutators (lands in primitives)."""
    out = TruncatedTensor.zero(a.n, a.k, a.backend)
    for word, c in a.coeffs.items():
        out = out + lyndon_bracket_tensor(word, a.n, a.k, a.backend).scale(c)
    return out


# Per-degree matrices of Lyndon bracket images, cached per (n, k, degree).
_bracket_matrix_cache = {}


def _bracket_matrix(n, k, m):
    """Columns: tensor coordinates (degree-m words) of degree-m Lyndon brackets."""
    key = (n, k, m)
    cached = _bracket_matrix_cache.get(key)
    if cached is not None:
        return cached
    lyndon = lyndon_basis(n, k)[m]
    mat = degree_columns([lyndon_bracket_tensor(lw, n, k, EXACT) for lw in lyndon], m)
    _bracket_matrix_cache[key] = (lyndon, mat)
    return _bracket_matrix_cache[key]


def tensor_to_lie(p, tol=None):
    """Inverse of lie_to_tensor on primitives; per-degree exact or least-squares solve.

    Raises DomainError when the input is not primitive (within tol).
    """
    if not is_primitive(p, tol):
        raise DomainError("tensor_to_lie requires a primitive element")
    out = LiePoly.zero(p.n, p.k, p.backend)
    for m in range(1, p.k):
        rhs = degree_columns([p], m)
        if matrix_max_abs(rhs) == 0:
            continue
        lyndon, mat = _bracket_matrix(p.n, p.k, m)
        if p.backend == EXACT:
            sol = _solve_full_column_rank(mat, rhs)
            coeffs = {lw: sol[j, 0] for j, lw in enumerate(lyndon)}
        else:
            a = np.array([[complex(x) for x in row] for row in mat], dtype=complex)
            b = rhs[:, 0]
            sol, *_ = np.linalg.lstsq(a, b, rcond=None)
            resid = np.max(np.abs(a @ sol - b)) if len(b) else 0.0
            tol_c = default_tol(COMPLEX) if tol is None else tol
            if resid > max(tol_c, 1e-12 * max(1.0, np.max(np.abs(b)))):
                raise DomainError("degree component is not in the Lie subspace")
            coeffs = {lw: sol[j] for j, lw in enumerate(lyndon)}
        out = out + LiePoly(p.n, p.k, coeffs, p.backend)
    return out


def _solve_full_column_rank(mat, rhs):
    """Exact solve of an overdetermined consistent system with independent columns."""
    aug = np.empty((mat.shape[0], mat.shape[1] + rhs.shape[1]), dtype=object)
    aug[:, : mat.shape[1]] = mat
    aug[:, mat.shape[1] :] = rhs
    r, pivots = rational_linalg.rref(aug)
    if any(p >= mat.shape[1] for p in pivots):
        raise DomainError("inconsistent system: element is not in the Lie subspace")
    sol = zeros_matrix(mat.shape[1], rhs.shape[1], EXACT)
    for prow, pcol in enumerate(pivots):
        sol[pcol, :] = r[prow, mat.shape[1] :]
    return sol


def bracket(a, b):
    """Lie bracket, computed through the tensor embedding."""
    a._check_compatible(b)
    ta, tb = lie_to_tensor(a), lie_to_tensor(b)
    return tensor_to_lie(mul(ta, tb) - mul(tb, ta))


def omega(g, k, backend=EXACT):
    """The symplectic element: sum of [x_{2i-1}, x_{2i}] for i = 1..g."""
    if k < 3:
        raise DomainError("omega is nonzero only for k >= 3")
    coeffs = {(2 * i - 1, 2 * i): one(backend) for i in range(1, g + 1)}
    return LiePoly(2 * g, k, coeffs, backend)


def omega_tensor(g, k, backend=EXACT):
    """Tensor image of omega: sum X_{2i-1}X_{2i} - X_{2i}X_{2i-1}."""
    return lie_to_tensor(omega(g, k, backend))


def bracketing_matrix(g, k):
    """The matrix of [,]: H (x) L_k -> L_{k+1} in Lyndon coordinates.

    Returns (pairs, target_lyndon_words, matrix); pairs index the columns as
    (generator index, degree-k Lyndon word).
    """
    n = 2 * g
    depth = k + 2  # enough room to compute degree-(k+1) brackets
    lyndon_k = lyndon_words(n, k)[k]
    lyndon_k1 = lyndon_words(n, k + 1)[k + 1]
    pairs = [(i, w) for i in range(1, n + 1) for w in lyndon_k]
    target_pos = {w: r for r, w in enumerate(lyndon_k1)}
    mat = zeros_matrix(len(lyndon_k1), len(pairs), EXACT)
    for col, (i, w) in enumerate(pairs):
        x = LiePoly.generator(n, depth, i)
        z = LiePoly(n, depth, {w: 1})
        bz = bracket(x, z)
        for ww, c in bz.coeffs.items():
            mat[target_pos[ww], col] = c
    return pairs, lyndon_k1, mat


def bracketing_kernel(g, k):
    """Exact basis of the kernel of [,]: H (x) L_k -> L_{k+1}.

    Elements are returned as dicts mapping (generator index, Lyndon word of
    degree k) to Fraction coefficients.
    """
    pairs, _, mat = bracketing_matrix(g, k)
    basis = rational_linalg.nullspace(mat)
    out = []
    for j in range(basis.shape[1]):
        elem = {}
        for col, pair in enumerate(pairs):
            if basis[col, j] != 0:
                elem[pair] = basis[col, j]
        out.append(elem)
    return out
