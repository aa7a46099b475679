"""The truncated free associative algebra on n noncommuting generators.

Elements live in the quotient by the ideal of words of length >= k, and are
stored as sparse coefficient maps keyed by words (tuples of generator indices
in 1..n).  The coalgebra structure is the one in which every generator is
primitive.  Over Q and C its primitive elements are exactly the Lie elements,
and u is group-like iff log u is primitive (Friedrichs), so both predicates
are decided degree by degree with the Dynkin-Specht-Wever criterion on dense
per-degree column blocks (degree_columns).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .scalars import (
    COMPLEX,
    DEFAULT_TOL,
    EXACT,
    DimensionMismatch,
    DomainError,
    check_backend,
    default_tol,
    matrix_max_abs,
    one,
    same_backend,
    to_scalar,
    zero,
    zeros_matrix,
)

# A word is a tuple of generator indices; () is the empty word (degree 0).


def validate_word(word, n, k):
    if len(word) >= k:
        raise DomainError(f"word {word} has length >= truncation depth {k}")
    for letter in word:
        if not 1 <= letter <= n:
            raise DomainError(f"letter {letter} outside 1..{n}")
    return tuple(word)


def words_of_degree(n, m):
    """All words of length m over 1..n in lexicographic order."""
    return [tuple(w) for w in itertools.product(range(1, n + 1), repeat=m)]


def basis_dimension(n, k):
    return sum(n**m for m in range(k))


class TruncatedTensor:
    """Element of the rank-n free associative algebra truncated at degree k."""

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
                word = validate_word(word, n, k)
                value = to_scalar(value, backend)
                if value != 0:
                    data[word] = value
        self.coeffs = data

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n, k, backend=EXACT):
        return cls(n, k, {}, backend)

    @classmethod
    def unit(cls, n, k, backend=EXACT):
        return cls(n, k, {(): one(backend)}, backend)

    @classmethod
    def generator(cls, n, k, i, backend=EXACT):
        if not 1 <= i <= n:
            raise DomainError(f"generator index {i} outside 1..{n}")
        return cls(n, k, {(i,): one(backend)}, backend)

    # -- basic queries ------------------------------------------------------

    def coefficient(self, word):
        return self.coeffs.get(tuple(word), zero(self.backend))

    @property
    def constant_term(self):
        return self.coeffs.get((), zero(self.backend))

    def degree_component(self, m):
        return TruncatedTensor(
            self.n,
            self.k,
            {w: c for w, c in self.coeffs.items() if len(w) == m},
            self.backend,
        )

    def max_abs(self):
        if not self.coeffs:
            return 0
        return max(abs(c) for c in self.coeffs.values())

    def is_zero(self, tol=None):
        tol = default_tol(self.backend) if tol is None else tol
        if tol == 0:
            return not self.coeffs
        return self.max_abs() <= tol

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other):
        if (self.n, self.k) != (other.n, other.k):
            raise DimensionMismatch(
                f"(n,k) mismatch: ({self.n},{self.k}) vs ({other.n},{other.k})"
            )
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
        out = TruncatedTensor.zero(self.n, self.k, self.backend)
        out.coeffs = data
        return out

    def __neg__(self):
        out = TruncatedTensor.zero(self.n, self.k, self.backend)
        out.coeffs = {w: -c for w, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        value = to_scalar(scalar, self.backend)
        out = TruncatedTensor.zero(self.n, self.k, self.backend)
        if value != 0:
            out.coeffs = {w: value * c for w, c in self.coeffs.items()}
        return out

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __mul__(self, other):
        if isinstance(other, TruncatedTensor):
            return mul(self, other)
        return self.scale(other)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedTensor):
            return NotImplemented
        return (
            (self.n, self.k, self.backend) == (other.n, other.k, other.backend)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.k, self.backend, frozenset(self.coeffs.items())))

    def close_to(self, other, tol=None):
        self._check_compatible(other)
        return (self - other).is_zero(tol)

    # -- conversions --------------------------------------------------------

    def to_complex(self):
        if self.backend == COMPLEX:
            return self
        return TruncatedTensor(
            self.n, self.k, {w: complex(c) for w, c in self.coeffs.items()}, COMPLEX
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for w in sorted(self.coeffs, key=lambda w: (len(w), w)):
            c = self.coeffs[w]
            mono = "*".join(f"X{i}" for i in w) if w else "1"
            parts.append(f"({c})*{mono}" if w else f"({c})")
        return " + ".join(parts)


def mul(a, b):
    """Concatenation product; words of length >= k are discarded."""
    a._check_compatible(b)
    k = a.k
    data = {}
    for wa, ca in a.coeffs.items():
        for wb, cb in b.coeffs.items():
            if len(wa) + len(wb) >= k:
                continue
            w = wa + wb
            s = data.get(w)
            s = ca * cb if s is None else s + ca * cb
            data[w] = s
    out = TruncatedTensor.zero(a.n, a.k, a.backend)
    out.coeffs = {w: c for w, c in data.items() if c != 0}
    return out


def degree_columns(tensors, m):
    """Degree-m coefficients of the tensors as an n^m x len(tensors) matrix.

    Rows follow words_of_degree(n, m): lexicographic, first letter most
    significant, as in iterated Kronecker products.  Column j holds tensor j.
    """
    n, backend = tensors[0].n, tensors[0].backend
    mat = zeros_matrix(n**m, len(tensors), backend)
    for j, t in enumerate(tensors):
        for w, c in t.coeffs.items():
            if len(w) == m:
                row = 0
                for letter in w:
                    row = row * n + letter - 1
                mat[row, j] = c
    return mat


def column_tensors(blocks, n, k, backend):
    """Inverse of degree_columns: n tensors, the i-th with degree-m part
    column i of blocks[m] (an n^m x n matrix) for every degree m in blocks."""
    coeffs = [{} for _ in range(n)]
    for m, mat in blocks.items():
        for r, w in enumerate(words_of_degree(n, m)):
            for i in range(n):
                if mat[r, i] != 0:
                    coeffs[i][w] = mat[r, i]
    return [TruncatedTensor(n, k, c, backend) for c in coeffs]


# Kronecker-structured products on blocks whose n^j rows are j tensor factors
# (degree_columns order): each factor is applied to one tensor factor and the
# product is never formed (Van Loan, "The ubiquitous Kronecker product", 2000).


def mode_apply(mat, x, pos):
    """(I^(x pos) (x) mat (x) I^(x rest)) x: the n^l x n matrix mat applied to
    tensor factor pos (0-based, first letter first) of the n^j x c block x."""
    n, cols = mat.shape[1], x.shape[1]
    return (mat @ x.reshape(n**pos, n, -1)).reshape(-1, cols)


def partition_sum(factors, x, j, top):
    """{m: sum over compositions (i_1..i_j) of m of kron(F_{i_1}, ..., F_{i_j}) x}
    for m <= top with a composition, x having n^j rows and factors mapping i to
    the n^i x n matrix F_i (absent: zero).  {1: M} gives {j: M^(x j) x}.
    Positions are applied last to first, so earlier ones keep their index,
    and partial sums of equal degree are added before the next position."""
    partial = {0: x}
    for pos in reversed(range(j)):
        nxt = {}
        for s, y in partial.items():
            for i, f in factors.items():
                if s + i + pos <= top:  # the pos positions left add >= 1 each
                    term = mode_apply(f, y, pos)
                    nxt[s + i] = term if s + i not in nxt else nxt[s + i] + term
        partial = nxt
    return partial


def lift_apply(blk, x, j):
    """lift_j(blk) x = sum_pos (I (x) blk (x) I) x for x with n^j rows: the
    Leibniz action on H^(x j) of the derivation whose only block is blk."""
    return sum(mode_apply(blk, x, pos) for pos in range(j))


def is_lie_block(blk, n, m, tol):
    """True iff every column of the n^m x c block is a Lie element within tol.

    Columns are degree-m tensors in degree_columns order.  By the
    Dynkin-Specht-Wever theorem a degree-m element P is Lie iff
    rho(P) = m P, where rho is left-normed bracketing,
    rho(x_i1 ... x_im) = [..[x_i1, x_i2], ..., x_im].  The test is
    max|m P - rho(P)| <= m tol: P lies within tol of its Dynkin projection
    rho(P)/m.  rho_m = (I - C)(rho_{m-1} (x) I_n), where C moves the last
    tensor factor to the front, so rho is applied by reshapes and transposes
    in O(m n^m) per column.
    """
    cols = blk.shape[1]
    rho = blk
    for j in range(2, m + 1):
        # (I - C) on the first j tensor factors
        t = rho.reshape(n ** (j - 1), n, -1)
        rho = t.reshape(n**m, cols) - t.transpose(1, 0, 2).reshape(n**m, cols)
    return matrix_max_abs(blk * m - rho) <= m * tol


def is_primitive(a, tol=None):
    """True iff coproduct(a) = 1 (x) a + a (x) 1 within tol, i.e. a is a Lie
    element: zero constant term and every degree component Lie."""
    tol = default_tol(a.backend) if tol is None else tol
    if abs(a.constant_term) > tol:
        return False
    return all(is_lie_block(degree_columns([a], m), a.n, m, tol) for m in range(2, a.k))


def normed_log(u, tol):
    """log u with the constant term first set to exactly 1.

    Raises DomainError unless the constant term is 1 within tol (None: the
    backend default).
    """
    tol = default_tol(u.backend) if tol is None else tol
    if abs(u.constant_term - one(u.backend)) > tol:
        raise DomainError("group-like test requires constant term 1")
    normed = TruncatedTensor.zero(u.n, u.k, u.backend)
    normed.coeffs = {**u.coeffs, (): one(u.backend)}
    return tensor_log(normed)


def is_grouplike(u, tol=None):
    """True iff coproduct(u) = u (x) u within tol.  Requires constant term 1.

    u is group-like iff log u is primitive (see normed_log).
    """
    return is_primitive(normed_log(u, tol), tol)


def tensor_exp(a):
    """exp(a) = sum a^m / m!  Requires zero constant term; the sum is finite."""
    if a.constant_term != 0:
        raise DomainError("tensor_exp requires zero constant term")
    result = TruncatedTensor.unit(a.n, a.k, a.backend)
    power = TruncatedTensor.unit(a.n, a.k, a.backend)
    for m in range(1, a.k):
        power = mul(power, a)
        if power.is_zero(0):
            break
        if a.backend == EXACT:
            result = result + power.scale(Fraction(1, math.factorial(m)))
        else:
            result = result + power.scale(1.0 / math.factorial(m))
    return result


def tensor_log(u):
    """log(u) = sum (-1)^(m-1) (u-1)^m / m.  Requires constant term 1."""
    c = u.constant_term
    if u.backend == EXACT:
        if c != 1:
            raise DomainError("tensor_log requires constant term exactly 1")
    elif abs(c - 1) > DEFAULT_TOL:
        raise DomainError("tensor_log requires constant term 1 within tolerance")
    r = u - TruncatedTensor.unit(u.n, u.k, u.backend)
    result = TruncatedTensor.zero(u.n, u.k, u.backend)
    power = TruncatedTensor.unit(u.n, u.k, u.backend)
    for m in range(1, u.k):
        power = mul(power, r)
        if power.is_zero(0):
            break
        coeff = Fraction((-1) ** (m - 1), m) if u.backend == EXACT else ((-1.0) ** (m - 1)) / m
        result = result + power.scale(coeff)
    return result


def tensor_inverse(u):
    """Inverse in the unit group: requires an invertible constant term.

    Writes u = c(1 + r) with r in the augmentation ideal and sums the finite
    geometric series (1 + r)^-1 = sum (-r)^m.
    """
    c = u.constant_term
    if c == 0:
        raise DomainError("tensor_inverse requires a nonzero constant term")
    cinv = (Fraction(1) / c) if u.backend == EXACT else (1.0 / c)
    neg_r = TruncatedTensor.unit(u.n, u.k, u.backend) - u.scale(cinv)
    result = TruncatedTensor.unit(u.n, u.k, u.backend)
    power = TruncatedTensor.unit(u.n, u.k, u.backend)
    for _ in range(1, u.k):
        power = mul(power, neg_r)
        if power.is_zero(0):
            break
        result = result + power
    return result.scale(cinv)
