"""Dense complex linear algebra: the principal logarithm, phi1 of a matrix,
Jordan block sizes, and the exponential-solvability check.

Eigenvalues come from one ``eigvals`` call and are grouped into clusters: an
eigenvalue within CLUSTER_TOL of a cluster's centre, relative to that centre's
modulus, joins it.  The principal logarithm interpolates on the eigenvalues
with each cluster's divided differences summed as a Taylor series at its
centre, and the solvability check reads a cluster as one eigenvalue when it
is certified as one.  The computed eigenvalues of a size-l Jordan block
scatter like (eps cond)^(1/l); while that stays inside the cluster radius (in
practice l <= 3), the block is seen as the single eigenvalue it is.  No Jordan
basis is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .rational_linalg import lll_reduce, short_vectors
from .scalars import DomainError

RANK_TOL = 1e-8
# Relative distance below which computed eigenvalues form one cluster.
CLUSTER_TOL = 1e-4
# Lattice points the solvability verdict's relation search enumerates
# (counted at every level of the Fincke-Pohst search) before it gives up.
ENUMERATION_BUDGET = 2_000_000
DEFAULT_TOL = 1e-9
POLE_TOL = 1e-6

TWO_PI = 2.0 * math.pi


def _as_complex(a):
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("expected a square matrix")
    if not np.all(np.isfinite(m.view(float))):
        raise DomainError("matrix has non-finite entries")
    return m


def _numerical_rank(m, cutoff):
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0:
        return 0
    return int(np.sum(sv > cutoff))


def _power_cutoff(base_norm, j, ambient=1.0):
    """Rank cutoff for the j-th power of a matrix of spectral norm base_norm.

    Roundoff in a computed power tracks base_norm^j, so a true-zero power
    must not be normalized by its own (noise) norm; the floor covers the
    subtraction noise of forming A - lam I at the ambient scale of A.
    """
    floor = 1e-7 * max(ambient, 1.0)
    return RANK_TOL * max(base_norm, floor) ** j


def _clusters(eigs):
    """Greedy clustering of an eigenvalue list into lists of members.

    An eigenvalue joins the first cluster whose centre c, the mean of its
    members so far, is within CLUSTER_TOL |c| of it: the radius is relative to
    each cluster's own modulus, so small eigenvalues are not merged at a large
    relative spread.  The mean is accurate to roundoff even when the members
    scatter.
    """
    eigs = sorted(eigs, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    clusters = []
    for z in eigs:
        for members in clusters:
            centre = sum(members) / len(members)
            if abs(z - centre) <= CLUSTER_TOL * abs(centre):
                members.append(z)
                break
        else:
            clusters.append([z])
    return clusters


def cluster_eigenvalues(eigs):
    """Greedy clustering of an eigenvalue list. Returns [(centre, multiplicity)]."""
    return [(sum(members) / len(members), len(members)) for members in _clusters(eigs)]


def jordan_block_sizes(a, eigenvalue):
    """Block sizes for one eigenvalue, from ranks of powers of (A - lam I)."""
    a = _as_complex(a)
    n = a.shape[0]
    nilp = a - eigenvalue * np.eye(n)
    base_norm = float(np.linalg.norm(nilp, 2))
    ambient = float(np.linalg.norm(a, 2))
    kernel_dims = [0]
    power = np.eye(n, dtype=complex)
    for j in range(1, n + 1):
        power = power @ nilp
        kernel_dims.append(n - _numerical_rank(power, _power_cutoff(base_norm, j, ambient)))
        if kernel_dims[-1] == kernel_dims[-2]:
            break
    sizes = []
    # number of blocks of size >= j is kernel_dims[j] - kernel_dims[j-1]
    deltas = [kernel_dims[j] - kernel_dims[j - 1] for j in range(1, len(kernel_dims))]
    for j, d in enumerate(deltas, start=1):
        count_ge_next = deltas[j] if j < len(deltas) else 0
        sizes.extend([j] * (d - count_ge_next))
    return sorted(sizes, reverse=True)


def _log_divided_differences(centre, members):
    """Divided differences log[x_i..x_j] of one cluster's members x.

    They form the upper triangle of log Z, Z = diag(x) + superdiagonal ones
    (Opitz).  With D = diag(x/c - 1) + superdiagonal ones and c the centre,
    log[x_i..x_j] = c^(i-j) (log c [i = j] + log(I + D)_ij).  The Taylor series
    of log(I + D) is summed until its terms fall below roundoff; it converges
    fast because |x/c - 1| <= 2 CLUSTER_TOL or so.  Close nodes thus lose
    nothing to cancellation, and equal nodes give log^(j)(c)/j! exactly.
    """
    m = len(members)
    d = np.diag(np.asarray(members, dtype=complex) / centre - 1.0) + np.eye(m, k=1)
    series = np.zeros((m, m), dtype=complex)
    power = np.eye(m, dtype=complex)
    for k in range(1, m + 64):
        power = power @ d
        term = power * ((-1) ** (k - 1) / k)
        series += term
        if k >= m and np.max(np.abs(term)) <= 1e-17:
            break
    i, j = np.indices((m, m))
    return (series + np.log(centre) * np.eye(m)) * complex(centre) ** (i - j)


def principal_log(a):
    """Principal matrix logarithm by Hermite interpolation on the spectrum.

    log A = sum_j log[x_0..x_j] prod_{i<j} (A - x_i I) (Higham, Functions of
    Matrices, 1.2).  The nodes x_i are the computed eigenvalues, the members
    of one cluster kept adjacent.  A divided difference within one cluster is
    read from _log_divided_differences, so the scatter of a defective
    eigenvalue or a pair of close eigenvalues costs no accuracy; across
    clusters the usual recurrence applies.  Each cluster takes the branch of
    its centre, whose imaginary part is dropped when at most 1e-9 of its
    modulus, so a negative eigenvalue takes +i pi: every eigenvalue of the
    result has imaginary part in (-pi, pi].
    """
    a = _as_complex(a)
    n = a.shape[0]
    floor = RANK_TOL * max(1.0, float(np.max(np.abs(a))))
    nodes = []
    owner = []  # per node: (index of its cluster's first node, cluster table)
    for members in _clusters(np.linalg.eigvals(a)):
        centre = sum(members) / len(members)
        if abs(centre) < floor:
            raise DomainError("singular matrix has no logarithm")
        if abs(centre.imag) <= 1e-9 * abs(centre):
            centre = complex(centre.real, 0.0)
        start = len(nodes)
        table = _log_divided_differences(centre, members)
        owner.extend([(start, table)] * len(members))
        nodes.extend(members)
    dd = [table[i - start, i - start] for i, (start, table) in enumerate(owner)]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            start, table = owner[i]
            if i - j >= start:
                dd[i] = table[i - j - start, i - start]
            else:
                dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - j])
    eye = np.eye(n, dtype=complex)
    out = dd[0] * eye
    power = eye
    for j in range(1, n):
        power = power @ (a - nodes[j - 1] * eye)
        out = out + dd[j] * power
    return out


def pole_margin(z):
    """Smallest distance from the values z to {2 pi i j : j nonzero integer},
    the poles of the inverse kernel z / (1 - e^{-z}); inf when z is empty."""
    z = np.asarray(z, dtype=complex).ravel()
    nearest = np.round(z.imag / TWO_PI)
    best = np.full(z.shape, math.inf)
    for j in (nearest - 1, nearest, nearest + 1):
        best = np.minimum(best, np.where(j != 0, np.abs(z - 1j * TWO_PI * j), math.inf))
    return float(best.min(initial=math.inf))


def phi1_matrix(m):
    """phi1(M) = (1 - e^{-M}) M^{-1} extended over singular M.

    Computed singularity-free as the top-right block of
    expm([[-M, I], [0, 0]]), which equals int_0^1 e^{-sM} ds.
    """
    m = _as_complex(m)
    n = m.shape[0]
    aug = np.zeros((2 * n, 2 * n), dtype=complex)
    aug[:n, :n] = -m
    aug[:n, n:] = np.eye(n)
    return scipy.linalg.expm(aug)[:n, n:]


# ---------------------------------------------------------------------------
# Exponential solvability
# ---------------------------------------------------------------------------


@dataclass
class SolvabilityVerdict:
    """Outcome of the unit-circle obstruction check.

    verdict is one of 'solvable', 'not_solvable', 'inconclusive'.  For
    not_solvable, witness is an element of the eigenvalue group on the unit
    circle distinct from 1, with the integer exponents that produced it
    (exponents is None for the non-real-eigenvalue shortcut).
    """

    verdict: str
    eigenvalues: list
    witness: complex | None = None
    exponents: list | None = None
    detail: str = ""

    def to_json(self):
        return {
            "verdict": self.verdict,
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in self.eigenvalues],
            "witness": None
            if self.witness is None
            else {"re": self.witness.real, "im": self.witness.imag},
            "exponents": self.exponents,
            "detail": self.detail,
        }


def eig_unit_circle_obstruction(a, exponent_bound=8, tol=DEFAULT_TOL):
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
    elements are products with vanishing total log-modulus (within tol); the
    integer relations v with max|v_i| <= exponent_bound are found by lattice
    reduction (see _modulus_relations), and a relation with odd negative
    part gives the witness -1.  The exponents reported are the first such v
    by (max|v_i|, v), the order of a scan of the box in shells.  The verdict
    is three-valued: 'solvable' only when certified, 'inconclusive' when
    relations exist but none is odd within the bound, or when the search
    would enumerate more than ENUMERATION_BUDGET lattice points.  Raises
    DomainError unless exponent_bound is an int >= 1 and tol is finite and
    >= 0.
    """
    if not (isinstance(exponent_bound, int) and exponent_bound >= 1):
        raise DomainError(f"exponent_bound must be an integer >= 1; got {exponent_bound!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be finite and >= 0; got {tol!r}")
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
    negative = [x < 0 for x in distinct]
    relations = _modulus_relations(logs, negative, exponent_bound, tol)
    if relations is None:
        return SolvabilityVerdict(
            verdict="inconclusive",
            eigenvalues=eigs,
            detail="enumeration budget exhausted before the bound was covered",
        )
    for vec in relations:
        if _odd_negative_part(vec, negative):
            return SolvabilityVerdict(
                verdict="not_solvable",
                eigenvalues=eigs,
                witness=complex(-1.0),
                exponents=list(vec),
                detail="integer relation with odd negative part: product is -1 on the circle",
            )
    if not relations:
        return solvable(f"moduli multiplicatively independent at exponent bound {exponent_bound}")
    return SolvabilityVerdict(
        verdict="inconclusive",
        eigenvalues=eigs,
        detail="modulus relations exist; no sign obstruction found within the bound",
    )


def _modulus_relations(logs, negative, bound, tol):
    """The integer vectors v != 0 with max|v_i| <= bound that the float test
    abs(sum(v_i logs_i)) <= tol accepts, sorted by (max|v_i|, v).

    Once a relation with an odd negative part (sum of v_i over the negative
    entries) is found, the list is complete only up to the max-norm of the
    first such one, which is all the witness order needs.  None when the
    search takes more than ENUMERATION_BUDGET lattice points.

    The relations are short vectors of the lattice with rows
    (M e_i, round(M W logs_i)), M = r and W = 1/tol: the point of v has last
    coordinate M W sum(v_i logs_i) plus a rounding error of at most
    |v|_1 / 2.  After LLL reduction, Fincke-Pohst enumeration inside the
    radius of the box max|v_i| <= s finds every v in that box that passes
    the float test, and the radius shrinks to the witness's box.
    """
    r = len(logs)
    lgs = [Fraction(lg) for lg in logs]
    # the float sum differs from the exact one by at most (r + 1) 2^-52 s sum|logs_i|
    unit = Fraction(r + 1, 2**52) * sum(abs(lg) for lg in lgs)
    width = max(Fraction(tol), unit)  # 1/W, positive even for tol = 0

    def radius_sq(s):
        last = r * (1 + s * unit / width) + Fraction(r * s, 2)
        return r * r * r * s * s + last * last

    rows = lll_reduce(
        [[r if j == i else 0 for j in range(r)] + [round(r * lg / width)] for i, lg in enumerate(lgs)]
    )
    coords = [[c // r for c in row[:r]] for row in rows]
    found = []

    def visit(x):
        vec = tuple(sum(xi * c[j] for xi, c in zip(x, coords)) for j in range(r))
        norm = max(abs(v) for v in vec)
        if norm <= bound and abs(sum(v * lg for v, lg in zip(vec, logs))) <= tol:
            found.append(vec)
            if _odd_negative_part(vec, negative):
                return radius_sq(norm)
        return None

    if short_vectors(rows, radius_sq(bound), visit, ENUMERATION_BUDGET) is None:
        return None
    return sorted(found, key=lambda vec: (max(abs(v) for v in vec), vec))


def _odd_negative_part(vec, negative):
    """The product of the eigenvalues to the powers vec has sign -1."""
    return sum(v for v, neg in zip(vec, negative) if neg) % 2 == 1


def jordan_tensor_blocks(lam, ell, mu, m):
    """Jordan structure of J_lam(ell) (x) J_mu(m): blocks J_{lam mu}(ell+m-2w+1).

    w runs over 1..min(ell, m); the sizes sum to ell*m.
    """
    if lam == 0 or mu == 0:
        raise DomainError("tensor block decomposition requires nonzero eigenvalues")
    if ell < 1 or m < 1:
        raise DomainError("block sizes must be positive")
    out = [(lam * mu, ell + m - 2 * w + 1) for w in range(1, min(ell, m) + 1)]
    assert sum(size for _, size in out) == ell * m
    return out


def jordan_single_block(lam, size):
    """The size x size Jordan block with eigenvalue lam."""
    j = np.zeros((size, size), dtype=complex)
    for i in range(size):
        j[i, i] = lam
        if i + 1 < size:
            j[i, i + 1] = 1.0
    return j
