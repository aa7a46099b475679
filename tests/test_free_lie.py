"""Lyndon bases, brackets, tensor embedding, omega, bracketing kernel."""

from fractions import Fraction

import numpy as np
import pytest

from lielog import rational_linalg
from lielog.free_lie import (
    LiePoly,
    bracket,
    bracketing_kernel,
    bracketing_matrix,
    is_lyndon,
    lie_to_tensor,
    lyndon_basis,
    lyndon_words,
    necklace_count,
    omega,
    omega_tensor,
    standard_factorization,
    tensor_to_lie,
)
from lielog.scalars import EXACT, DomainError
from lielog.tensor_algebra import TruncatedTensor, mul, words_of_degree

from util import coproduct, dict_sub, outer, random_lie_poly, seeded


def test_lyndon_counts_small():
    basis = lyndon_basis(2, 5)
    assert [len(basis[m]) for m in (1, 2, 3, 4)] == [2, 1, 2, 3]
    assert basis[1] == [(1,), (2,)]
    assert basis[2] == [(1, 2)]


def test_lyndon_against_necklace_formula():
    for n in (2, 3):
        words = lyndon_words(n, 6)
        for m in range(1, 7):
            assert len(words[m]) == necklace_count(n, m)


def test_lyndon_words_are_lyndon():
    for m, words in lyndon_words(3, 5).items():
        for w in words:
            assert is_lyndon(w)
            assert len(w) == m


def test_standard_factorization():
    assert standard_factorization((1, 2)) == ((1,), (2,))
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))


def _primitive_dimension(n, k, m):
    """Brute-force dimension of the primitive subspace in degree m."""
    words = words_of_degree(n, m)
    unitt = TruncatedTensor.unit(n, k)
    rows = {}
    cols = []
    for w in words:
        t = TruncatedTensor(n, k, {w: 1})
        defect = dict_sub(dict_sub(coproduct(t), outer(unitt, t)), outer(t, unitt))
        cols.append(defect)
        for key in defect:
            rows.setdefault(key, len(rows))
    if not rows:
        return len(words)
    mat = np.zeros((len(rows), len(words)))
    for j, coeffs in enumerate(cols):
        for key, c in coeffs.items():
            mat[rows[key], j] = float(c)
    rank = np.linalg.matrix_rank(mat)
    return len(words) - rank


@pytest.mark.parametrize("n,k", [(2, 5), (2, 6), (3, 4), (3, 5), (3, 6)])
def test_primitive_dimension_matches_lyndon_count(n, k):
    basis = lyndon_basis(n, k)
    for m in range(1, k):
        assert _primitive_dimension(n, k, m) == len(basis[m])


def test_bracket_alternating_and_generator():
    a = random_lie_poly(seeded(1), 2, 4)
    assert bracket(a, a).is_zero(0)
    x1 = LiePoly.generator(2, 4, 1)
    x2 = LiePoly.generator(2, 4, 2)
    assert bracket(x1, x2) == LiePoly(2, 4, {(1, 2): 1})


def test_jacobi_identity_random():
    rng = seeded(2)
    for _ in range(8):
        a = random_lie_poly(rng, 2, 4)
        b = random_lie_poly(rng, 2, 4)
        c = random_lie_poly(rng, 2, 4)
        jac = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert jac.is_zero(0)


def test_bilinearity():
    rng = seeded(3)
    a, b, c = (random_lie_poly(rng, 2, 4) for _ in range(3))
    assert bracket(a + b, c) == bracket(a, c) + bracket(b, c)
    assert bracket(a.scale(3), c) == bracket(a, c).scale(3)


def test_embedding_roundtrip():
    rng = seeded(4)
    x1 = LiePoly.generator(2, 3, 1)
    assert lie_to_tensor(x1) == TruncatedTensor.generator(2, 3, 1)
    comm = LiePoly(2, 3, {(1, 2): 1})
    expected = TruncatedTensor(2, 3, {(1, 2): 1, (2, 1): -1})
    assert lie_to_tensor(comm) == expected
    for _ in range(10):
        a = random_lie_poly(rng, 2, 5)
        assert tensor_to_lie(lie_to_tensor(a)) == a
    for _ in range(5):
        a = random_lie_poly(rng, 3, 4)
        assert tensor_to_lie(lie_to_tensor(a)) == a


def test_lie_to_tensor_is_lie_map():
    rng = seeded(5)
    for _ in range(8):
        a = random_lie_poly(rng, 2, 4)
        b = random_lie_poly(rng, 2, 4)
        ta, tb = lie_to_tensor(a), lie_to_tensor(b)
        assert lie_to_tensor(bracket(a, b)) == mul(ta, tb) - mul(tb, ta)


def test_tensor_to_lie_rejects_non_primitive():
    with pytest.raises(DomainError):
        tensor_to_lie(TruncatedTensor(2, 3, {(1, 2): 1}))


def test_omega():
    assert omega(1, 3) == LiePoly(2, 3, {(1, 2): 1})
    assert omega(2, 3) == LiePoly(4, 3, {(1, 2): 1, (3, 4): 1})
    assert omega_tensor(1, 3) == TruncatedTensor(2, 3, {(1, 2): 1, (2, 1): -1})
    with pytest.raises(DomainError):
        omega(1, 2)


def test_bracketing_kernel_genus1_degree1():
    kernel = bracketing_kernel(1, 1)
    assert len(kernel) == 3  # symmetric part of H (x) H


@pytest.mark.parametrize("g,k", [(1, 1), (1, 2), (1, 3), (2, 1)])
def test_bracketing_kernel_rank_identity(g, k):
    pairs, target, mat = bracketing_matrix(g, k)
    rank = rational_linalg.rank(mat)
    # the bracketing map is onto the next graded piece for free Lie algebras
    assert rank == len(target)
    kernel = bracketing_kernel(g, k)
    assert len(kernel) == len(pairs) - len(target)


def test_bracketing_kernel_elements_map_to_zero():
    pairs, target, mat = bracketing_matrix(1, 2)
    pair_index = {p: i for i, p in enumerate(pairs)}
    for elem in bracketing_kernel(1, 2):
        vec = np.empty(len(pairs), dtype=object)
        vec[:] = Fraction(0)
        for pair, c in elem.items():
            vec[pair_index[pair]] = c
        image = mat @ vec
        assert all(x == 0 for x in image)


def test_rank_one_algebra():
    # a single generator: the free Lie algebra is one-dimensional
    basis = lyndon_basis(1, 4)
    assert basis[1] == [(1,)] and basis[2] == [] and basis[3] == []
    x = LiePoly.generator(1, 4, 1)
    assert bracket(x, x).is_zero(0)


def test_tensor_to_lie_complex_backend():
    rng = seeded(11)
    p = random_lie_poly(rng, 2, 4)
    t = lie_to_tensor(p).to_complex()
    back = tensor_to_lie(t)
    assert back.backend == "complex"
    diff = (back - p.to_complex()).max_abs()
    assert diff < 1e-12
