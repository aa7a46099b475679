"""Block-built to_matrix and bracket against the word-by-word sparse path, and
the mode-product engine against explicit Kronecker products.

The references in util.py act on one basis word or generator image at a time
through the sparse `apply`; the library builds the same maps from per-degree
Kronecker blocks.  Exact inputs must agree to the last rational digit.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lielog.automorphisms import GradedAut
from lielog.derivations import GradedDerivation
from lielog.scalars import COMPLEX, EXACT, eye_matrix, matrices_close, matrix_max_abs
from lielog.tensor_algebra import lift_apply, mode_apply, partition_sum

from util import (
    bracket_by_images,
    kron_power,
    random_block,
    random_invertible_exact,
    seeded,
    word_by_word_matrix,
)

EXACT_SIZES = [(2, k) for k in range(3, 8)] + [(3, k) for k in range(3, 6)] + [(4, 4)]


def random_blocks(rng, n, k, low, skip=()):
    """Exact blocks of degrees low..k-1, absent at the degrees in skip."""
    blocks = {}
    for m in range(low, k):
        blk = None if m in skip else random_block(rng, n, k, m)
        if blk is not None:
            blocks[m] = blk
    return blocks


def random_derivation(rng, n, k, skip=()):
    """Exact derivation with a nonzero d_1 unless 1 is in skip."""
    blocks = random_blocks(rng, n, k, 2, skip)
    if 1 not in skip:
        blocks[1] = random_invertible_exact(rng, n)
    return GradedDerivation(n, k, blocks)


@pytest.mark.parametrize("n, k", EXACT_SIZES)
def test_block_engine_matches_word_path_exact(n, k):
    rng = seeded(100 * n + k)
    # no absent block; absent u_2 / d_2 and d_1 = 0; only the top block
    for skip in ((), (1, 2), (1,) + tuple(range(2, k - 1))):
        phi = GradedAut(n, k, random_invertible_exact(rng, n), random_blocks(rng, n, k, 2, skip))
        assert matrices_close(phi.to_matrix(), word_by_word_matrix(phi), 0)
        d = random_derivation(rng, n, k, skip)
        e = random_derivation(rng, n, k)
        assert matrices_close(d.to_matrix(), word_by_word_matrix(d), 0)
        assert d.bracket(e) == bracket_by_images(d, e)
        assert e.bracket(d) == bracket_by_images(e, d)


def test_block_engine_identity_and_zero():
    ident = GradedAut.identity(2, 4)
    assert matrices_close(ident.to_matrix(), word_by_word_matrix(ident), 0)
    zero = GradedDerivation.zero(2, 4)
    assert matrices_close(zero.to_matrix(), word_by_word_matrix(zero), 0)
    d = random_derivation(seeded(1), 2, 4)
    assert d.bracket(zero).is_zero(0) and zero.bracket(d).is_zero(0)


@pytest.mark.parametrize("n, k", [(2, 5), (3, 4)])
def test_bracket_is_a_lie_bracket_exact(n, k):
    rng = seeded(7 * n + k)
    for _ in range(3):
        d, e, f = (random_derivation(rng, n, k) for _ in range(3))
        assert d.bracket(e) == -e.bracket(d)
        jacobi = d.bracket(e.bracket(f)) + e.bracket(f.bracket(d)) + f.bracket(d.bracket(e))
        assert jacobi.is_zero(0)
        dm, em = d.to_matrix(), e.to_matrix()
        assert matrices_close(d.bracket(e).to_matrix(), dm @ em - em @ dm, 0)


def conjugated_jordan(gen, n):
    """P J P^-1 for a random complex Jordan form J and a random complex P."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(int(gen.integers(1, n - sum(sizes) + 1)))
    jordan = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        lam = complex(*gen.uniform(-2, 2, size=2))
        for i in range(start, start + size):
            jordan[i, i] = lam
            if i + 1 < start + size:
                jordan[i, i + 1] = 1
        start += size
    p = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    return p @ jordan @ np.linalg.inv(p)


def complex_blocks(gen, n, k, low):
    """Complex blocks of degrees low..k-1, each absent with probability 1/3."""
    return {
        m: gen.normal(size=(n**m, n)) + 1j * gen.normal(size=(n**m, n))
        for m in range(low, k)
        if gen.random() > 1 / 3
    }


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 4), (2, 6), (3, 4)]), st.integers(0, 10**6))
def test_block_engine_matches_word_path_complex(size, seed):
    n, k = size
    gen = np.random.default_rng(seed)
    phi = GradedAut(n, k, conjugated_jordan(gen, n), complex_blocks(gen, n, k, 2), COMPLEX)
    ref = word_by_word_matrix(phi)
    assert matrices_close(phi.to_matrix(), ref, 1e-12 * matrix_max_abs(ref))

    d = GradedDerivation(n, k, {1: conjugated_jordan(gen, n), **complex_blocks(gen, n, k, 2)}, COMPLEX)
    e = GradedDerivation(n, k, complex_blocks(gen, n, k, 1), COMPLEX)
    dm, em = word_by_word_matrix(d), word_by_word_matrix(e)
    assert matrices_close(d.to_matrix(), dm, 1e-12 * matrix_max_abs(dm))
    # roundoff in the bracket scales with its terms, bounded by |D||E| + |E||D|
    scale = matrix_max_abs(np.abs(dm) @ np.abs(em) + np.abs(em) @ np.abs(dm))
    assert d.bracket(e).close_to(bracket_by_images(d, e), 1e-12 * scale)


def engine_matrix(gen, rows, cols, exact):
    if exact:
        entries = [[Fraction(int(gen.integers(-3, 4)), int(gen.integers(1, 4))) for _ in range(cols)]
                   for _ in range(rows)]
        return np.array(entries, dtype=object).reshape(rows, cols)
    return gen.normal(size=(rows, cols)) + 1j * gen.normal(size=(rows, cols))


def assert_engine_close(got, terms, exact):
    """got against the sum of the explicit (kron, x) products in terms: equal on
    exact input, and within 1e-12 of the size of sum |kron| |x| on complex."""
    want = sum(kron @ x for kron, x in terms)
    if exact:
        assert matrices_close(got, want, 0)
    else:
        scale = matrix_max_abs(sum(np.abs(kron) @ np.abs(x) for kron, x in terms))
        assert matrices_close(got, want, 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.sets(st.integers(1, 3)),
    st.sampled_from([1, 3]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_mode_engine_matches_explicit_kronecker_products(n, j, degrees, cols, exact, seed):
    gen = np.random.default_rng(seed)
    backend = EXACT if exact else COMPLEX
    x = engine_matrix(gen, n**j, cols, exact)
    factors = {i: engine_matrix(gen, n**i, n, exact) for i in degrees}
    top = j + 2 if n < 3 else min(j + 2, 5)

    def lifted(mat, pos):
        return np.kron(np.kron(eye_matrix(n**pos, backend), mat), eye_matrix(n ** (j - 1 - pos), backend))

    for mat in factors.values():
        for pos in range(j):
            assert_engine_close(mode_apply(mat, x, pos), [(lifted(mat, pos), x)], exact)
        assert_engine_close(lift_apply(mat, x, j), [(lifted(mat, pos), x) for pos in range(j)], exact)

    # partition sum: every composition of every degree m into j present parts
    sums = partition_sum(factors, x, j, top)
    expected = {}
    for comp in itertools.product(sorted(factors), repeat=j):
        if sum(comp) <= top:
            kron = functools.reduce(np.kron, [factors[i] for i in comp])
            expected.setdefault(sum(comp), []).append((kron, x))
    assert set(sums) == set(expected)
    for m, terms in expected.items():
        assert_engine_close(sums[m], terms, exact)

    # a lone degree-1 factor M gives M^(x j) x
    mat = engine_matrix(gen, n, n, exact)
    lone = partition_sum({1: mat}, x, j, j)
    assert set(lone) == {j}
    assert_engine_close(lone[j], [(kron_power(mat, j, backend), x)], exact)
