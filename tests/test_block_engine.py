"""Block-built to_matrix and bracket against the word-by-word sparse path.

The references in util.py act on one basis word or generator image at a time
through the sparse `apply`; the library builds the same maps from per-degree
Kronecker blocks.  Exact inputs must agree to the last rational digit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lielog.automorphisms import GradedAut
from lielog.derivations import GradedDerivation
from lielog.scalars import COMPLEX, matrices_close, matrix_max_abs

from util import (
    bracket_by_images,
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
