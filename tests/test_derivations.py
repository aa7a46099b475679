"""Derivations: Leibniz, exponentials, omega, inner, conjugation identity."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from lielog import rational_linalg
from lielog.automorphisms import GradedAut
from lielog.derivations import (
    GradedDerivation,
    annihilates_omega,
    conjugation_defect,
    exp_derivation,
    extend,
    inner,
    leibniz_defect,
)
from lielog.free_lie import LiePoly, bracketing_kernel, lyndon_basis, tensor_to_lie
from lielog.logarithm import bch_series
from lielog.magnus import dehn_fixtures, theta_exp, total_johnson
from lielog.scalars import COMPLEX, EXACT, DomainError, as_matrix, eye_matrix, matrices_close, zeros_matrix
from lielog.spectral import principal_log
from lielog.tensor_algebra import (
    TruncatedTensor,
    basis_dimension,
    column_tensors,
    mul,
    words_of_degree,
)

from util import random_block, random_ia_derivation, random_lie_poly, seeded, word_basis


def euler_derivation(n, k):
    return GradedDerivation(n, k, {1: eye_matrix(n, EXACT)})


def test_extend_examples():
    zero = extend([TruncatedTensor.zero(2, 3) for _ in range(2)])
    assert zero.is_zero(0)
    eul = extend([TruncatedTensor.generator(2, 3, i + 1) for i in range(2)])
    w = TruncatedTensor(2, 3, {(1, 2): 1})
    assert eul.apply(w) == w.scale(2)
    single = extend(
        [
            TruncatedTensor(2, 3, {(1, 2): 1, (2, 1): -1}),
            TruncatedTensor.zero(2, 3),
        ]
    )
    assert sorted(single.d) == [2]


def test_extend_rejects_constant_terms():
    with pytest.raises(DomainError):
        extend([TruncatedTensor.unit(2, 3), TruncatedTensor.zero(2, 3)])


def test_leibniz_on_all_basis_word_pairs():
    rng = seeded(1)
    n, k = 2, 4
    deriv = random_ia_derivation(rng, n, k) + euler_derivation(n, k)
    words = [w for w in word_basis(n, k) if w]
    for w1, w2 in itertools.product(words, repeat=2):
        if len(w1) + len(w2) >= k:
            continue
        assert leibniz_defect(deriv, w1, w2).is_zero(0)


def test_exp_zero_and_ia_example():
    assert exp_derivation(GradedDerivation.zero(2, 3)).is_identity(0)
    d2 = zeros_matrix(4, 2, EXACT)
    d2[1, 0] = Fraction(1)
    d2[2, 0] = Fraction(-1)
    d = GradedDerivation(2, 3, {2: d2})
    e = exp_derivation(d)
    assert e.generator_images()[0] == TruncatedTensor(
        2, 3, {(1,): 1, (1, 2): 1, (2, 1): -1}
    )


def test_exp_d1_only_matches_splitting():
    b = np.array([[0.3, 0.1], [-0.2, 0.5]], dtype=complex)
    d = GradedDerivation(2, 4, {1: b}, backend=COMPLEX)
    e = exp_derivation(d)
    import scipy.linalg

    expected = GradedAut.splitting(scipy.linalg.expm(b), 4)
    assert e.close_to(expected, 1e-12)
    assert not e.u  # no higher blocks


@pytest.mark.parametrize("name", sorted(dehn_fixtures(1)))
def test_complex_exp_matches_generator_image_round_trip(name):
    """The complex exponential built from the generator columns of expm as
    blocks equals, bit for bit, the same columns turned into generator image
    tensors and read back."""
    phi = total_johnson(theta_exp(2, 7), dehn_fixtures(1)[name]).to_complex()
    d = GradedDerivation(2, 7, {1: principal_log(phi.A), **phi.u}, COMPLEX)
    full = scipy.linalg.expm(d.to_matrix())
    blocks = {m: full[basis_dimension(2, m) :][: 2**m, 1:3] for m in range(1, 7)}
    expected = GradedAut.from_generator_images(column_tensors(blocks, 2, 7, COMPLEX))
    assert exp_derivation(d) == expected


def test_exp_multiplicative():
    rng = seeded(2)
    d = random_ia_derivation(rng, 2, 4)
    e = exp_derivation(d)
    from util import random_tensor

    a = random_tensor(rng, 2, 4)
    b = random_tensor(rng, 2, 4)
    assert e.apply(mul(a, b)) == mul(e.apply(a), e.apply(b))


def test_exp_non_nilpotent_exact_rejected():
    d = euler_derivation(2, 3)
    with pytest.raises(DomainError):
        exp_derivation(d)


def test_exp_bch_consistency():
    rng = seeded(3)
    for _ in range(4):
        x = random_ia_derivation(rng, 2, 4)
        y = random_ia_derivation(rng, 2, 4)
        z = bch_series(x, y).derivation
        assert exp_derivation(z) == exp_derivation(x).compose(exp_derivation(y))


def test_annihilates_omega():
    assert annihilates_omega(GradedDerivation.zero(2, 3), 1)
    assert not annihilates_omega(euler_derivation(2, 3), 1)
    sp = GradedDerivation(2, 3, {1: as_matrix([[1, 0], [0, -1]], EXACT)})
    assert annihilates_omega(sp, 1)


def test_inner():
    assert inner(LiePoly.zero(2, 3)).is_zero(0)
    d = inner(LiePoly.generator(2, 3, 1))
    x2 = TruncatedTensor.generator(2, 3, 2)
    assert d.apply(x2) == TruncatedTensor(2, 3, {(1, 2): 1, (2, 1): -1})
    rng = seeded(4)
    z = random_lie_poly(rng, 2, 4)
    dz = inner(z)
    for w1, w2 in (((1,), (2,)), ((1, 2), (1,))):
        assert leibniz_defect(dz, w1, w2).is_zero(0)


def test_inner_annihilates_omega_in_low_truncation():
    # ad(z)(omega) = [z, omega] lands in degree >= 3; at k = 4 only degree-3
    # parts survive and the bracket with omega is generally nonzero, so only
    # check the defining commutator property here
    rng = seeded(5)
    z = random_lie_poly(rng, 2, 4)
    d = inner(z)
    from lielog.free_lie import lie_to_tensor

    t = lie_to_tensor(z)
    w = TruncatedTensor(2, 4, {(1, 2): 1})
    assert d.apply(w) == mul(t, w) - mul(w, t)


def _random_omega_derivation(rng, k=5):
    """Element of Der_omega with primitive images: an sp(2) degree-1 part
    plus a degree-(k-2) block built from the bracketing kernel."""
    a, b, c = (Fraction(rng.randint(-2, 2)) for _ in range(3))
    d1 = as_matrix([[a, b], [c, -a]], EXACT)
    blocks = {1: d1}
    m = k - 2
    kernel = bracketing_kernel(1, m)
    if kernel:
        total = None
        for elem in kernel:
            deriv = _derivation_from_kernel_element(elem, 2, k, m)
            piece = deriv.block(m) * Fraction(rng.randint(-2, 2))
            total = piece if total is None else total + piece
        from lielog.scalars import matrix_max_abs

        if matrix_max_abs(total) != 0:
            blocks[m] = total
    return GradedDerivation(2, k, blocks)


def test_derivation_bracket_closure_under_omega_and_primitivity():
    # Der_omega with primitive images is closed under the bracket
    rng = seeded(6)
    from lielog.tensor_algebra import is_primitive

    nontrivial = 0
    for _ in range(6):
        d1 = _random_omega_derivation(rng)
        d2 = _random_omega_derivation(rng)
        assert annihilates_omega(d1, 1) and annihilates_omega(d2, 1)
        b = d1.bracket(d2)
        assert all(is_primitive(img) for img in b.generator_images())
        assert annihilates_omega(b, 1)
        if not b.is_zero(0):
            nontrivial += 1
    assert nontrivial >= 3


def test_conjugation_defect_trivial_cases():
    rng = seeded(7)
    x = random_ia_derivation(rng, 2, 4)
    zero = GradedDerivation.zero(2, 4)
    assert conjugation_defect(x, zero).is_zero(0)
    # commuting pair: Y = 2X
    y = x.scale(2)
    assert conjugation_defect(x, y).is_zero(0)


def test_conjugation_defect_dual_path_random():
    rng = seeded(8)
    for _ in range(6):
        x = random_ia_derivation(rng, 2, 4)
        y = random_ia_derivation(rng, 2, 4)
        # conjugation_defect asserts equality of the two routes internally
        value = conjugation_defect(x, y)
        ey = exp_derivation(y)
        ey_inv = exp_derivation(y.scale(-1))
        images = []
        for i in range(2):
            xi = TruncatedTensor.generator(2, 4, i + 1)
            images.append(x.apply(xi) - ey_inv.apply(x.apply(ey.apply(xi))))
        assert value == extend(images)


def test_conjugation_defect_requires_ia():
    x = euler_derivation(2, 3)
    with pytest.raises(DomainError):
        conjugation_defect(x, x)


def _kernel_membership_setup(g, m):
    n = 2 * g
    kernel = bracketing_kernel(g, m)
    lyndon_m = lyndon_basis(n, m + 1)[m]
    all_pairs = [(i, w) for i in range(1, n + 1) for w in lyndon_m]
    all_index = {p: i for i, p in enumerate(all_pairs)}
    kmat = zeros_matrix(len(all_pairs), max(len(kernel), 1), EXACT)
    for j, elem in enumerate(kernel):
        for p, c in elem.items():
            kmat[all_index[p], j] = c
    return kernel, all_pairs, all_index, kmat


def _dual_vector(deriv, n, all_pairs, all_index):
    # Poincare duality H* ~ H from omega: x_{2i}* -> x_{2i-1}, x_{2i-1}* -> -x_{2i}
    vec = zeros_matrix(len(all_pairs), 1, EXACT)
    for col in range(n):
        img = deriv.generator_images()[col]
        if img.is_zero(0):
            continue
        lie = tensor_to_lie(img)
        gen = col + 1
        if gen % 2 == 1:
            dual_gen, sign = gen + 1, Fraction(-1)
        else:
            dual_gen, sign = gen - 1, Fraction(1)
        for w, c in lie.coeffs.items():
            vec[all_index[(dual_gen, w)], 0] += sign * c
    return vec


def _derivation_from_kernel_element(elem, n, k, m):
    """Invert the duality: an H (x) L_m tensor becomes a Hom(H, L_m) block."""
    from lielog.free_lie import lie_to_tensor

    images = [TruncatedTensor.zero(n, k) for _ in range(n)]
    for (j, w), c in elem.items():
        t = lie_to_tensor(LiePoly(n, k, {w: 1}))
        if j % 2 == 0:
            gen, sign = j - 1, Fraction(-1)  # pair (x_{2i}, ...) came from x_{2i-1}
        else:
            gen, sign = j + 1, Fraction(1)
        images[gen - 1] = images[gen - 1] + t.scale(sign * c)
    return extend(images)


def test_single_block_membership_in_bracketing_kernel():
    """A single-block Lie derivation annihilates omega iff its symplectic
    dual lies in the bracketing kernel."""
    rng = seeded(9)
    g, m = 1, 3
    n, k = 2 * g, m + 2
    kernel, all_pairs, all_index, kmat = _kernel_membership_setup(g, m)
    assert len(kernel) >= 1

    from util import random_primitive_block

    # random primitive single-block derivations: membership tracks omega
    negatives = 0
    for _ in range(25):
        blk = random_primitive_block(rng, n, k, m)
        if blk is None:
            continue
        deriv = GradedDerivation(n, k, {m: blk})
        if deriv.is_zero(0):
            continue
        vec = _dual_vector(deriv, n, all_pairs, all_index)
        member = _in_column_space(kmat, vec)
        kills = annihilates_omega(deriv, g)
        assert member == kills
        negatives += 0 if kills else 1
    assert negatives >= 5

    # constructed members of the kernel must annihilate omega (the True side)
    for elem in kernel:
        deriv = _derivation_from_kernel_element(elem, n, k, m)
        assert not deriv.is_zero(0)
        assert annihilates_omega(deriv, g)
        from lielog.tensor_algebra import is_primitive

        assert all(is_primitive(img) for img in deriv.generator_images())
        # duality round trip lands back on the original kernel vector
        vec = _dual_vector(deriv, n, all_pairs, all_index)
        expected = zeros_matrix(len(all_pairs), 1, EXACT)
        for p, c in elem.items():
            expected[all_index[p], 0] = c
        assert all(a == b for a, b in zip(vec.flat, expected.flat))


def _in_column_space(mat, vec):
    aug = np.concatenate([mat, vec], axis=1)
    return rational_linalg.rank(aug) == rational_linalg.rank(mat)
