"""Graded automorphisms: apply, compose, inverse, splitting, predicates."""

from fractions import Fraction

import numpy as np
import pytest

from lielog.automorphisms import (
    GradedAut,
    gl_action_on_hom,
    matrix_inverse,
    transporter,
)
from lielog.magnus import MagnusExpansion, dehn_fixtures, theta_exp, total_johnson
from lielog.scalars import (
    COMPLEX,
    EXACT,
    DimensionMismatch,
    DomainError,
    as_matrix,
    eye_matrix,
    matrices_close,
    matrix_max_abs,
    zeros_matrix,
)
from lielog.tensor_algebra import TruncatedTensor, mul, normed_log, tensor_exp, tensor_log

from util import (
    inverse_by_compose,
    kron_power,
    oracle_is_primitive,
    random_ia_aut,
    random_ia_hopf_aut,
    random_invertible_exact,
    random_tensor,
    seeded,
    transporter_by_degrees,
)


def sample_aut(rng, n, k):
    """Random exact automorphism with invertible degree-1 part."""
    ia = random_ia_aut(rng, n, k)
    a = random_invertible_exact(rng, n)
    return ia.compose(GradedAut.splitting(a, k))


def compose_oracle(phi, psi):
    """Compose by acting on every basis word; reconstruct (A, u) from images."""
    images = [
        phi.apply(psi.generator_images()[i]) for i in range(phi.n)
    ]
    return GradedAut.from_generator_images(images)


def test_identity_applies():
    ident = GradedAut.identity(2, 4)
    rng = seeded(0)
    t = random_tensor(rng, 2, 4)
    assert ident.apply(t) == t


def test_generator_formula_example():
    # A = I, u_2(X1) = X1X2, u_2(X2) = 0: X1 -> X1 + X1X2
    u2 = zeros_matrix(4, 2, EXACT)
    u2[1, 0] = Fraction(1)  # degree-2 words in order (1,1),(1,2),(2,1),(2,2)
    phi = GradedAut(2, 3, eye_matrix(2, EXACT), {2: u2})
    assert phi.generator_images()[0] == TruncatedTensor(2, 3, {(1,): 1, (1, 2): 1})
    assert phi.generator_images()[1] == TruncatedTensor.generator(2, 3, 2)


def test_apply_is_multiplicative():
    rng = seeded(1)
    for _ in range(8):
        phi = sample_aut(rng, 2, 4)
        a = random_tensor(rng, 2, 4)
        b = random_tensor(rng, 2, 4)
        assert phi.apply(mul(a, b)) == mul(phi.apply(a), phi.apply(b))


def test_compose_identity_laws():
    rng = seeded(2)
    ident = GradedAut.identity(2, 4)
    phi = sample_aut(rng, 2, 4)
    assert phi.compose(ident) == phi
    assert ident.compose(phi) == phi


def test_compose_matches_action_oracle():
    rng = seeded(3)
    for n, k, reps in ((2, 4, 6), (3, 4, 3), (2, 5, 3)):
        for _ in range(reps):
            phi = sample_aut(rng, n, k)
            psi = sample_aut(rng, n, k)
            assert phi.compose(psi) == compose_oracle(phi, psi)


def test_printed_degree_formulas():
    # w2 = u2 + A v2; w3 = u3 + (u2 (x) 1 + 1 (x) u2) A v2 + A v3;
    # w4 = u4 + (u3 (x) 1 + 1 (x) u3 + u2 (x) u2) A v2
    #        + (u2 (x) 1 (x) 1 + 1 (x) u2 (x) 1 + 1 (x) 1 (x) u2) A v3 + A v4
    rng = seeded(4)
    n, k = 2, 5
    for _ in range(4):
        phi = sample_aut(rng, n, k)
        psi = sample_aut(rng, n, k)
        comp = phi.compose(psi)
        a = phi.A
        a_inv = matrix_inverse(a, EXACT)
        ident = eye_matrix(n, EXACT)

        def conj(v_ell, ell):
            return kron_power(a, ell, EXACT) @ v_ell @ a_inv

        u2, u3, u4 = phi.u_block(2), phi.u_block(3), phi.u_block(4)
        v2, v3, v4 = psi.u_block(2), psi.u_block(3), psi.u_block(4)
        w2 = u2 + conj(v2, 2)
        w3 = u3 + (np.kron(u2, ident) + np.kron(ident, u2)) @ conj(v2, 2) + conj(v3, 3)
        w4 = (
            u4
            + (np.kron(u3, ident) + np.kron(ident, u3) + np.kron(u2, u2)) @ conj(v2, 2)
            + (
                np.kron(np.kron(u2, ident), ident)
                + np.kron(np.kron(ident, u2), ident)
                + np.kron(np.kron(ident, ident), u2)
            )
            @ conj(v3, 3)
            + conj(v4, 4)
        )
        assert matrices_close(comp.u_block(2), w2, 0)
        assert matrices_close(comp.u_block(3), w3, 0)
        assert matrices_close(comp.u_block(4), w4, 0)


def test_inverse():
    rng = seeded(5)
    ident = GradedAut.identity(2, 4)
    assert ident.inverse() == ident
    a = random_invertible_exact(rng, 2)
    sp = GradedAut.splitting(a, 4)
    assert sp.inverse() == GradedAut.splitting(matrix_inverse(a, EXACT), 4)
    for _ in range(6):
        phi = sample_aut(rng, 2, 4)
        assert phi.compose(phi.inverse()).is_identity(0)
        assert phi.inverse().compose(phi).is_identity(0)


def test_group_axioms_random_triples():
    rng = seeded(6)
    for _ in range(5):
        a = sample_aut(rng, 2, 4)
        b = sample_aut(rng, 2, 4)
        c = sample_aut(rng, 2, 4)
        assert a.compose(b.compose(c)) == a.compose(b).compose(c)


def test_splitting():
    rng = seeded(7)
    assert GradedAut.splitting(eye_matrix(2, EXACT), 4).is_identity(0)
    for _ in range(5):
        a = random_invertible_exact(rng, 2)
        b = random_invertible_exact(rng, 2)
        lhs = GradedAut.splitting(a @ b, 4)
        rhs = GradedAut.splitting(a, 4).compose(GradedAut.splitting(b, 4))
        assert lhs == rhs
        assert GradedAut.splitting(a, 4).is_hopf()


def test_splitting_acts_by_tensor_powers():
    rng = seeded(8)
    a = random_invertible_exact(rng, 2)
    sp = GradedAut.splitting(a, 4)
    mat = sp.to_matrix()
    # degree-2 block must equal a (x) a
    idx = 1 + 2  # constant + two degree-1 words
    block = mat[idx : idx + 4, idx : idx + 4]
    assert matrices_close(block, np.kron(a, a), 0)


def test_ia_decompose():
    rng = seeded(9)
    a = random_invertible_exact(rng, 2)
    sp = GradedAut.splitting(a, 4)
    ia, part = sp.ia_decompose()
    assert ia.is_identity(0)
    assert matrices_close(part, a, 0)
    phi = random_ia_hopf_aut(rng, 2, 4)
    ia, part = phi.ia_decompose()
    assert ia == phi
    assert matrices_close(part, eye_matrix(2, EXACT), 0)
    for _ in range(5):
        psi = sample_aut(rng, 2, 4)
        ia, part = psi.ia_decompose()
        assert ia.is_ia(0)
        assert ia.compose(GradedAut.splitting(part, 4)) == psi


def test_is_hopf_examples():
    u2 = zeros_matrix(4, 2, EXACT)
    u2[1, 0] = Fraction(1)  # X1X2: not primitive
    phi = GradedAut(2, 3, eye_matrix(2, EXACT), {2: u2})
    assert not phi.is_hopf()
    u2p = zeros_matrix(4, 2, EXACT)
    u2p[1, 0] = Fraction(1)
    u2p[2, 0] = Fraction(-1)  # X1X2 - X2X1: primitive
    phi2 = GradedAut(2, 3, eye_matrix(2, EXACT), {2: u2p})
    assert phi2.is_hopf()


def _oracle_is_hopf(phi):
    return all(oracle_is_primitive(img) for img in phi.generator_images())


@pytest.mark.parametrize("k", [5, 6, 7])
def test_is_hopf_matches_coproduct_oracle_on_johnson_images(k):
    theta = theta_exp(2, k)
    for endo in dehn_fixtures(1).values():
        phi = total_johnson(theta, endo)
        assert phi.is_hopf() == _oracle_is_hopf(phi)


def test_is_hopf_matches_coproduct_oracle_on_perturbed_blocks():
    rng = seeded(16)
    decisions = set()
    for _ in range(10):
        phi = random_ia_hopf_aut(rng, rng.choice([2, 3]), 4)
        blocks = dict(phi.u)
        m = rng.choice(sorted(blocks))
        blocks[m] = blocks[m].copy()
        blocks[m][rng.randrange(blocks[m].shape[0]), rng.randrange(phi.n)] += 1
        bumped = GradedAut(phi.n, phi.k, phi.A, blocks)
        for aut in (phi, bumped):
            decisions.add(aut.is_hopf())
            assert aut.is_hopf() == _oracle_is_hopf(aut)
    assert decisions == {True, False}


def test_is_hopf_complex_tolerance():
    phi = random_ia_hopf_aut(seeded(17), 2, 5).to_complex()
    assert phi.is_hopf(1e-9)
    for eps, expected in ((1e-6, False), (1e-12, True)):
        blocks = {m: blk.copy() for m, blk in phi.u.items()}
        blocks[3][1, 0] += eps  # the word X1X1X2 alone is not Lie
        assert GradedAut(2, 5, phi.A, blocks, COMPLEX).is_hopf(1e-9) is expected


def test_hopf_closure_under_compose_and_inverse():
    rng = seeded(10)
    for _ in range(5):
        a = random_ia_hopf_aut(rng, 2, 4)
        b = random_ia_hopf_aut(rng, 2, 4)
        assert a.compose(b).is_hopf()
        assert a.inverse().is_hopf()


def test_preserves_omega():
    sym = as_matrix([[0, 1], [-1, 0]], EXACT)
    assert GradedAut.splitting(sym, 3).preserves_omega(1)
    assert not GradedAut.splitting(as_matrix([[2, 0], [0, 1]], EXACT), 3).preserves_omega(1)
    assert GradedAut.identity(2, 3).preserves_omega(1)


def test_gl_action_on_hom():
    rng = seeded(11)
    n, j = 2, 2
    f = zeros_matrix(n**j, n, EXACT)
    f[1, 0] = Fraction(2)
    f[2, 1] = Fraction(-1)
    assert matrices_close(gl_action_on_hom(eye_matrix(n, EXACT), f, j), f, 0)
    for _ in range(5):
        a = random_invertible_exact(rng, n)
        b = random_invertible_exact(rng, n)
        lhs = gl_action_on_hom(a @ b, f, j)
        rhs = gl_action_on_hom(a, gl_action_on_hom(b, f, j), j)
        assert matrices_close(lhs, rhs, 0)


def test_gl_action_matches_conjugation():
    # ia_decompose(s(A) Phi s(A)^-1) carries u_m to the Hom action of A
    rng = seeded(12)
    for _ in range(5):
        phi = random_ia_hopf_aut(rng, 2, 4)
        a = random_invertible_exact(rng, 2)
        sp = GradedAut.splitting(a, 4)
        conj = sp.compose(phi).compose(sp.inverse())
        ia, part = conj.ia_decompose()
        assert matrices_close(part, eye_matrix(2, EXACT), 0)
        for m in range(2, 4):
            assert matrices_close(
                ia.u_block(m), gl_action_on_hom(a, phi.u_block(m), m), 0
            )


def test_engel_triangularity():
    # (Phi - id)^k = 0 exactly for IA automorphisms
    rng = seeded(13)
    for n, k in ((2, 4), (2, 5), (3, 4)):
        phi = random_ia_aut(rng, n, k)
        mat = phi.to_matrix()
        dim = mat.shape[0]
        nilp = mat - eye_matrix(dim, EXACT)
        power = eye_matrix(dim, EXACT)
        for _ in range(k):
            power = power @ nilp
        assert all(x == 0 for x in power.flat)


def test_centrality_of_top_degree_elements():
    # at level k = m+1 a top-degree-only IA element is central in IA
    rng = seeded(14)
    for m in (2, 3):
        k = m + 1
        blocks = {m: zeros_matrix(2**m, 2, EXACT)}
        blocks[m][1, 0] = Fraction(3)
        blocks[m][0, 1] = Fraction(-2)
        central = GradedAut(2, k, eye_matrix(2, EXACT), blocks)
        for _ in range(10):
            other = random_ia_aut(rng, 2, k)
            assert central.compose(other) == other.compose(central)


def test_transporter_identities():
    theta = theta_exp(2, 4)
    ident = transporter(theta, theta)
    assert ident.is_identity(0)
    rng = seeded(15)
    for _ in range(4):
        u = random_ia_hopf_aut(rng, 2, 4)
        pushed = _act_on_expansion(u, theta)
        # defining property: transporter maps theta to pushed
        t = transporter(theta, pushed)
        assert t == u
        # action axiom: transporter(U theta, theta) = U^-1
        back = transporter(pushed, theta)
        assert back == u.inverse()


def _act_on_expansion(u, theta):
    from lielog.magnus import MagnusExpansion

    return MagnusExpansion([u.apply(img) for img in theta.images])


def test_transporter_rejects_non_grouplike():
    from lielog.magnus import MagnusExpansion
    from lielog.scalars import DomainError

    theta = theta_exp(2, 4)
    bad_images = [
        TruncatedTensor.unit(2, 4) + TruncatedTensor.generator(2, 4, i + 1)
        for i in range(2)
    ]
    bad = MagnusExpansion(bad_images)
    with pytest.raises(DomainError):
        transporter(theta, bad)


def _non_exp_expansion(k, backend=EXACT):
    """theta(x1) = exp(2 X1 + [X1, X2]), theta(x2) = exp(X2): group-like, base
    matrix diag(2, 1)."""
    x1 = TruncatedTensor.generator(2, k, 1, backend)
    x2 = TruncatedTensor.generator(2, k, 2, backend)
    lie = x1.scale(2) + mul(x1, x2) - mul(x2, x1)
    return MagnusExpansion([tensor_exp(lie), tensor_exp(x2)])


def _pushed(theta, endo):
    return MagnusExpansion([theta.evaluate(img) for img in endo.images])


def test_inverse_matches_compose_loop():
    # Pi_theta (x_i -> log theta(x_i)) of an expansion other than theta_exp,
    # where every u block is nonzero, and the Johnson images under theta_exp
    # (k = 7 is left to Pi_theta: the reference loop takes 5 s on the fixtures)
    for k in range(4, 8):
        other = _non_exp_expansion(k)
        auts = [
            GradedAut.from_generator_images([normed_log(img, None) for img in other.images])
        ]
        if k < 7:
            theta = theta_exp(2, k)
            auts += [total_johnson(theta, endo) for endo in dehn_fixtures().values()]
        for aut in auts:
            assert aut.inverse() == inverse_by_compose(aut)


def test_transporter_closed_form_matches_degree_solve():
    fixtures = dehn_fixtures()
    for k in range(3, 8):
        theta = theta_exp(2, k)
        for endo in fixtures.values():
            pushed = _pushed(theta, endo)
            assert transporter(theta, pushed) == transporter_by_degrees(theta, pushed)
    # a source and a target expansion other than theta_exp
    for k in (4, 5):
        theta = theta_exp(2, k)
        other = _non_exp_expansion(k)
        pairs = [(other, theta), (theta, other)]
        for endo in fixtures.values():
            pushed = _pushed(other, endo)
            pairs += [(other, pushed), (pushed, other)]
        for src, dst in pairs:
            assert transporter(src, dst) == transporter_by_degrees(src, dst)
    # complex backend: agreement up to roundoff relative to the largest entry
    k = 5
    theta = theta_exp(2, k, COMPLEX)
    other = _non_exp_expansion(k, COMPLEX)
    pairs = [(other, theta), (theta, other)]
    for endo in fixtures.values():
        pairs += [(theta, _pushed(theta, endo)), (other, _pushed(other, endo))]
    for src, dst in pairs:
        closed = transporter(src, dst)
        solved = transporter_by_degrees(src, dst)
        scale = max(matrix_max_abs(blk) for blk in [solved.A, *solved.u.values()])
        assert closed.close_to(solved, 1e-9 * scale)


def test_transporter_takes_one_log_per_image(monkeypatch):
    import lielog.tensor_algebra as ta

    logs = []

    def counting_log(u):
        logs.append(u)
        return tensor_log(u)

    def no_apply(self, t):
        raise AssertionError("transporter must not apply automorphisms to tensors")

    monkeypatch.setattr(ta, "tensor_log", counting_log)
    monkeypatch.setattr(GradedAut, "apply", no_apply)
    theta = theta_exp(2, 5)
    pushed = _pushed(theta, dehn_fixtures()["anosov"])
    transporter(theta, pushed)
    assert len(logs) == 4


def test_transporter_rejects_non_grouplike_source():
    theta = theta_exp(2, 4)
    bad = MagnusExpansion(
        [
            TruncatedTensor.unit(2, 4) + TruncatedTensor.generator(2, 4, i + 1)
            for i in range(2)
        ]
    )
    with pytest.raises(DomainError):
        transporter(bad, theta)


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        GradedAut.identity(2, 4).compose(GradedAut.identity(2, 5))
    with pytest.raises(DimensionMismatch):
        GradedAut.identity(2, 4).apply(TruncatedTensor.unit(3, 4))


from hypothesis import given, settings, strategies as st


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_associative_hypothesis(seed):
    rng = seeded(seed)
    a = sample_aut(rng, 2, 3)
    b = sample_aut(rng, 2, 3)
    c = sample_aut(rng, 2, 3)
    assert a.compose(b.compose(c)) == a.compose(b).compose(c)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_inverse_cancels_hypothesis(seed):
    rng = seeded(seed)
    phi = sample_aut(rng, 2, 4)
    assert phi.compose(phi.inverse()).is_identity(0)
