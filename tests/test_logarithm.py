"""Maclaurin and extended logarithms, and BCH by series and by kernel."""

import dataclasses
import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lielog import logarithm
from lielog.automorphisms import GradedAut
from lielog.derivations import GradedDerivation, annihilates_omega, exp_derivation
from lielog.logarithm import (
    SolvabilityError,
    bch_series,
    ln_aut,
    log_unipotent,
)
from lielog.magnus import dehn_fixtures, theta_exp, total_johnson
from lielog.scalars import (
    COMPLEX,
    EXACT,
    DomainError,
    KernelSingular,
    as_matrix,
    eye_matrix,
    matrices_close,
    to_scalar,
    zeros_matrix,
)
from lielog.spectral import POLE_TOL, eig_unit_circle_obstruction, phi1_matrix, principal_log
from lielog.tensor_algebra import TruncatedTensor, words_of_degree

from util import (
    dynkin_bch,
    kron_power,
    random_ia_aut,
    random_ia_derivation,
    random_ia_hopf_aut,
    seeded,
)


def test_log_unipotent_identity():
    assert log_unipotent(GradedAut.identity(2, 4)).is_zero(0)


def test_log_unipotent_single_block_example():
    u2 = zeros_matrix(4, 2, EXACT)
    u2[1, 0] = Fraction(1)
    u2[2, 0] = Fraction(-1)
    phi = GradedAut(2, 3, eye_matrix(2, EXACT), {2: u2})
    d = log_unipotent(phi)
    assert matrices_close(d.block(2), u2, 0)
    assert 1 not in d.d
    assert exp_derivation(d) == phi


def test_log_unipotent_nilpotent_splitting():
    a = as_matrix([[1, 1], [0, 1]], EXACT)
    phi = GradedAut.splitting(a, 4)
    d = log_unipotent(phi)
    expected = zeros_matrix(2, 2, EXACT)
    expected[0, 1] = Fraction(1)
    assert matrices_close(d.d1, expected, 0)
    assert all(m == 1 for m in d.d)
    assert exp_derivation(d) == phi


def test_log_unipotent_random_roundtrip():
    rng = seeded(1)
    for n, k in ((2, 3), (2, 4), (3, 4), (2, 5)):
        for _ in range(4):
            phi = random_ia_hopf_aut(rng, n, k)
            d = log_unipotent(phi)
            assert exp_derivation(d) == phi


def test_log_unipotent_rejects_non_unipotent():
    phi = GradedAut.splitting(as_matrix([[2, 1], [1, 1]], EXACT), 3)
    with pytest.raises(DomainError):
        log_unipotent(phi)


def test_exact_floats_are_not_rounded():
    # a float on the exact backend is its exact binary value, so a 1e-13
    # perturbation of the identity is not unipotent
    assert to_scalar(1e-13, EXACT) == Fraction(1e-13) != 0
    assert to_scalar(0.1, EXACT) == Fraction(0.1)
    with pytest.raises(DomainError):
        to_scalar(math.inf, EXACT)
    a = as_matrix([[1 + 1e-13, 0], [0, 1]], EXACT)
    with pytest.raises(DomainError):
        log_unipotent(GradedAut(2, 3, a, {}, EXACT))


def test_log_unipotent_rejects_complex_input():
    phi = random_ia_hopf_aut(seeded(1), 2, 4)
    with pytest.raises(DomainError, match="ln_aut"):
        log_unipotent(phi.to_complex())


def test_ln_aut_defective_real_spectrum():
    # a size-3 Jordan block conjugated by P: its computed eigenvalues scatter
    # off the real axis, but they are one real eigenvalue, so A is solvable
    p = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
    rng = np.random.default_rng(12)
    for lam in (1.0, 2.0):
        a = (p @ (lam * np.eye(3) + np.eye(3, k=1)) @ np.linalg.inv(p)).astype(complex)
        assert eig_unit_circle_obstruction(a).verdict == "solvable"
        u = {
            m: 0.05 * (rng.normal(size=(3**m, 3)) + 1j * rng.normal(size=(3**m, 3)))
            for m in (2, 3)
        }
        report = ln_aut(GradedAut(3, 4, a, u, COMPLEX))
        assert report.verified
        assert report.residual < 1e-12


def test_ln_aut_close_small_eigenvalues_verified():
    # 0.01 and 0.01009 are 9e-3 apart relative to their own size: distinct
    # eigenvalues, whose logs must not be blurred into one
    p = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
    for diag in ([0.01, 0.01009, 1.0], [1.0, 1.00009, 3.0]):
        a = p @ np.diag(diag) @ np.linalg.inv(p)
        report = ln_aut(GradedAut.splitting(a.astype(complex), 3))
        assert report.verified
        assert report.verdict.verdict == "solvable"


def test_ln_aut_splitting_diagonal():
    phi = GradedAut.splitting(np.diag([2.0, 0.5]).astype(complex), 3)
    report = ln_aut(phi)
    assert report.residual < 1e-12
    expected = np.diag([math.log(2), -math.log(2)])
    assert np.max(np.abs(np.asarray(report.derivation.d1) - expected)) < 1e-12
    assert all(m == 1 for m in report.derivation.d)
    assert report.verdict.verdict == "solvable"


def test_ln_aut_anosov_roundtrip():
    rng = seeded(2)
    a = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    for _ in range(5):
        ia = random_ia_hopf_aut(rng, 2, 3).to_complex()
        phi = ia.compose(GradedAut.splitting(a, 3))
        report = ln_aut(phi)
        assert report.residual < 1e-9
        assert np.max(np.abs(np.asarray(report.derivation.d1) - principal_log(a))) < 1e-12
        assert report.hopf_preserved is True


def test_ln_aut_branch_contract():
    rng = seeded(3)
    a = np.diag([2.0, 3.0, 1.0 / 6.0]).astype(complex)
    phi = random_ia_hopf_aut(rng, 3, 3).to_complex().compose(GradedAut.splitting(a, 3))
    report = ln_aut(phi)
    eigs = np.linalg.eigvals(np.asarray(report.derivation.d1, dtype=complex))
    assert np.all(eigs.imag <= math.pi + 1e-9)
    assert np.all(eigs.imag > -math.pi - 1e-9)


def test_ln_aut_rejects_rotation():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    phi = GradedAut.splitting(rot, 3)
    with pytest.raises(SolvabilityError) as exc:
        ln_aut(phi)
    assert exc.value.verdict.witness is not None


def test_ln_aut_inconclusive_requires_force():
    # moduli satisfy 3 ln2 = ln8 with an even sign pattern: no obstruction is
    # found but solvability is not certified, so the run must be forced
    a = np.diag([-2.0, -8.0]).astype(complex)
    phi = GradedAut.splitting(a, 3)
    with pytest.raises(SolvabilityError):
        ln_aut(phi)
    report = ln_aut(phi, force=True)
    assert report.forced
    assert report.residual < 1e-9
    # principal log of -2 has imaginary part pi
    assert abs(np.asarray(report.derivation.d1)[0, 0].imag - math.pi) < 1e-12


def test_ln_aut_forced_inconclusive_can_hit_kernel_singularity():
    # diag(-2, 4): (-2)(-2)/4 = 1 makes ln(-2)+ln(-2)-ln(4) = 2 pi i, so the
    # forced solve must refuse with the kernel-singular error
    a = np.diag([-2.0, 4.0]).astype(complex)
    phi = GradedAut.splitting(a, 3)
    with pytest.raises(KernelSingular):
        ln_aut(phi, force=True)


def test_ln_aut_kernel_singular_detected():
    # eigenvalues {-2, -3, 6}: ln(-2) + ln(-3) - ln(6) = 2 pi i hits the
    # kernel zero; solvability is inconclusive (modulus relation, even signs)
    a = np.diag([-2.0, -3.0, 6.0]).astype(complex)
    phi = GradedAut.splitting(a, 3)
    with pytest.raises(KernelSingular):
        ln_aut(phi, force=True)


def test_ln_aut_uniqueness_reconstruction():
    # build Phi = exp(D) with principal-branch d1; the solver must recover D
    rng = seeded(4)
    for _ in range(4):
        d1 = np.diag([math.log(2), -math.log(2)]).astype(complex)
        d = random_ia_derivation(rng, 2, 4).to_complex() + GradedDerivation(
            2, 4, {1: d1}, backend=COMPLEX
        )
        phi = exp_derivation(d)
        report = ln_aut(phi)
        assert report.derivation.close_to(d, 1e-9)


def test_ln_aut_matches_log_unipotent_on_unipotent_inputs():
    rng = seeded(6)
    for _ in range(5):
        phi = random_ia_hopf_aut(rng, 2, 4)
        exact_log = log_unipotent(phi)
        report = ln_aut(phi)  # converts to complex internally
        assert report.residual < 1e-9
        assert report.derivation.close_to(exact_log.to_complex(), 1e-9)


def test_ln_aut_omega_flag():
    # exp of an omega-annihilating derivation preserves omega; the report
    # must certify that the log annihilates omega in turn
    d1 = np.array([[0.4, 0.0], [0.0, -0.4]], dtype=complex)  # sp(2)
    d = GradedDerivation(2, 4, {1: d1}, backend=COMPLEX)
    phi = exp_derivation(d)
    assert phi.preserves_omega(1)
    report = ln_aut(phi)
    assert report.omega_annihilated is True


def test_log_report_digest_and_trace():
    phi = GradedAut.splitting(np.diag([2.0, 0.5]).astype(complex), 4)
    report = ln_aut(phi)
    assert len(report.input_digest) == 64
    assert [entry["degree"] for entry in report.trace] == [2, 3]


def test_log_report_verified_respects_tol():
    phi = GradedAut.splitting(np.diag([2.0, 0.5]).astype(complex), 3)
    report = ln_aut(phi, tol=1e-9)
    assert report.verified
    assert not dataclasses.replace(report, residual=1e-3).verified
    assert not dataclasses.replace(report, residual=math.nan).verified


# -- the kernel solve: eigenbasis of X, dense fallback ------------------------


def _dense_only():
    """Route every kernel solve through the dense ad-operator."""
    return mock.patch.object(logarithm, "EIGENBASIS_TOL", 0.0)


def _diagonalisable_log(rng, n, pair):
    """P, log J and X = P log(J) P^-1 for a diagonal J of mixed signs whose
    eigenvalues are 0.1 apart or more, with a complex-conjugate pair when
    pair is set, and cond(P) <= 10."""
    while True:
        lam = (rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)).astype(complex)
        if pair:
            r, t = rng.uniform(0.5, 2.0), rng.uniform(0.3, 2.8)
            lam[:2] = r * np.exp(1j * t), r * np.exp(-1j * t)
        if min(abs(a - b) for a, b in itertools.combinations(lam, 2)) >= 0.1:
            break
    while True:
        p = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(p) <= 10:
            break
    log_j = np.log(lam)
    return p, log_j, p @ np.diag(log_j) @ np.linalg.inv(p)


def _kernel_by_construction(p, log_j, m, rhs):
    """phi1(ad X)^-1 rhs from the known P and log J: the ad-eigenvalue of
    word I and column j is sum_{i in I} log J_i - log J_j."""
    n = len(log_j)
    sums = np.array(
        [[sum(log_j[i - 1] for i in w) - log_j[j] for j in range(n)]
         for w in words_of_degree(n, m)]
    )
    pm = kron_power(p, m, COMPLEX)
    w = np.linalg.solve(pm, rhs @ p) * sums / -np.expm1(-sums)
    return pm @ w @ np.linalg.inv(p), sums


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([2, 3]), st.booleans(),
       st.integers(0, 10**6))
def test_kernel_eigenbasis_against_dense_and_construction(n, m, pair, seed):
    rng = np.random.default_rng(seed)
    p, log_j, x = _diagonalisable_log(rng, n, pair)
    rhs = rng.normal(size=(n**m, n)) + 1j * rng.normal(size=(n**m, n))
    z_eig, info = logarithm._solve_kernel(x, m, rhs, POLE_TOL)
    with _dense_only():
        z_dense, dense_info = logarithm._solve_kernel(x, m, rhs, POLE_TOL)
    assert info["path"] == "eigenbasis"
    assert dense_info["path"] == "dense"
    expected, sums = _kernel_by_construction(p, log_j, m, rhs)
    margin = min(abs(s - 2j * math.pi * j) for s in sums.flat for j in range(-4, 5) if j)
    scale = np.max(np.abs(expected))
    err_eig = np.max(np.abs(z_eig - expected)) / scale
    err_dense = np.max(np.abs(z_dense - expected)) / scale
    assert err_eig <= 1e-10
    # the dense path's phi1(ad X) comes from expm of a non-normal matrix and
    # can be off by 1e-9 here; the eigenbasis may not be the less accurate.
    # phi1 vanishes linearly at a pole, so near one roundoff in the
    # eigenvalue sums is amplified by 1/margin in either path.
    assert err_eig <= max(err_dense, 1e-12 / min(1.0, margin))
    assert abs(info["kernel_margin"] - margin) <= 1e-12
    # dense eigvals err by roundoff relative to the size of ad X
    tol = 1e-12 * max(1.0, float(np.max(np.abs(sums))))
    assert abs(dense_info["kernel_margin"] - margin) <= tol


def _ln_aut_outcome(phi):
    try:
        return ln_aut(phi, force=True).verified
    except (SolvabilityError, KernelSingular) as exc:
        return type(exc).__name__


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 10**6))
def test_ln_aut_eigenbasis_verifies_whatever_dense_verifies(n, seed):
    rng = np.random.default_rng(seed)
    p, log_j, _ = _diagonalisable_log(rng, n, pair=False)
    a = p @ np.diag(np.exp(log_j)) @ np.linalg.inv(p)
    u = {
        m: 0.1 * (rng.normal(size=(n**m, n)) + 1j * rng.normal(size=(n**m, n)))
        for m in (2, 3)
    }
    phi = GradedAut(n, 4, a, u, COMPLEX)
    with _dense_only():
        dense = _ln_aut_outcome(phi)
    eig = _ln_aut_outcome(phi)
    assert eig == dense or (dense is False and eig is True)


def test_kernel_path_follows_cond_v(monkeypatch):
    calls = []

    def counted(mat):
        calls.append(mat.shape)
        return phi1_matrix(mat)

    monkeypatch.setattr(logarithm, "phi1_matrix", counted)
    p = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
    rng = np.random.default_rng(3)
    u = {m: 0.05 * rng.normal(size=(3**m, 3)).astype(complex) for m in (2, 3)}
    jordan2 = np.diag([2.0, 2.0, 3.0]) + np.diag([1.0, 0.0], 1)
    jordan3 = 2.0 * np.eye(3) + np.eye(3, k=1)
    for j, path in ((jordan2, "dense"), (jordan3, "dense"),
                    (np.diag([2.0, -3.0, 5.0]), "eigenbasis")):
        calls.clear()
        a = (p @ j @ np.linalg.inv(p)).astype(complex)
        report = ln_aut(GradedAut(3, 4, a, u, COMPLEX))
        assert report.verified
        assert [entry["path"] for entry in report.trace] == [path, path]
        assert len(calls) == (2 if path == "dense" else 0)
        for entry in report.trace:
            cond_v = entry["cond_v"]
            assert cond_v is None or math.isfinite(cond_v)
            if path == "eigenbasis":
                assert cond_v < 100


def test_ln_aut_pole_first_reached_at_degree_three():
    # 3 log(-2) - log(-8) = 2 pi i; no degree-2 eigenvalue sum is a pole
    phi = GradedAut.splitting(np.diag([-2.0, -8.0]).astype(complex), 4)
    with pytest.raises(KernelSingular, match="degree 3"):
        ln_aut(phi, force=True)
    with _dense_only(), pytest.raises(KernelSingular, match="degree 3"):
        ln_aut(phi, force=True)


# -- BCH ------------------------------------------------------------------


def test_bch_trivial_cases():
    rng = seeded(7)
    x = random_ia_derivation(rng, 2, 4)
    zero = GradedDerivation.zero(2, 4)
    assert bch_series(x, zero).derivation == x
    assert bch_series(x, x.scale(2)).derivation == x.scale(3)


def test_bch_exact_oracle():
    rng = seeded(8)
    for _ in range(5):
        x = random_ia_derivation(rng, 2, 4)
        y = random_ia_derivation(rng, 2, 4)
        res = bch_series(x, y)
        assert res.residual is None
        assert exp_derivation(res.derivation) == exp_derivation(x).compose(
            exp_derivation(y)
        )


def test_bch_low_order_printed_terms():
    rng = seeded(9)
    x = random_ia_derivation(rng, 2, 5)
    y = random_ia_derivation(rng, 2, 5)
    res = dynkin_bch(x, y, order=3, max_y=5)
    xy = x.bracket(y)
    manual = (
        x
        + y
        + xy.scale(Fraction(1, 2))
        + x.bracket(xy).scale(Fraction(1, 12))
        - y.bracket(xy).scale(Fraction(1, 12))
    )
    assert res == manual


def test_bch_requires_ia_y():
    x = GradedDerivation(2, 3, {1: eye_matrix(2, EXACT)})
    with pytest.raises(DomainError):
        bch_series(x, x)


def test_bch_uncertified_warning():
    # this exact non-IA input once gave an uncertified series with a warning;
    # the kernel route now verifies it
    x = GradedDerivation(2, 3, {1: as_matrix([[1, 0], [0, -1]], EXACT)})
    y = random_ia_derivation(seeded(10), 2, 3)
    res = bch_series(x, y)
    assert res.residual <= 1e-9
    assert res.derivation.backend == COMPLEX


def test_bch_non_ia_matches_series():
    rng = np.random.default_rng(12)
    for _ in range(5):
        x1 = np.diag(rng.uniform(-0.8, 0.8, size=2)).astype(complex)
        x = GradedDerivation(2, 3, {1: x1}, backend=COMPLEX)
        y2 = (rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))) * 0.5
        y = GradedDerivation(2, 3, {2: y2}, backend=COMPLEX)
        kern = bch_series(x, y).derivation
        ser = dynkin_bch(x, y, order=24)
        for m in (1, 2):
            diff = np.max(
                np.abs(
                    np.asarray(kern.block(m), dtype=complex)
                    - np.asarray(ser.block(m), dtype=complex)
                )
            )
            assert diff < 1e-10


def test_bch_non_ia_scalar_closed_form():
    # diagonal X: the kernel acts eigenvalue-wise by z/(1 - e^{-z})
    a1, a2 = math.log(2), math.log(3)
    x = GradedDerivation(2, 3, {1: np.diag([a1, a2]).astype(complex)}, backend=COMPLEX)
    y2 = np.zeros((4, 2), dtype=complex)
    y2[1, 0] = 1.0  # word (1,2) in the image of x_1
    y = GradedDerivation(2, 3, {2: y2}, backend=COMPLEX)
    out = bch_series(x, y).derivation
    lam = a1 + a2 - a1  # ad eigenvalue on that coordinate
    expected = lam / (1.0 - math.exp(-lam))
    assert abs(np.asarray(out.block(2))[1, 0] - expected) < 1e-12


def test_bch_non_ia_trivial_cases():
    rng = np.random.default_rng(13)
    y2 = rng.normal(size=(4, 2)).astype(complex)
    yd = GradedDerivation(2, 3, {2: y2}, backend=COMPLEX)
    zero_x = GradedDerivation(2, 3, {}, backend=COMPLEX)
    assert bch_series(zero_x, yd).derivation.close_to(yd, 1e-12)
    # a non-IA X with Y = 0 beyond depth 3
    x = GradedDerivation(2, 5, {1: np.diag([0.4, -0.7]).astype(complex)}, backend=COMPLEX)
    assert bch_series(x, GradedDerivation.zero(2, 5, COMPLEX)).derivation.close_to(x, 1e-12)


def test_bch_non_ia_pole_rejection():
    x1 = np.diag([0.0, 2j * math.pi]).astype(complex)
    x = GradedDerivation(2, 3, {1: x1}, backend=COMPLEX)
    y2 = np.ones((4, 2), dtype=complex)
    y = GradedDerivation(2, 3, {2: y2}, backend=COMPLEX)
    with pytest.raises(KernelSingular):
        bch_series(x, y)


def _conjugated_diagonal(rng, n, s):
    """X_1 = P diag(lam) P^-1 with lam uniform in [-s, s] and cond(P) <= 10."""
    while True:
        p = rng.normal(size=(n, n))
        if np.linalg.cond(p) <= 10:
            return (p @ np.diag(rng.uniform(-s, s, n)) @ np.linalg.inv(p)).astype(complex)


@pytest.mark.parametrize("n,k", [(2, 6), (3, 5)])
def test_bch_non_ia_well_conditioned_draws(n, k):
    # The residual is bounded relative to max|exp X o exp Y|: on one of these
    # draws that is 3e4 and the residual 9.1e-9 (3e-13 relative), lost in the
    # per-degree solve against the composite's N x N word matrix, as in ln_aut.
    rng = np.random.default_rng(22)
    for s in (0.3, 0.8, 1.5):
        for i in range(3):
            x = GradedDerivation(n, k, {1: _conjugated_diagonal(rng, n, s)}, COMPLEX)
            y = random_ia_derivation(seeded(i), n, k, hopf=True).to_complex()
            # a call over 0.5 s is retried, so that a busy host alone cannot fail it
            for _ in range(3):
                start = time.perf_counter()
                res = bch_series(x, y)
                if time.perf_counter() - start < 0.5:
                    break
            else:
                pytest.fail("bch_series took 0.5 s or more on three tries")
            target = exp_derivation(x).compose(exp_derivation(y)).to_matrix()
            assert res.residual <= 1e-9 * max(1.0, float(np.max(np.abs(target))))


def test_bch_non_ia_complex_spectrum():
    # eigenvalues 0.3 +- i: the composite's degree-1 part is a rotation, which
    # ln_aut rejects as not solvable, but the kernel solve is defined
    x = GradedDerivation(2, 5, {1: as_matrix([[0.3, -1], [1, 0.3]], COMPLEX)}, COMPLEX)
    y = random_ia_derivation(seeded(23), 2, 5, hopf=True).to_complex()
    assert bch_series(x, y).residual <= 1e-9


def _cut(d, k):
    return GradedDerivation(d.n, k, {m: b for m, b in d.d.items() if m < k}, d.backend)


def test_truncation_commutes_with_the_logarithms():
    # the log at depth k cut to depth k' is the log of the inputs cut to k'
    rng = np.random.default_rng(24)
    x = GradedDerivation(2, 6, {1: _conjugated_diagonal(rng, 2, 0.8)}, COMPLEX)
    y = random_ia_derivation(seeded(24), 2, 6, hopf=True).to_complex()
    full = bch_series(x, y).derivation
    for k_cut in (3, 4, 5):
        cut = bch_series(_cut(x, k_cut), _cut(y, k_cut)).derivation
        assert _cut(full, k_cut).close_to(cut, 1e-12 * full.max_abs())
    anosov = dehn_fixtures(1)["anosov"]
    full = ln_aut(total_johnson(theta_exp(2, 6), anosov)).derivation
    for k_cut in (4, 5):
        cut = ln_aut(total_johnson(theta_exp(2, k_cut), anosov)).derivation
        assert _cut(full, k_cut).close_to(cut, 1e-12 * full.max_abs())


def test_ln_aut_larger_truncations():
    rng = seeded(20)
    for n, k in ((2, 5), (3, 4)):
        a = np.diag([2.0] + [1.0] * (n - 2) + [0.5]).astype(complex)
        phi = random_ia_hopf_aut(rng, n, k).to_complex().compose(
            GradedAut.splitting(a, k)
        )
        report = ln_aut(phi)
        assert report.residual < 1e-9
        assert report.hopf_preserved is True


def test_ln_aut_depth_five_rank_three():
    rng = seeded(21)
    a = np.diag([2.0, 3.0, 1.0 / 6.0]).astype(complex)
    phi = random_ia_hopf_aut(rng, 3, 5).to_complex().compose(
        GradedAut.splitting(a, 5)
    )
    report = ln_aut(phi)
    assert report.residual < 1e-8
    assert [entry["degree"] for entry in report.trace] == [2, 3, 4]
