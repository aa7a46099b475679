"""Spectral kit: principal log, phi1, Jordan block sizes, solvability."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from lielog import spectral
from lielog.scalars import DomainError
from lielog.spectral import (
    cluster_eigenvalues,
    eig_unit_circle_obstruction,
    jordan_block_sizes,
    jordan_single_block,
    jordan_tensor_blocks,
    phi1_matrix,
    principal_log,
)

from util import import_perfbench, verdict_by_box_scan


def _assert_log_of(a, log_eigs):
    """exp(log A) = A, and tr log A = sum of the principal logs of the
    eigenvalues (the branch check; it is robust to defective scatter)."""
    out = principal_log(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(expm(out) - a)) <= 1e-9 * scale
    want = sum(log_eigs)
    assert abs(np.trace(out) - want) <= 1e-9 * max(1.0, abs(want))


def test_principal_log_identity():
    assert np.all(principal_log(np.eye(3)) == 0)


def test_principal_log_nilpotent_shift():
    a = np.array([[1, 1], [0, 1]], dtype=complex)
    expected = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.all(principal_log(a) == expected)


def test_principal_log_minus_identity():
    a = np.diag([-1.0, -1.0]).astype(complex)
    out = principal_log(a)
    assert np.max(np.abs(out - np.diag([1j * math.pi, 1j * math.pi]))) < 1e-12


def test_principal_log_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        err = np.max(np.abs(expm(principal_log(a)) - a))
        assert err < 1e-8 * max(1.0, np.max(np.abs(a)))


def test_principal_log_spectrum_in_strip():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        eigs = np.linalg.eigvals(principal_log(a))
        assert np.all(eigs.imag <= math.pi + 1e-9)
        assert np.all(eigs.imag > -math.pi - 1e-9)


def test_matrix_function_phi1_at_zero():
    out = phi1_matrix(np.zeros((2, 2)))
    assert np.max(np.abs(out - np.eye(2))) < 1e-14


def test_matrix_function_phi1_diagonal():
    m = np.diag([math.log(2), -math.log(2)])
    out = phi1_matrix(m)
    expected = np.diag(
        [(1 - 0.5) / math.log(2), (1 - 2.0) / (-math.log(2))]
    )
    assert np.max(np.abs(out - expected)) < 1e-12


def test_matrix_function_respects_similarity():
    rng = np.random.default_rng(3)
    m = np.diag([0.3, -0.5, 1.1]).astype(complex)
    p = rng.normal(size=(3, 3))
    conj = p @ m @ np.linalg.inv(p)
    lhs = phi1_matrix(conj)
    rhs = p @ phi1_matrix(m) @ np.linalg.inv(p)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_matrix_function_defective_block():
    # phi1 on a Jordan block, against the identity phi1(M) M = I - e^{-M}
    m = jordan_single_block(0.7, 3)
    lhs = phi1_matrix(m) @ m
    assert np.max(np.abs(lhs - (np.eye(3) - expm(-m)))) < 1e-9


def test_principal_log_round_trip_jordan_samples():
    rng = np.random.default_rng(5)
    samples = [
        rng.normal(size=(4, 4)),
        np.kron(jordan_single_block(2.0, 2), jordan_single_block(3.0, 2)),
        jordan_single_block(1.0, 4),
        np.diag([1.0, 1.0, 2.0]),
    ]
    for a in samples:
        # eigvals of a real matrix give real eigenvalues an exact zero
        # imaginary part, so a negative one takes +i pi here too
        log_eigs = [cmath.log(z) for z in np.linalg.eigvals(a)]
        _assert_log_of(np.asarray(a, dtype=complex), log_eigs)


def test_jordan_tensor_blocks_small_cases():
    assert jordan_tensor_blocks(2.0, 1, 3.0, 1) == [(6.0, 1)]
    assert jordan_tensor_blocks(2.0, 2, 3.0, 2) == [(6.0, 3), (6.0, 1)]


def test_jordan_tensor_blocks_dimension_identity():
    for ell in range(1, 5):
        for m in range(1, 5):
            blocks = jordan_tensor_blocks(1.5, ell, -0.7, m)
            assert sum(size for _, size in blocks) == ell * m


def test_jordan_tensor_blocks_match_bruteforce():
    rng = np.random.default_rng(6)
    for _ in range(4):
        lam = complex(rng.normal(), rng.normal())
        mu = complex(rng.normal(), rng.normal())
        if abs(lam) < 0.3 or abs(mu) < 0.3:
            continue
        for ell in range(1, 5):
            for m in range(1, 5):
                kron = np.kron(jordan_single_block(lam, ell), jordan_single_block(mu, m))
                sizes = jordan_block_sizes(kron, lam * mu)
                expected = sorted(
                    (size for _, size in jordan_tensor_blocks(lam, ell, mu, m)),
                    reverse=True,
                )
                assert sizes == expected


def test_jordan_tensor_blocks_zero_eigenvalue_unsupported():
    with pytest.raises(DomainError):
        jordan_tensor_blocks(0.0, 2, 1.0, 2)


def test_solvability_fixture_table():
    assert eig_unit_circle_obstruction(np.eye(3)).verdict == "solvable"
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    v = eig_unit_circle_obstruction(rot)
    assert v.verdict == "not_solvable"
    assert v.witness is not None and abs(abs(v.witness) - 1.0) < 1e-9
    anosov = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert eig_unit_circle_obstruction(anosov).verdict == "solvable"
    v = eig_unit_circle_obstruction(np.diag([2.0, -2.0]))
    assert v.verdict == "not_solvable"
    assert v.witness == complex(-1.0)
    assert v.exponents is not None


def test_solvability_nonreal_eigenvalue_detected():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        eigs = np.linalg.eigvals(a)
        if np.all(np.abs(eigs.imag) < 1e-7) or np.any(np.abs(eigs) < 1e-6):
            continue
        v = eig_unit_circle_obstruction(a)
        assert v.verdict == "not_solvable"
        assert abs(abs(v.witness) - 1.0) < 1e-6


def test_solvability_negative_pair_inconclusive():
    # moduli 2 and 4 are related (2^2 = 4) with even sign pattern: the bounded
    # search finds relations but no obstruction, so the verdict stays honest
    v = eig_unit_circle_obstruction(np.diag([-2.0, 4.0]))
    assert v.verdict == "inconclusive"


def test_solvability_lone_eigenvalue_read_strictly():
    # a lone eigenvalue is not blurred by the cluster radius: 1 + 3e-5 i is
    # non-real, and -1.005 is not -1
    v = eig_unit_circle_obstruction(np.diag([1.0 + 3e-5j, 2.0]))
    assert v.verdict == "not_solvable"
    assert abs(v.witness - 1.0) > 1e-5
    assert eig_unit_circle_obstruction(np.diag([-1.005, 100.0])).verdict == "solvable"
    assert eig_unit_circle_obstruction(np.diag([1.0 + 5e-3j, 100.0])).verdict == "not_solvable"


def test_solvability_small_rotation_not_certified():
    # e^{+-i t} fall in one cluster but are not one eigenvalue of A: never
    # 'solvable', while a defective real eigenvalue scattering as far is
    t = 3e-5
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    assert eig_unit_circle_obstruction(rot).verdict == "inconclusive"
    v = eig_unit_circle_obstruction(np.diag([1.0 + 3e-5j, 1.0 - 3e-5j, 2.0]))
    assert v.verdict == "inconclusive"
    p = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
    a = p @ jordan_single_block(2.0, 3) @ np.linalg.inv(p)
    assert eig_unit_circle_obstruction(a).verdict == "solvable"


def test_principal_log_close_distinct_eigenvalues():
    rng = np.random.default_rng(4)
    for diag in ([0.01, 0.01009, 1.0], [1.0, 1.00009], [2.0, 2.0 + 1e-7, 5.0]):
        n = len(diag)
        exact = np.diag(np.log(np.array(diag, dtype=complex)))
        assert np.max(np.abs(principal_log(np.diag(diag)) - exact)) <= 1e-13
        p = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = p @ np.diag(diag) @ np.linalg.inv(p)
        _assert_log_of(a, list(np.diag(exact)))
        assert np.max(np.abs(expm(principal_log(a)) - a)) <= 1e-12 * np.max(np.abs(a))


def test_solvability_singular_rejected():
    with pytest.raises(DomainError):
        eig_unit_circle_obstruction(np.zeros((2, 2)))


def test_cluster_eigenvalues():
    clustered = cluster_eigenvalues([1.0 + 0j, 1.0 + 1e-9j, 2.0 + 0j])
    assert sorted(mult for _, mult in clustered) == [1, 2]
    # the radius is relative to each cluster's own modulus
    clustered = cluster_eigenvalues([0.01 + 0j, 0.01009 + 0j, 100.0 + 0j])
    assert sorted(mult for _, mult in clustered) == [1, 1, 1]


def test_principal_log_on_constructed_jordan_blocks():
    rng = np.random.default_rng(21)
    specs = [
        [(2.0, 3), (2.0, 1)],
        [(1.0, 2), (-1.0, 2)],
        [(0.5 + 0.5j, 2), (2.0, 1), (2.0, 2)],
    ]
    for blocks in specs:
        n = sum(size for _, size in blocks)
        j = np.zeros((n, n), dtype=complex)
        pos = 0
        for lam, size in blocks:
            j[pos : pos + size, pos : pos + size] = jordan_single_block(lam, size)
            pos += size
        p = rng.normal(size=(n, n)) + 0.1 * rng.normal(size=(n, n)) * 1j
        a = p @ j @ np.linalg.inv(p)
        _assert_log_of(a, [size * cmath.log(complex(lam)) for lam, size in blocks])


def test_solvability_unit_eigenvalue_with_negative():
    # eigenvalue 1 generates nothing; a lone -2 is harmless
    v = eig_unit_circle_obstruction(np.diag([1.0, -2.0]))
    assert v.verdict == "solvable"


def test_principal_log_defective_negative_eigenvalue():
    a = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
    out = principal_log(a)
    assert np.max(np.abs(expm(out) - a)) < 1e-10
    eigs = np.linalg.eigvals(out)
    assert np.allclose(eigs.imag, math.pi)


# ---------------------------------------------------------------------------
# The lattice relation search against the box scan it replaced
# ---------------------------------------------------------------------------


def _with_box_scan(a, **kw):
    """(verdict, box-scan verdict) as JSON, or the DomainError messages."""
    outputs = []
    for verdict in (eig_unit_circle_obstruction, verdict_by_box_scan):
        try:
            outputs.append(verdict(a, **kw).to_json())
        except DomainError as exc:
            outputs.append(str(exc))
    return outputs


def _verdict_test_matrices():
    """Every matrix the verdict tests of the suite decide."""
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    anosov = np.array([[2.0, 1.0], [1.0, 1.0]])
    t = 3e-5
    small_rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    p = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
    mats = [
        np.eye(2), np.eye(3), rot, anosov, small_rot,
        np.diag([2.0, -2.0]), np.diag([-2.0, 4.0]), np.diag([1.0, -2.0]),
        np.diag([1.0 + 3e-5j, 2.0]), np.diag([-1.005, 100.0]), np.diag([1.0 + 5e-3j, 100.0]),
        np.diag([1.0 + 3e-5j, 1.0 - 3e-5j, 2.0]),
        p @ jordan_single_block(2.0, 3) @ np.linalg.inv(p),
        p @ (np.eye(3) + np.eye(3, k=1)) @ np.linalg.inv(p),
        np.diag([-2.0, 2.0**-9]), -anosov,
    ]
    rng = np.random.default_rng(7)
    mats += [rng.normal(size=(3, 3)) for _ in range(20)]
    return mats


def test_lattice_search_matches_box_scan_on_the_verdict_tests():
    for a in _verdict_test_matrices():
        new, scan = _with_box_scan(a)
        assert new == scan


def test_lattice_search_matches_box_scan_on_the_generic_spectrum_pool():
    # the nine pool matrices and three jordan3 probes of the benchmark, seed 101
    workload = import_perfbench("workloads").GenericSpectrum()
    cases = workload.make_pool(101) + workload.make_probes(101)
    assert len(cases) == 12
    for case in cases:
        new, scan = _with_box_scan(case["A"])
        assert new == scan


PRIMES = (2, 3, 5)


@st.composite
def planted_relations(draw):
    """Signed products of powers of three primes: four such eigenvalues
    always have a modulus relation, and fewer often do, odd or even."""
    r = draw(st.integers(1, 4))
    eigs = []
    for _ in range(r):
        powers = draw(st.lists(st.integers(-3, 3), min_size=len(PRIMES), max_size=len(PRIMES)))
        sign = draw(st.sampled_from((1.0, -1.0)))
        eigs.append(sign * math.prod(float(q) ** e for q, e in zip(PRIMES, powers)))
    bound = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return eigs, bound, seed


@settings(max_examples=40, deadline=None)
@given(planted_relations())
def test_lattice_search_matches_box_scan_on_planted_relations(drawn):
    eigs, bound, seed = drawn
    rng = np.random.default_rng(seed)
    while True:
        p = rng.normal(size=(len(eigs), len(eigs)))
        if np.linalg.cond(p) <= 10:
            break
    a = p @ np.diag(eigs) @ np.linalg.inv(p)
    new, scan = _with_box_scan(a, exponent_bound=bound)
    assert new == scan


def test_lattice_search_covers_boxes_beyond_the_scan_budget():
    # the box scan gives up on these ('inconclusive' after seconds); the
    # lattice search covers the whole box
    v = eig_unit_circle_obstruction(np.diag([2.0, 3.0, -5.0, 7.0]), exponent_bound=20)
    assert v.verdict == "solvable"
    assert v.detail == "moduli multiplicatively independent at exponent bound 20"
    v = eig_unit_circle_obstruction(np.diag([2.0, -3.0, 5.0, 7.0, 11.0, 13.0]))
    assert v.verdict == "solvable"


def test_lattice_search_keeps_box_scan_outputs():
    # 2 * 3 / 6 = 1 is the only relation and has no negative part
    v = eig_unit_circle_obstruction(np.diag([2.0, 3.0, 6.0, -5.0, 7.0]))
    assert v.verdict == "inconclusive"
    assert v.detail == "modulus relations exist; no sign obstruction found within the bound"
    v = eig_unit_circle_obstruction(np.diag([-2.0, 4.0]))
    assert (v.verdict, v.exponents) == ("inconclusive", None)
    v = eig_unit_circle_obstruction(np.diag([2.0, -2.0]))
    assert (v.verdict, v.exponents) == ("not_solvable", [-1, 1])
    # (-2)^-9 (2^-9)^-1 = -1: beyond the default bound, found at bound 9
    a = np.diag([-2.0, 2.0**-9])
    assert eig_unit_circle_obstruction(a).verdict == "solvable"
    v = eig_unit_circle_obstruction(a, exponent_bound=9)
    assert (v.verdict, v.exponents) == ("not_solvable", [-9, -1])


def test_lattice_search_budget_caps_the_work(monkeypatch):
    # diag(-2, 4) has the relations (2k, -k), all with even negative part, so
    # a huge bound has to enumerate them all: the budget stops it
    monkeypatch.setattr(spectral, "ENUMERATION_BUDGET", 1000)
    v = eig_unit_circle_obstruction(np.diag([-2.0, 4.0]), exponent_bound=10**6)
    assert v.verdict == "inconclusive"
    assert v.detail == "enumeration budget exhausted before the bound was covered"
