"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one pass line; run with `pytest tests/test_acceptance.py -v -s` to see
the lines.  All expected values are computed by independent oracles (direct
action on basis words, brute-force Jordan forms of Kronecker products, the
Dynkin series) or fixed by hand calculations recorded in the module tests.
"""

import json
import pathlib
import time
from fractions import Fraction

import numpy as np

from lielog.automorphisms import GradedAut, matrix_inverse
from lielog.derivations import GradedDerivation, exp_derivation
from lielog.free_lie import omega_tensor
from lielog.logarithm import bch_series, ln_aut, log_unipotent
from lielog.magnus import dehn_fixtures, theta_exp, total_johnson
from lielog.scalars import (
    COMPLEX,
    EXACT,
    as_matrix,
    eye_matrix,
    matrices_close,
    zeros_matrix,
)
from lielog.spectral import (
    eig_unit_circle_obstruction,
    jordan_block_sizes,
    jordan_single_block,
    jordan_tensor_blocks,
    principal_log,
)

from util import (
    dynkin_bch,
    kron_power,
    random_block,
    random_ia_aut,
    random_ia_derivation,
    random_ia_hopf_aut,
    random_invertible_exact,
    seeded,
)

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_unipotent_log_round_trip():
    """200 random IA Hopf automorphisms, n in {2,3}, k in {3,4,5}, exact
    backend: exp(Log(Phi)) = Phi with exact coefficient equality, < 60 s."""
    rng = seeded(101)
    combos = [(n, k) for n in (2, 3) for k in (3, 4, 5)]
    start = time.monotonic()
    for rep in range(200):
        n, k = combos[rep % len(combos)]
        phi = random_ia_hopf_aut(rng, n, k)
        deriv = log_unipotent(phi)
        assert exp_derivation(deriv) == phi
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, f"200 exact round trips across n in {{2,3}}, k in {{3,4,5}} in {elapsed:.1f}s")


ACCEPT2_MATRICES = {
    "diag(2,1/2)": [[2, 0], [0, Fraction(1, 2)]],
    "anosov": [[2, 1], [1, 1]],
    "diag(2,3,1/6)": [[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 6)]],
}


def test_criterion_2_extended_log_round_trip():
    """100 random Phi = IA o splitting(A): residual < 1e-9 and the degree-1
    block equals the principal log of A to 1e-12."""
    rng = seeded(102)
    cases = []
    for name, rows in ACCEPT2_MATRICES.items():
        n = len(rows)
        for k in (3, 4):
            cases.append((name, rows, n, k))
    done = 0
    worst_residual = 0.0
    worst_d1 = 0.0
    while done < 100:
        name, rows, n, k = cases[done % len(cases)]
        a = as_matrix(rows, EXACT)
        ia = random_ia_hopf_aut(rng, n, k)
        phi = ia.compose(GradedAut.splitting(a, k)).to_complex()
        report = ln_aut(phi)
        a_c = np.array([[complex(x) for x in row] for row in rows])
        d1_err = float(
            np.max(np.abs(np.asarray(report.derivation.d1, dtype=complex) - principal_log(a_c)))
        )
        assert report.residual < 1e-9, (name, n, k)
        assert d1_err < 1e-12, (name, n, k)
        worst_residual = max(worst_residual, report.residual)
        worst_d1 = max(worst_d1, d1_err)
        done += 1
    _report(
        2,
        f"100 extended-log round trips; max residual {worst_residual:.2e}, "
        f"max degree-1 error {worst_d1:.2e}",
    )


def _random_omega_preserving_aut(rng, np_rng, k):
    """Product of exponentials of omega-annihilating derivations, g = 1.

    Uses sp(2) degree-1 parts with positive-real-spectrum exponentials so the
    solvability check passes, and IA blocks built from the bracketing kernel
    (degree-3 block) plus inner derivations, all of which kill omega.
    """
    from lielog.derivations import inner
    from lielog.free_lie import LiePoly

    factors = []
    for _ in range(2):
        t = np_rng.uniform(0.2, 0.8)
        d1 = np.array([[t, 0.0], [0.0, -t]], dtype=complex)
        blocks = {1: d1}
        # inner derivation by a random Lie element (kills omega: ad z omega in
        # higher degree than the truncation keeps... not in general, so use
        # the h_{g,1} block route instead for the IA part)
        blk = _omega_annihilating_block(rng, k)
        if blk is not None:
            blocks[3] = blk
        factors.append(exp_derivation(GradedDerivation(2, k, blocks, backend=COMPLEX)))
    out = factors[0]
    for f in factors[1:]:
        out = out.compose(f)
    return out


_KERNEL_CACHE = {}


def _omega_annihilating_block(rng, k):
    """Degree-3 Hom block whose derivation kills omega (from h_{1,1}(3))."""
    if k <= 3:
        return None
    from lielog.free_lie import bracketing_kernel, lie_to_tensor, LiePoly
    from lielog.tensor_algebra import words_of_degree

    if 3 not in _KERNEL_CACHE:
        kernel = bracketing_kernel(1, 3)
        blocks = []
        index = {w: r for r, w in enumerate(words_of_degree(2, 3))}
        for elem in kernel:
            images = [None, None]
            mat = zeros_matrix(8, 2, EXACT)
            for (j, w), c in elem.items():
                t = lie_to_tensor(LiePoly(2, k, {w: 1}))
                if j % 2 == 0:
                    gen, sign = j - 1, Fraction(-1)
                else:
                    gen, sign = j + 1, Fraction(1)
                for ww, cc in t.coeffs.items():
                    mat[index[ww], gen - 1] += sign * c * cc
            blocks.append(mat)
        _KERNEL_CACHE[3] = blocks
    blocks = _KERNEL_CACHE[3]
    if not blocks:
        return None
    total = zeros_matrix(8, 2, EXACT)
    for b in blocks:
        total = total + b * Fraction(rng.randint(-2, 2))
    arr = np.array([[complex(x) for x in row] for row in total])
    return arr if np.max(np.abs(arr)) > 0 else None


def test_criterion_3_omega_closure():
    """50 omega-preserving Phi built at level k+1 = 4 (g = 1, k = 3): the
    extended log annihilates omega to 1e-9."""
    rng = seeded(103)
    np_rng = np.random.default_rng(103)
    level = 4  # one level above the claimed membership, per the definition
    w = omega_tensor(1, level, COMPLEX)
    worst = 0.0
    for _ in range(50):
        phi = _random_omega_preserving_aut(rng, np_rng, level)
        assert phi.preserves_omega(1, 1e-10)
        report = ln_aut(phi)
        value = report.derivation.apply(w).max_abs()
        assert value < 1e-9
        assert report.omega_annihilated is True
        worst = max(worst, float(value))
    _report(3, f"50 omega-preserving inputs; max |D(omega)| = {worst:.2e}")


def test_criterion_4_unipotent_consistency():
    """50 unipotent Phi: complex-backend ln_aut agrees with the exact
    Maclaurin log to 1e-9 per coefficient."""
    rng = seeded(104)
    worst = 0.0
    for rep in range(50):
        n, k = (2, 4) if rep % 2 == 0 else (2, 3)
        phi = random_ia_hopf_aut(rng, n, k)
        if rep % 5 == 0:
            # include non-IA unipotent degree-1 parts
            a = as_matrix([[1, 1], [0, 1]], EXACT)
            phi = phi.compose(GradedAut.splitting(a, k))
        exact_log = log_unipotent(phi)
        report = ln_aut(phi)
        assert report.residual < 1e-9
        diff = 0.0
        for m in range(1, k):
            delta = np.asarray(
                report.derivation.block(m), dtype=complex
            ) - np.array(
                [[complex(x) for x in row] for row in exact_log.block(m)]
            )
            diff = max(diff, float(np.max(np.abs(delta))))
        assert diff < 1e-9
        worst = max(worst, diff)
    _report(4, f"50 unipotent inputs; max |ln - Log| = {worst:.2e}")


def test_criterion_5_composition_formula():
    """Partition-sum compose equals the action-on-basis-words oracle exactly
    on 100 random exact pairs (n <= 3, k <= 5); printed w2, w3, w4 formulas
    reproduced as special cases."""
    rng = seeded(105)
    combos = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]
    for rep in range(100):
        n, k = combos[rep % len(combos)]
        phi = random_ia_aut(rng, n, k).compose(
            GradedAut.splitting(random_invertible_exact(rng, n), k)
        )
        psi = random_ia_aut(rng, n, k).compose(
            GradedAut.splitting(random_invertible_exact(rng, n), k)
        )
        composed = phi.compose(psi)
        oracle = GradedAut.from_generator_images(
            [phi.apply(img) for img in psi.generator_images()]
        )
        assert composed == oracle, (n, k, rep)
        if rep % 10 == 0:
            # literal check: the composite acts on every basis word as the
            # chained linear actions do
            from lielog.tensor_algebra import TruncatedTensor
            from util import word_basis

            for w in word_basis(n, k):
                t = TruncatedTensor(n, k, {w: 1})
                assert composed.apply(t) == phi.apply(psi.apply(t))

    # printed degree formulas as special cases (exact, n = 2, k = 5)
    n, k = 2, 5
    for _ in range(5):
        phi = random_ia_aut(rng, n, k).compose(
            GradedAut.splitting(random_invertible_exact(rng, n), k)
        )
        psi = random_ia_aut(rng, n, k).compose(
            GradedAut.splitting(random_invertible_exact(rng, n), k)
        )
        comp = phi.compose(psi)
        a = phi.A
        a_inv = matrix_inverse(a, EXACT)
        ident = eye_matrix(n, EXACT)

        def conj(v, ell):
            return kron_power(a, ell, EXACT) @ v @ a_inv

        u2, u3, u4 = (phi.u_block(m) for m in (2, 3, 4))
        v2, v3, v4 = (psi.u_block(m) for m in (2, 3, 4))
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
    _report(5, "100 exact compose-vs-action checks and printed w2, w3, w4 formulas")


def test_criterion_6_bch_kernel_vs_series():
    """At k = 3 BCH of a non-IA X by the kernel solve agrees with the Dynkin
    series to 1e-10 on 50 instances; the convention is recorded in a
    fixture."""
    np_rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        # |eigenvalues| <= 0.8 keeps |ad| <= 2.4, so the order-32 series tail
        # is ~(2.4/2pi)^32 ~ 4e-14, well under the 1e-10 agreement target
        x1 = np.diag(np_rng.uniform(-0.8, 0.8, size=2)).astype(complex)
        if np_rng.uniform() < 0.5:
            # non-diagonal degree-1 parts too
            p = np_rng.normal(size=(2, 2))
            x1 = p @ x1 @ np.linalg.inv(p)
        x = GradedDerivation(2, 3, {1: x1}, backend=COMPLEX)
        y2 = (np_rng.normal(size=(4, 2)) + 1j * np_rng.normal(size=(4, 2))) * 0.5
        y = GradedDerivation(2, 3, {2: y2}, backend=COMPLEX)
        kern = bch_series(x, y).derivation
        ser = dynkin_bch(x, y, order=32)
        diff = max(
            float(
                np.max(
                    np.abs(
                        np.asarray(kern.block(m), dtype=complex)
                        - np.asarray(ser.block(m), dtype=complex)
                    )
                )
            )
            for m in (1, 2)
        )
        assert diff < 1e-10
        worst = max(worst, diff)
    convention = json.loads((FIXTURE_DIR / "bch_convention.json").read_text())
    assert convention["kernel"] == "z/(1-exp(-z))"
    assert convention["composition"] == "exp(X) o exp(Y), exp(Y) applied first"
    _report(6, f"50 kernel-vs-series agreements; max diff {worst:.2e}")


def test_criterion_7_jordan_tensor_decomposition():
    """Tensor block formula matches brute-force Jordan forms of Kronecker
    products for all 1 <= l, m <= 4 and 10 random eigenvalue pairs; sizes sum
    to l*m in every case."""
    np_rng = np.random.default_rng(107)
    pairs = 0
    while pairs < 10:
        lam = complex(np_rng.normal(), np_rng.normal())
        mu = complex(np_rng.normal(), np_rng.normal())
        if abs(lam) < 0.3 or abs(mu) < 0.3:
            continue
        pairs += 1
        for ell in range(1, 5):
            for m in range(1, 5):
                predicted = jordan_tensor_blocks(lam, ell, mu, m)
                assert sum(size for _, size in predicted) == ell * m
                kron = np.kron(
                    jordan_single_block(lam, ell), jordan_single_block(mu, m)
                )
                brute = jordan_block_sizes(kron, lam * mu)
                assert brute == sorted(
                    (size for _, size in predicted), reverse=True
                ), (lam, mu, ell, m)
    _report(7, "10 random eigenvalue pairs, all block shapes 1..4 x 1..4")


def test_criterion_8_johnson_pipeline():
    """Genus-1 fixtures: single twists have unipotent induced parts; the
    trace-3 composite has eigenvalues (3 +- sqrt5)/2 to 1e-10 and its
    extended log round-trips with residual < 1e-9 at k = 3 and k = 4."""
    fx = dehn_fixtures(1)
    golden = sorted(np.roots([1.0, -3.0, 1.0]).real)
    for k in (3, 4):
        th = theta_exp(2, k)
        for name in ("t_a", "t_b"):
            t = total_johnson(th, fx[name])
            eigs = np.linalg.eigvals(
                np.array([[complex(x) for x in row] for row in t.A])
            )
            assert np.allclose(sorted(eigs.real), [1.0, 1.0], atol=1e-12)
            assert np.allclose(eigs.imag, 0.0, atol=1e-12)
        t = total_johnson(th, fx["anosov"]).to_complex()
        eigs = sorted(np.linalg.eigvals(np.asarray(t.A, dtype=complex)).real)
        assert abs(eigs[0] - golden[0]) < 1e-10
        assert abs(eigs[1] - golden[1]) < 1e-10
        report = ln_aut(t)
        assert report.residual < 1e-9
    _report(8, "twist fixtures unipotent; composite log round-trips at k=3,4")


def test_criterion_9_centrality():
    """At level m+1 a top-degree-only IA element commutes exactly with 50
    random IA automorphisms, m in {2, 3}."""
    rng = seeded(109)
    for m in (2, 3):
        k = m + 1
        for rep in range(50):
            blk = random_block(rng, 2, k, m, density=0.7)
            if blk is None:
                continue
            central = GradedAut(2, k, eye_matrix(2, EXACT), {m: blk})
            other = random_ia_aut(rng, 2, k, density=0.7)
            assert central.compose(other) == other.compose(central), (m, rep)
    _report(9, "central top-degree elements commute exactly, m in {2,3}")


def test_criterion_10_conjugation_identity():
    """Dual-path conjugation identity agrees exactly on 50 random exact IA
    pairs, n = 2, k = 4."""
    from lielog.derivations import conjugation_defect

    rng = seeded(110)
    for rep in range(50):
        x = random_ia_derivation(rng, 2, 4)
        y = random_ia_derivation(rng, 2, 4)
        # conjugation_defect internally computes both routes and raises if
        # they disagree at exact tolerance
        conjugation_defect(x, y, tol=0)
    _report(10, "50 exact dual-path conjugation evaluations")


def test_criterion_11_solvability_fixture_table():
    """The fixture table of verdicts is reproduced and every not_solvable
    verdict carries a unit-circle witness."""
    table = [
        (np.eye(2), "solvable"),
        (np.array([[0.0, -1.0], [1.0, 0.0]]), "not_solvable"),
        (np.array([[2.0, 1.0], [1.0, 1.0]]), "solvable"),
        (np.diag([2.0, -2.0]), "not_solvable"),
    ]
    for mat, expected in table:
        verdict = eig_unit_circle_obstruction(mat)
        assert verdict.verdict == expected
        if expected == "not_solvable":
            assert verdict.witness is not None
            assert abs(abs(verdict.witness) - 1.0) < 1e-9
            assert abs(verdict.witness - 1.0) > 1e-9
    _report(11, "verdict table reproduced with unit-circle witnesses")
