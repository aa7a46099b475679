"""Free-group machinery, Magnus expansions, the total Johnson map."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lielog.automorphisms import GradedAut, transporter
from lielog.free_lie import omega_tensor
from lielog.logarithm import ln_aut, log_unipotent
from lielog.magnus import (
    FreeGroupEndo,
    FreeGroupWord,
    MagnusExpansion,
    boundary_word,
    dehn_fixtures,
    is_symplectic_expansion,
    theta_exp,
    total_johnson,
)
from lielog.scalars import EXACT, DomainError
from lielog.spectral import eig_unit_circle_obstruction
from lielog.tensor_algebra import TruncatedTensor, tensor_exp

from util import random_ia_hopf_aut, seeded


def test_free_reduction():
    w = FreeGroupWord([1, 2, -2, -1, 1])
    assert w.letters == (1,)
    assert (w * w.inverse()).letters == ()
    assert FreeGroupWord([1, 2]).inverse().letters == (-2, -1)


def test_commutator_and_boundary():
    c = FreeGroupWord.commutator(FreeGroupWord.generator(1), FreeGroupWord.generator(2))
    assert c.letters == (1, 2, -1, -2)
    assert boundary_word(2).letters == (1, 2, -1, -2, 3, 4, -3, -4)


def test_endo_induced_matrix_and_composition():
    fx = dehn_fixtures(1)
    assert fx["t_a"].induced_matrix().tolist() == [[1, 1], [0, 1]]
    assert fx["t_b"].induced_matrix().tolist() == [[1, 0], [-1, 1]]
    assert fx["anosov"].induced_matrix().tolist() == [[2, 1], [1, 1]]
    # induced matrix of a composite is the product of induced matrices
    comp = fx["t_a"].compose(fx["t_b"])
    expected = fx["t_a"].induced_matrix() @ fx["t_b"].induced_matrix()
    assert comp.induced_matrix().tolist() == expected.tolist()
    assert fx["t_b"].compose(fx["t_b_inv"]).induced_matrix().tolist() == [[1, 0], [0, 1]]
    for name in ("t_a", "t_b", "anosov"):
        assert fx[name].is_invertible_over_z()


def test_theta_exp_images():
    th = theta_exp(2, 3)
    assert th.images[0] == TruncatedTensor(
        2, 3, {(): 1, (1,): 1, (1, 1): Fraction(1, 2)}
    )
    ident = th.base_matrix()
    assert all(ident[i, j] == (1 if i == j else 0) for i in range(2) for j in range(2))
    assert th.is_grouplike_expansion()


def test_evaluate_homomorphism():
    th = theta_exp(2, 4)
    assert th.evaluate(FreeGroupWord()) == TruncatedTensor.unit(2, 4)
    assert th.evaluate(FreeGroupWord([1, -1])) == TruncatedTensor.unit(2, 4)
    u = th.evaluate(FreeGroupWord([1, 2]))
    v = th.evaluate(FreeGroupWord([1])) * th.evaluate(FreeGroupWord([2]))
    assert u == v
    comm = th.evaluate(
        FreeGroupWord.commutator(FreeGroupWord.generator(1), FreeGroupWord.generator(2))
    )
    assert comm.degree_component(2) == TruncatedTensor(2, 4, {(1, 2): 1, (2, 1): -1})


def test_symplectic_expansion_checks():
    th3 = theta_exp(2, 3)
    assert is_symplectic_expansion(th3, 1)
    # at k = 4 the standard expansion is no longer symplectic
    th4 = theta_exp(2, 4)
    assert not is_symplectic_expansion(th4, 1)
    # a degree-1 perturbation (base matrix diag(2,1)) scales omega: false
    x1 = TruncatedTensor.generator(2, 3, 1)
    scaled = MagnusExpansion(
        [tensor_exp(x1.scale(2)), theta_exp(2, 3).images[1]]
    )
    assert scaled.is_grouplike_expansion()
    assert not is_symplectic_expansion(scaled, 1)
    # non-group-like input is a precondition error
    bad = MagnusExpansion(
        [TruncatedTensor.unit(2, 3) + x1, theta_exp(2, 3).images[1]]
    )
    with pytest.raises(DomainError):
        is_symplectic_expansion(bad, 1)


def test_degree2_perturbation_invisible_at_k3_visible_at_k4():
    # over the identity base matrix, every group-like expansion satisfies the
    # boundary condition at k = 3 (an IA Hopf automorphism fixes omega there),
    # so a primitive degree-2 perturbation only registers from k = 4 on
    for k, visible in ((3, False), (4, True)):
        th = theta_exp(2, k)
        comm = TruncatedTensor(2, k, {(1, 2): 1, (2, 1): -1})
        x1 = TruncatedTensor.generator(2, k, 1)
        perturbed = MagnusExpansion([tensor_exp(x1 + comm), th.images[1]])
        assert perturbed.is_grouplike_expansion()
        base_value = th.evaluate(boundary_word(1))
        new_value = perturbed.evaluate(boundary_word(1))
        assert (new_value != base_value) == visible
        if not visible:
            assert is_symplectic_expansion(perturbed, 1)


def test_expansion_validation():
    with pytest.raises(DomainError):
        MagnusExpansion([TruncatedTensor.generator(2, 3, 1)] * 2)  # constant 0
    x1 = TruncatedTensor.generator(2, 3, 1)
    with pytest.raises(DomainError):
        # degree-1 part singular (both images have the same degree-1 part)
        MagnusExpansion([TruncatedTensor.unit(2, 3) + x1] * 2)


def test_total_johnson_identity():
    th = theta_exp(2, 4)
    ident = FreeGroupEndo(2, [[1], [2]])
    assert total_johnson(th, ident).is_identity(0)


def test_total_johnson_intertwines():
    th = theta_exp(2, 4)
    fx = dehn_fixtures(1)
    for name in ("t_a", "t_b", "anosov"):
        endo = fx[name]
        t = total_johnson(th, endo)
        for i in range(2):
            lhs = t.apply(th.images[i])
            rhs = th.evaluate(endo.images[i])
            assert lhs == rhs


def test_total_johnson_transvection_unipotent():
    th = theta_exp(2, 4)
    fx = dehn_fixtures(1)
    t = total_johnson(th, fx["t_a"])
    a = np.array([[float(x) for x in row] for row in t.A])
    assert a.tolist() == [[1.0, 1.0], [0.0, 1.0]]
    eigs = np.linalg.eigvals(a)
    assert np.allclose(sorted(eigs.real), [1.0, 1.0])
    # unipotent A feeds the Maclaurin logarithm
    d = log_unipotent(t)
    from lielog.derivations import exp_derivation

    assert exp_derivation(d) == t


def test_total_johnson_homomorphism_property():
    th = theta_exp(2, 4)
    fx = dehn_fixtures(1)
    pairs = [("t_a", "t_b"), ("t_b", "t_a_inv"), ("t_a", "anosov")]
    for n1, n2 in pairs:
        lhs = total_johnson(th, fx[n1].compose(fx[n2]))
        rhs = total_johnson(th, fx[n1]).compose(total_johnson(th, fx[n2]))
        assert lhs == rhs


def test_total_johnson_rejects_non_invertible():
    th = theta_exp(2, 3)
    collapse = FreeGroupEndo(2, [[1], [1]])
    with pytest.raises(DomainError):
        total_johnson(th, collapse)


def test_hopf_action_preserves_grouplike():
    rng = seeded(1)
    th = theta_exp(2, 4)
    for _ in range(4):
        u = random_ia_hopf_aut(rng, 2, 4)
        pushed = MagnusExpansion([u.apply(img) for img in th.images])
        assert pushed.is_grouplike_expansion()


def test_action_freeness_at_desk_scale():
    rng = seeded(2)
    th = theta_exp(2, 4)
    for _ in range(4):
        u = random_ia_hopf_aut(rng, 2, 4)
        pushed = MagnusExpansion([u.apply(img) for img in th.images])
        assert transporter(th, pushed) == u


def test_anosov_solvable_and_pipeline():
    fx = dehn_fixtures(1)
    mat = fx["anosov"].induced_matrix().astype(float)
    assert eig_unit_circle_obstruction(mat).verdict == "solvable"
    for k in (3, 4):
        th = theta_exp(2, k)
        t = total_johnson(th, fx["anosov"]).to_complex()
        report = ln_aut(t)
        assert report.residual < 1e-9
        eigs = sorted(np.linalg.eigvals(np.asarray(t.A, dtype=complex)).real)
        golden = (3.0 - math.sqrt(5.0)) / 2, (3.0 + math.sqrt(5.0)) / 2
        assert abs(eigs[0] - golden[0]) < 1e-10
        assert abs(eigs[1] - golden[1]) < 1e-10


def test_total_johnson_over_general_base_matrix():
    # an expansion over diag(2,1): images exp(2 X1), exp(X2) are group-like
    x1 = TruncatedTensor.generator(2, 4, 1)
    x2 = TruncatedTensor.generator(2, 4, 2)
    th = MagnusExpansion([tensor_exp(x1.scale(2)), tensor_exp(x2)])
    assert th.is_grouplike_expansion()
    base = th.base_matrix()
    assert base[0, 0] == 2 and base[1, 1] == 1
    fx = dehn_fixtures(1)
    for name in ("t_a", "anosov"):
        t = total_johnson(th, fx[name])
        for i in range(2):
            assert t.apply(th.images[i]) == th.evaluate(fx[name].images[i])


def test_evaluate_respects_inversion():
    th = theta_exp(2, 4)
    rng = seeded(3)
    for _ in range(5):
        letters = [rng.choice([1, 2, -1, -2]) for _ in range(6)]
        w = FreeGroupWord(letters)
        u = th.evaluate(w)
        v = th.evaluate(w.inverse())
        from lielog.tensor_algebra import mul

        assert mul(u, v) == TruncatedTensor.unit(2, 4)
