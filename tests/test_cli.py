"""Command-line interface: exit codes, report self-checking, fixtures."""

import json
import math

import numpy as np
import pytest

from lielog import cli, jsonio
from lielog.automorphisms import GradedAut
from lielog.cli import main
from lielog.derivations import GradedDerivation, exp_derivation
from lielog.magnus import dehn_fixtures, theta_exp, total_johnson
from lielog.scalars import COMPLEX, EXACT, as_matrix

from util import random_ia_hopf_aut, seeded


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bases_counts(capsys):
    code, out = run_cli(capsys, "bases", "--n", "2", "--k", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"1": 2, "2": 1, "3": 2, "4": 3}


def test_check_exp_solvable(tmp_path, capsys):
    path = tmp_path / "anosov.json"
    path.write_text(
        json.dumps(
            {
                "rows": [
                    [{"re": 2.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
                    [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
                ]
            }
        )
    )
    code, out = run_cli(capsys, "check", "exp-solvable", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "solvable"
    assert len(payload["eigenvalues"]) == 2


def test_check_not_solvable_carries_witness(tmp_path, capsys):
    path = tmp_path / "rot.json"
    path.write_text(
        json.dumps(
            {
                "rows": [
                    [{"re": 0.0, "im": 0.0}, {"re": -1.0, "im": 0.0}],
                    [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                ]
            }
        )
    )
    code, out = run_cli(capsys, "check", "exp-solvable", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not_solvable"
    assert payload["witness"] is not None


def test_check_exp_solvable_large_bound(tmp_path, capsys):
    # the relation search covers the whole box max|v_i| <= 20: 41^4 vectors
    path = tmp_path / "diag.json"
    diag = [2.0, 3.0, -5.0, 7.0]
    rows = [[{"re": diag[i] if i == j else 0.0, "im": 0.0} for j in range(4)] for i in range(4)]
    path.write_text(json.dumps({"rows": rows}))
    code, out = run_cli(capsys, "check", "exp-solvable", "--input", str(path), "--bound", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "solvable"
    assert payload["detail"] == "moduli multiplicatively independent at exponent bound 20"


def test_log_aut_identity_exit_zero(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(jsonio.dumps(jsonio.aut_to_json(GradedAut.identity(2, 3))))
    code, out = run_cli(capsys, "log-aut", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] == 0.0
    assert payload["derivation"]["d"] == {}


def test_log_aut_report_self_check(tmp_path, capsys):
    rng = seeded(1)
    a = as_matrix([[2, 1], [1, 1]], EXACT)
    phi = random_ia_hopf_aut(rng, 2, 3).compose(GradedAut.splitting(a, 3)).to_complex()
    path = tmp_path / "phi.json"
    path.write_text(jsonio.dumps(jsonio.aut_to_json(phi)))
    out_path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "log-aut", "--input", str(path), "--output", str(out_path)
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    # the report is self-checking: recompute the residual from its own data
    deriv = jsonio.derivation_from_json(report["derivation"])
    phi_back = jsonio.aut_from_json(report["input"])
    regen = exp_derivation(deriv)
    residual = max(
        (regen.generator_images()[i] - phi_back.generator_images()[i]).max_abs()
        for i in range(2)
    )
    assert residual <= 2 * max(report["residual"], 1e-12)


def _strict_json(text):
    """Parse JSON, refusing the NaN and Infinity extensions."""
    def refuse(token):
        raise ValueError(f"{token} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


def test_log_aut_trace_names_the_kernel_path(tmp_path, capsys):
    # anosov: diagonalisable with cond(V) = 1, solved in the eigenbasis;
    # P J_2(2) P^-1: defective, so V is (nearly) singular and the solve is dense
    anosov = total_johnson(theta_exp(2, 5), dehn_fixtures(1)["anosov"])
    p = np.array([[1.0, 1.0], [1.0, 2.0]])
    jordan = (p @ np.array([[2.0, 1.0], [0.0, 2.0]]) @ np.linalg.inv(p)).astype(complex)
    rng = np.random.default_rng(5)
    u = {m: 0.1 * rng.normal(size=(2**m, 2)).astype(complex) for m in (2, 3, 4)}
    cases = ((anosov, "eigenbasis"), (GradedAut(2, 5, jordan, u, COMPLEX), "dense"))
    for phi, path in cases:
        in_path = tmp_path / f"{path}.json"
        in_path.write_text(jsonio.dumps(jsonio.aut_to_json(phi)))
        code, out = run_cli(capsys, "log-aut", "--input", str(in_path))
        assert code == 0
        trace = _strict_json(out)["trace"]
        assert [entry["degree"] for entry in trace] == [2, 3, 4]
        for entry in trace:
            assert entry["path"] == path
            cond_v = entry["cond_v"]
            assert cond_v is None or math.isfinite(cond_v)
            if path == "eigenbasis":
                assert cond_v == pytest.approx(1.0)


def test_log_aut_rejects_rotation(tmp_path, capsys):
    rot = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    path = tmp_path / "rot.json"
    path.write_text(jsonio.dumps(jsonio.aut_to_json(GradedAut.splitting(rot, 3))))
    code, out = run_cli(capsys, "log-aut", "--input", str(path))
    assert code == 2
    assert "error" in json.loads(out)


def test_log_aut_impossible_tolerance_exit_one(tmp_path, capsys):
    rng = seeded(2)
    a = as_matrix([[2, 1], [1, 1]], EXACT)
    phi = random_ia_hopf_aut(rng, 2, 3).compose(GradedAut.splitting(a, 3)).to_complex()
    path = tmp_path / "phi.json"
    path.write_text(jsonio.dumps(jsonio.aut_to_json(phi)))
    out_path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys,
        "log-aut", "--input", str(path), "--tol", "1e-30",
        "--output", str(out_path),
    )
    assert code == 1
    assert out_path.exists()  # report still written on verification failure


# Out-of-range tolerances and bounds are rejected, not turned into a verdict
# or a "verified" report.  diag(-2, 2) is not solvable (2/2 = 1 with odd
# negative part); at pole_tol <= 0 the splitting of diag(-2, -8) would be
# solved at kernel margin 4e-16 (3 log(-2) - log(-8) = 2 pi i).
_ROTATION = [[0.0, -1.0], [1.0, 0.0]]
_MIXED = [[-2.0, 0.0], [0.0, 2.0]]
_ANOSOV = GradedAut.splitting(np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex), 3)
_POLE = GradedAut.splitting(np.diag([-2.0, -8.0]).astype(complex), 4)
BAD_TOLERANCES = [
    ("check", _ROTATION, ["--tol", "nan"]),
    ("check", _ROTATION, ["--tol", "inf"]),
    ("check", _ROTATION, ["--tol", "-1"]),
    ("check", _MIXED, ["--bound", "0"]),
    ("check", _MIXED, ["--bound", "-1"]),
    ("log-aut", _ANOSOV, ["--tol", "inf"]),
    ("log-aut", _ANOSOV, ["--tol", "nan"]),
    ("log-aut", _ANOSOV, ["--tol", "-1"]),
    ("log-aut", _POLE, ["--force", "--pole-tol", "nan"]),
    ("log-aut", _POLE, ["--force", "--pole-tol", "-1"]),
    ("log-aut", _POLE, ["--force", "--pole-tol", "0"]),
]


@pytest.mark.parametrize(
    "command,data,flags", BAD_TOLERANCES,
    ids=[f"{c}{''.join(f)}" for c, _, f in BAD_TOLERANCES],
)
def test_out_of_range_tolerances_exit_two(tmp_path, capsys, command, data, flags):
    path = tmp_path / "input.json"
    if command == "check":
        rows = [[{"re": v, "im": 0.0} for v in row] for row in data]
        path.write_text(json.dumps({"rows": rows}))
        argv = ["check", "exp-solvable", "--input", str(path)]
    else:
        path.write_text(jsonio.dumps(jsonio.aut_to_json(data)))
        argv = ["log-aut", "--input", str(path)]
    code, out = run_cli(capsys, *argv, *flags)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_log_unipotent_cli_recomputes_residual(tmp_path, capsys, monkeypatch):
    phi = random_ia_hopf_aut(seeded(3), 2, 4)
    assert not phi.is_identity(0)
    path = tmp_path / "phi.json"
    path.write_text(jsonio.dumps(jsonio.aut_to_json(phi)))
    code, out = run_cli(capsys, "log-unipotent", "--input", str(path))
    assert code == 0
    assert json.loads(out)["residual"] == 0.0
    # a wrong logarithm must be caught: exp(0) is the identity, not phi
    monkeypatch.setattr(cli, "log_unipotent", lambda phi: GradedDerivation.zero(2, 4))
    code, out = run_cli(capsys, "log-unipotent", "--input", str(path))
    assert code == 1
    assert math.isnan(json.loads(out)["residual"])


def test_log_unipotent_cli(tmp_path, capsys):
    rng = seeded(3)
    phi = random_ia_hopf_aut(rng, 2, 4)
    path = tmp_path / "phi.json"
    path.write_text(jsonio.dumps(jsonio.aut_to_json(phi)))
    code, out = run_cli(capsys, "log-unipotent", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    deriv = jsonio.derivation_from_json(payload["derivation"])
    assert exp_derivation(deriv) == phi


def test_log_unipotent_rejects_anosov(tmp_path, capsys):
    a = as_matrix([[2, 1], [1, 1]], EXACT)
    path = tmp_path / "phi.json"
    path.write_text(jsonio.dumps(jsonio.aut_to_json(GradedAut.splitting(a, 3))))
    code, out = run_cli(capsys, "log-unipotent", "--input", str(path))
    assert code == 2


def test_log_unipotent_cli_rejects_complex(tmp_path, capsys):
    phi = random_ia_hopf_aut(seeded(3), 2, 4).to_complex()
    path = tmp_path / "phi.json"
    path.write_text(jsonio.dumps(jsonio.aut_to_json(phi)))
    code, out = run_cli(capsys, "log-unipotent", "--input", str(path))
    assert code == 2
    assert "ln_aut" in json.loads(out)["error"]["message"]
    code, _ = run_cli(capsys, "log-aut", "--input", str(path))
    assert code == 0


def test_johnson_cli(tmp_path, capsys):
    endo = dehn_fixtures(1)["anosov"]
    path = tmp_path / "endo.json"
    path.write_text(jsonio.dumps(jsonio.endo_to_json(endo)))
    code, out = run_cli(capsys, "johnson", "--endo", str(path), "--k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["induced_matrix"] == [[2, 1], [1, 1]]
    aut = jsonio.aut_from_json(payload["total_johnson"])
    expected = total_johnson(theta_exp(2, 4), endo)
    assert aut == expected


def test_bch_cli_series_and_kernel(tmp_path, capsys):
    from util import dynkin_bch, random_ia_derivation

    rng = seeded(4)
    x = GradedDerivation(
        2, 3, {1: np.diag([math.log(2), math.log(3)]).astype(complex)}, backend=COMPLEX
    )
    y = random_ia_derivation(rng, 2, 3).to_complex()
    xp = tmp_path / "x.json"
    yp = tmp_path / "y.json"
    xp.write_text(jsonio.dumps(jsonio.derivation_to_json(x)))
    yp.write_text(jsonio.dumps(jsonio.derivation_to_json(y)))
    code, out = run_cli(capsys, "bch", "--x", str(xp), "--y", str(yp))
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-9
    dk = jsonio.derivation_from_json(payload["derivation"])
    assert dk.close_to(dynkin_bch(x, y, order=24), 1e-9)


def test_fixtures_cli(capsys):
    code, out = run_cli(capsys, "fixtures", "--genus", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["endos"]) == {"t_a", "t_a_inv", "t_b", "t_b_inv", "anosov"}


ZERO_DEN = {"num": "1", "den": "0"}
# a complex coefficient in an object that declares the exact backend
COMPLEX_IN_EXACT = {"n": 1, "k": 3, "backend": "exact", "A": [[{"re": 1.0, "im": 0.0}]]}


@pytest.mark.parametrize(
    "argv, text, error",
    [
        (["log-aut"], "{not json", "CliError"),
        (["check", "exp-solvable"], json.dumps({"rows": [[ZERO_DEN]]}), "DomainError"),
        (["check", "exp-solvable"], json.dumps({"rows": [[{"re": "x", "im": 0}]]}), "DomainError"),
        (["check", "exp-solvable"], json.dumps({"rows": [[{"re": None, "im": 0}]]}), "DomainError"),
        (["check", "exp-solvable"], json.dumps({"rows": [[{"num": 1.5, "den": 1}]]}), "DomainError"),
        (["check", "exp-solvable"], json.dumps({"rows": [[{"num": True, "den": 2}]]}), "DomainError"),
        (["check", "exp-solvable"], json.dumps({"rows": [[{"num": 1, "den": 2.0}]]}), "DomainError"),
        (["log-unipotent"], json.dumps({"n": 1, "k": 3, "A": [[ZERO_DEN]]}), "DomainError"),
        (["log-unipotent"], json.dumps(COMPLEX_IN_EXACT), "DomainError"),
        (["log-aut"], json.dumps(COMPLEX_IN_EXACT), "DomainError"),
    ],
    ids=[
        "not-json", "zero-denominator", "string-re", "null-re",
        "float-num", "bool-num", "float-den",
        "unipotent-zero-denominator", "unipotent-complex-in-exact", "log-aut-complex-in-exact",
    ],
)
def test_malformed_json_exit_two(tmp_path, capsys, argv, text, error):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run_cli(capsys, *argv, "--input", str(path))
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == error


def test_johnson_cli_with_expansion_file(tmp_path, capsys):
    from lielog.magnus import MagnusExpansion
    from lielog.tensor_algebra import TruncatedTensor, tensor_exp

    x1 = TruncatedTensor.generator(2, 3, 1)
    x2 = TruncatedTensor.generator(2, 3, 2)
    theta = MagnusExpansion([tensor_exp(x1.scale(2)), tensor_exp(x2)])
    tpath = tmp_path / "theta.json"
    tpath.write_text(jsonio.dumps(jsonio.expansion_to_json(theta)))
    endo = dehn_fixtures(1)["anosov"]
    epath = tmp_path / "endo.json"
    epath.write_text(jsonio.dumps(jsonio.endo_to_json(endo)))
    code, out = run_cli(
        capsys,
        "johnson", "--endo", str(epath), "--k", "3", "--expansion", str(tpath),
    )
    assert code == 0
    assert json.loads(out)["verified"] is True
