"""Command-line front end.

Exit codes: 0 = computed and verified, 1 = computed but verification failed
(the report is still written), 2 = input rejected (malformed JSON, failed
precondition, or solvability rejection).  Malformed input produces a
machine-readable error object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import jsonio
from .derivations import exp_derivation
from .free_lie import lyndon_basis
from .logarithm import SolvabilityError, bch_series, ln_aut, log_unipotent
from .magnus import dehn_fixtures, theta_exp, total_johnson
from .scalars import COMPLEX, EXACT, DomainError, KernelSingular, matrix_to_backend
from .spectral import DEFAULT_TOL, eig_unit_circle_obstruction


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}") from exc


def _write(payload, output):
    text = jsonio.dumps(payload)
    if output in (None, "-"):
        print(text)
    else:
        with open(output, "w") as fh:
            fh.write(text + "\n")


class CliError(Exception):
    pass


def _error_payload(exc):
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def cmd_bases(args):
    basis = lyndon_basis(args.n, args.k)
    payload = {
        "n": args.n,
        "k": args.k,
        "counts": {str(m): len(ws) for m, ws in basis.items()},
        "words": {str(m): [list(w) for w in ws] for m, ws in basis.items()},
    }
    _write(payload, args.output)
    return 0


def cmd_check(args):
    if args.what != "exp-solvable":
        raise CliError(f"unknown check {args.what!r}; expected 'exp-solvable'")
    mat = jsonio.matrix_from_json(_read_json(args.input), COMPLEX)
    verdict = eig_unit_circle_obstruction(
        np.asarray(mat, dtype=complex), exponent_bound=args.bound, tol=args.tol
    )
    _write(verdict.to_json(), args.output)
    return 0


def cmd_log_aut(args):
    phi = jsonio.aut_from_json(_read_json(args.input))
    report = ln_aut(phi, tol=args.tol, pole_tol=args.pole_tol, force=args.force)
    payload = jsonio.report_to_json(report, phi=phi)
    _write(payload, args.output)
    return 0 if report.verified else 1


def cmd_log_unipotent(args):
    phi = jsonio.aut_from_json(_read_json(args.input))
    deriv = log_unipotent(phi)
    # the Maclaurin logarithm is checked by exp(deriv) == phi
    verified = exp_derivation(deriv) == phi
    payload = {
        "derivation": jsonio.derivation_to_json(deriv),
        "residual": 0.0 if verified else float("nan"),
        "exact": True,
        "input": jsonio.aut_to_json(phi),
    }
    _write(payload, args.output)
    return 0 if verified else 1


def cmd_johnson(args):
    endo = jsonio.endo_from_json(_read_json(args.endo))
    backend = args.backend or EXACT
    if args.expansion == "exp":
        theta = theta_exp(endo.n, args.k, backend)
    else:
        theta = jsonio.expansion_from_json(_read_json(args.expansion))
    aut = total_johnson(theta, endo)
    # re-verify the intertwining identity on the generators
    verified = all(
        aut.apply(theta.images[i]).close_to(
            theta.evaluate(endo.images[i]), None if backend == COMPLEX else 0
        )
        for i in range(endo.n)
    )
    eigs = np.linalg.eigvals(matrix_to_backend(aut.A, COMPLEX))
    payload = {
        "total_johnson": jsonio.aut_to_json(aut),
        "induced_matrix": endo.induced_matrix().tolist(),
        "base_matrix_eigenvalues": [{"re": z.real, "im": z.imag} for z in eigs],
        "verified": verified,
    }
    _write(payload, args.output)
    return 0 if verified else 1


def cmd_bch(args):
    x = jsonio.derivation_from_json(_read_json(args.x))
    y = jsonio.derivation_from_json(_read_json(args.y))
    result = bch_series(x, y)
    payload = {
        "derivation": jsonio.derivation_to_json(result.derivation),
        "residual": result.residual,
    }
    _write(payload, args.output)
    return 0 if result.residual is None or result.residual <= DEFAULT_TOL else 1


def cmd_fixtures(args):
    fixtures = dehn_fixtures(args.genus)
    payload = {
        "genus": args.genus,
        "endos": {name: jsonio.endo_to_json(endo) for name, endo in fixtures.items()},
    }
    _write(payload, args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lielog",
        description="logarithms of automorphisms of truncated free algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bases", help="Lyndon basis words per degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bases)

    p = sub.add_parser("check", help="spectral predicates on a matrix")
    p.add_argument("what", help="exp-solvable")
    p.add_argument("--input", required=True)
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("log-aut", help="extended logarithm of an automorphism")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--pole-tol", type=float, default=1e-6, dest="pole_tol",
                   help="rejection distance from kernel singularities")
    p.add_argument("--force", action="store_true",
                   help="run on an inconclusive solvability verdict")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_log_aut)

    p = sub.add_parser("log-unipotent",
                       help="exact Maclaurin logarithm of a unipotent automorphism")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_log_unipotent)

    p = sub.add_parser("johnson", help="total Johnson map of a free-group endomorphism")
    p.add_argument("--endo", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--expansion", default="exp",
                   help="'exp' for the standard expansion, or a JSON file")
    p.add_argument("--backend", choices=[EXACT, COMPLEX], default=EXACT)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_johnson)

    p = sub.add_parser("bch", help="Baker-Campbell-Hausdorff combination of derivations")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bch)

    p = sub.add_parser("fixtures", help="named mapping-class fixtures")
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, SolvabilityError, KernelSingular, DomainError, ValueError, KeyError) as exc:
        print(jsonio.dumps(_error_payload(exc)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
