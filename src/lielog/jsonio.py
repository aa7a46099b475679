"""JSON forms of the core types.

Exact scalars serialize as {"num": "...", "den": "..."} strings, complex ones
as {"re": ..., "im": ...} with full-precision floats; the backend of a parsed
object is inferred from its coefficients (an explicit "backend" key is also
written and honored).  Serialization is canonical: terms are sorted, so
serialize(deserialize(s)) is byte-stable for exact data.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .automorphisms import GradedAut
from .derivations import GradedDerivation
from .magnus import FreeGroupEndo, FreeGroupWord, MagnusExpansion
from .free_lie import LiePoly
from .scalars import COMPLEX, EXACT, DomainError, to_scalar, zeros_matrix
from .tensor_algebra import TruncatedTensor


def coeff_to_json(value, backend):
    if backend == EXACT:
        f = Fraction(value)
        return {"num": str(f.numerator), "den": str(f.denominator)}
    z = complex(value)
    return {"re": z.real, "im": z.imag}


def coeff_from_json(obj):
    """Returns (value, backend); DomainError for a malformed coefficient."""
    try:
        if "num" in obj:
            return Fraction(int(obj["num"]), int(obj["den"])), EXACT
        parts = (obj["re"], obj.get("im", 0.0))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"unrecognized coefficient object {obj!r}") from exc
    if not all(type(x) in (int, float) for x in parts):
        raise DomainError(f"non-numeric complex coefficient {obj!r}")
    return complex(*parts), COMPLEX


def _infer_backend(obj, coeff_objs):
    declared = obj.get("backend")
    if declared in (EXACT, COMPLEX):
        return declared
    for c in coeff_objs:
        return coeff_from_json(c)[1]
    return EXACT


# -- tensors -----------------------------------------------------------------

def tensor_to_json(t):
    terms = [
        {"word": list(w), "coeff": coeff_to_json(c, t.backend)}
        for w, c in sorted(t.coeffs.items(), key=lambda it: (len(it[0]), it[0]))
    ]
    return {"n": t.n, "k": t.k, "backend": t.backend, "terms": terms}


def tensor_from_json(obj):
    backend = _infer_backend(obj, (term["coeff"] for term in obj.get("terms", [])))
    coeffs = {}
    for term in obj.get("terms", []):
        value, _ = coeff_from_json(term["coeff"])
        coeffs[tuple(term["word"])] = value
    return TruncatedTensor(obj["n"], obj["k"], coeffs, backend)


def liepoly_to_json(p):
    terms = [
        {"lyndon": list(w), "coeff": coeff_to_json(c, p.backend)}
        for w, c in sorted(p.coeffs.items(), key=lambda it: (len(it[0]), it[0]))
    ]
    return {"n": p.n, "k": p.k, "backend": p.backend, "terms": terms}


def liepoly_from_json(obj):
    backend = _infer_backend(obj, (term["coeff"] for term in obj.get("terms", [])))
    coeffs = {}
    for term in obj.get("terms", []):
        value, _ = coeff_from_json(term["coeff"])
        coeffs[tuple(term["lyndon"])] = value
    return LiePoly(obj["n"], obj["k"], coeffs, backend)


# -- matrices ------------------------------------------------------------------

def matrix_to_json(mat, backend):
    return {
        "rows": [[coeff_to_json(x, backend) for x in row] for row in mat]
    }


def matrix_from_json(obj, backend=None):
    rows = obj["rows"] if isinstance(obj, dict) else obj
    if backend is None:
        backend = coeff_from_json(rows[0][0])[1] if rows and rows[0] else EXACT
    mat = zeros_matrix(len(rows), len(rows[0]) if rows else 0, backend)
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            mat[i, j] = to_scalar(coeff_from_json(c)[0], backend)
    return mat


# -- automorphisms and derivations --------------------------------------------

def aut_to_json(phi):
    return {
        "n": phi.n,
        "k": phi.k,
        "backend": phi.backend,
        "A": [[coeff_to_json(x, phi.backend) for x in row] for row in phi.A],
        "u": {
            str(m): [[coeff_to_json(x, phi.backend) for x in row] for row in blk]
            for m, blk in sorted(phi.u.items())
        },
    }


def aut_from_json(obj):
    flat = [c for row in obj["A"] for c in row]
    backend = _infer_backend(obj, flat)
    a = matrix_from_json(obj["A"], backend)
    u = {int(m): matrix_from_json(blk, backend) for m, blk in obj.get("u", {}).items()}
    return GradedAut(obj["n"], obj["k"], a, u, backend)


def derivation_to_json(d):
    return {
        "n": d.n,
        "k": d.k,
        "backend": d.backend,
        "d": {
            str(m): [[coeff_to_json(x, d.backend) for x in row] for row in blk]
            for m, blk in sorted(d.d.items())
        },
    }


def derivation_from_json(obj):
    blocks = obj.get("d", {})
    coeffs = [c for blk in blocks.values() for row in blk for c in row]
    backend = _infer_backend(obj, coeffs)
    d = {int(m): matrix_from_json(blk, backend) for m, blk in blocks.items()}
    return GradedDerivation(obj["n"], obj["k"], d, backend)


# -- free group / magnus --------------------------------------------------------

def endo_to_json(endo):
    return {"n": endo.n, "images": [list(img.letters) for img in endo.images]}


def endo_from_json(obj):
    return FreeGroupEndo(obj["n"], [FreeGroupWord(img) for img in obj["images"]])


def expansion_to_json(theta):
    return {
        "n": theta.n,
        "k": theta.k,
        "backend": theta.backend,
        "images": [tensor_to_json(img) for img in theta.images],
    }


def expansion_from_json(obj):
    return MagnusExpansion([tensor_from_json(img) for img in obj["images"]])


# -- reports ---------------------------------------------------------------------

def report_to_json(report, phi=None):
    out = {
        "input_digest": report.input_digest,
        "verdict": report.verdict.to_json(),
        "derivation": derivation_to_json(report.derivation),
        "residual": report.residual,
        "hopf_preserved": report.hopf_preserved,
        "omega_annihilated": report.omega_annihilated,
        "forced": report.forced,
        "trace": report.trace,
    }
    if phi is not None:
        out["input"] = aut_to_json(phi)
    return out


def dumps(obj, **kwargs):
    kwargs.setdefault("sort_keys", True)
    kwargs.setdefault("indent", 2)
    return json.dumps(obj, **kwargs)
