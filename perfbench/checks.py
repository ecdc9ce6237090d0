"""Output checks for the benchmark: goldens and cyclotomic identities.

The goldens under ``golden/`` are the byte-exact outputs of the commit the
benchmark was defined on (see ``record_goldens.py``).  The cyclo-arith
results have no golden; each is checked by exact identities in charcond
itself and against an independent complex floating-point evaluation of the
printed ``E(n)`` strings.
"""

from __future__ import annotations

import cmath
import json
import re
from fractions import Fraction
from math import pi
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?E\((\d+)\)(?:\^(\d+))?"
                   r"|([+-]?)(\d+(?:/\d+)?)")


def load_golden(name: str):
    with open(GOLDEN / f"{name}.json") as fh:
        return json.load(fh)


def terms(text: str) -> list[tuple[Fraction, int, int]]:
    """(coefficient, n, e) for each term c*E(n)^e of an E(n) expression;
    a rational term has n = 1, e = 0."""
    out, pos = [], 0
    for m in _TERM.finditer(text):
        if m.start() != pos or m.end() == pos:
            break
        pos = m.end()
        if m.group(3) is not None:
            sign, coeff = m.group(1), Fraction(m.group(2) or 1)
            n, e = int(m.group(3)), int(m.group(4) or 1)
        else:
            sign, coeff, n, e = m.group(5), Fraction(m.group(6)), 1, 0
        out.append((-coeff if sign == "-" else coeff, n, e))
    if pos != len(text) or not text:
        raise ValueError(f"cannot read {text!r} at position {pos}")
    return out


def float_eval(text: str, k: int = 1) -> tuple[complex, float]:
    """Value of an E(n) expression with zeta_n -> zeta_n^k, and the sum of
    the absolute coefficients (the scale of its rounding error)."""
    total, scale = 0j, 0.0
    for c, n, e in terms(text):
        total += float(c) * cmath.exp(2j * pi * e * k / n)
        scale += abs(float(c))
    return total, scale


def _exact(text: str):
    """The CycloNum a printed result denotes, built with one normalisation
    (parse_cyclo normalises after every term, which is slow to check with)."""
    from charcond.cyclo import CycloNum
    parts = terms(text)
    n = max(n for _, n, _ in parts)
    if any(n % m for _, m, _ in parts):
        raise ValueError(f"mixed orders in {text!r}")
    coeffs = {}
    for c, m, e in parts:
        coeffs[e * (n // m)] = coeffs.get(e * (n // m), 0) + c
    return CycloNum.from_exponents(n, coeffs)


def _close(got: tuple[complex, float], want: complex, scale: float) -> bool:
    return abs(got[0] - want) <= 1e-9 * (1.0 + got[1] + scale)


def cyclo_item_errors(item: dict, out: dict) -> list[str]:
    """Every failed identity for one expression pair and its results."""
    from charcond.cyclo import CycloError, cyclo_to_str, parse_cyclo
    errors = []
    try:
        a, b = parse_cyclo(item["a"]), parse_cyclo(item["b"])
        res = {key: _exact(out[key]) for key in ("sum", "prod", "quot", "gal")}
    except (CycloError, ValueError, KeyError, TypeError) as exc:
        return [f"unparsable result: {exc}"]
    k, kinv = item["k"], pow(item["k"], -1, item["n"])
    exact = {
        "print(parse(a)) round trip": parse_cyclo(cyclo_to_str(a)) == a,
        "(a+b)-b == a": res["sum"] - b == a,
        "(a*b)/b == a": res["prod"] / b == a,
        "(a/b)*b == a": res["quot"] * b == a,
        "galois(k) then galois(1/k) == a": res["gal"].galois(kinv) == a,
        "conductor([a]) == a.order": out["cond"] == a.order,
    }
    for key, val in res.items():
        exact[f"{key} printed canonically"] = cyclo_to_str(val) == out[key]
    errors += [name for name, ok in exact.items() if not ok]
    fa, sa = float_eval(item["a"])
    fb, sb = float_eval(item["b"])
    floats = {
        "sum": (fa + fb, sa + sb),
        "prod": (fa * fb, sa * sb),
        "quot": (fa / fb, sa / abs(fb)),
        "gal": float_eval(item["a"], k),
    }
    for key, (want, scale) in floats.items():
        if not _close(float_eval(out[key]), want, scale):
            errors.append(f"{key} disagrees with the float evaluation")
    return errors
