"""JSON function-spec codec shared by the CLI and tests.

Accepted shapes:

    {"type": "mobius"}
    {"type": "herglotz", "atoms": [{"theta": t, "weight": w}, ...], "im_p0": c}
    {"type": "lacunary", "terms": [{"exponent": e, "re": x, "im": y}, ...]}
    {"type": "theorem2_star", "k_max": K}
    {"type": "theorem3_gauge", "gauge": "<gauge string>", "k_max": K}

mobius and herglotz specs build a caratheodory.Herglotz, the others a
caratheodory.LacunaryExp.  Every function is built with its spec dict,
which it carries on .spec_dict, so emitted specs re-parse to an equivalent
function.  Integer fields (exponent, k_max) take JSON integers or integral
floats such as 4.0 only; number fields (theta, weight, im_p0, re, im) take
JSON numbers only, not strings or booleans.
"""

from __future__ import annotations

import json

from .caratheodory import CaratheodoryFunction, Herglotz, LacunaryExp, mobius
from .errors import ParseError
from .extremal import Gauge, build_p_phi, build_p_star, choose_schedule
from .series import SparseSeries


def integer_field(value, name: str) -> int:
    """value as an int when it is a JSON integer or an integral float;
    ParseError otherwise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{name} must be an integer, got {value!r}")


def number_field(value, name: str) -> float:
    """value as a float if it is a JSON number (not a bool); else ParseError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ParseError(f"{name} must be a number, got {value!r}")


def decode_spec(text: str):
    """The JSON value of text.  ParseError when it is malformed, nested
    past the recursion limit, or holds an integer past Python's
    int-to-string digit limit (4,300 digits)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"function spec is not valid JSON: {exc}") from None


def parse_function_spec(spec: str | dict) -> CaratheodoryFunction:
    """Build a certified function from a JSON object or JSON text."""
    if isinstance(spec, str):
        spec = decode_spec(spec)
    if not isinstance(spec, dict):
        raise ParseError("function spec must be a JSON object")
    kind = spec.get("type")
    try:
        if kind == "mobius":
            return mobius()
        if kind == "herglotz":
            atoms = [
                (number_field(a["theta"], "theta"), number_field(a["weight"], "weight"))
                for a in spec.get("atoms", [])
            ]
            return Herglotz(atoms, number_field(spec.get("im_p0", 0.0), "im_p0"))
        if kind == "lacunary":
            terms = [
                (
                    integer_field(t["exponent"], "exponent"),
                    complex(
                        number_field(t.get("re", 0.0), "re"),
                        number_field(t.get("im", 0.0), "im"),
                    ),
                )
                for t in spec.get("terms", [])
            ]
            return LacunaryExp(SparseSeries(terms))
        if kind == "theorem2_star":
            return build_p_star(integer_field(spec["k_max"], "k_max"))
        if kind == "theorem3_gauge":
            gauge = Gauge.from_string(str(spec["gauge"]))
            k_max = integer_field(spec["k_max"], "k_max")
            return build_p_phi(
                choose_schedule(gauge, k_max),
                {"type": "theorem3_gauge", "gauge": gauge.label(), "k_max": k_max},
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed {kind!r} spec: {exc}") from None
    raise ParseError(f"unknown function spec type {kind!r}")
