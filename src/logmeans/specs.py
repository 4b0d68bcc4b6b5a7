"""JSON function-spec codec shared by the CLI and tests.

Accepted shapes:

    {"type": "mobius"}
    {"type": "herglotz", "atoms": [{"theta": t, "weight": w}, ...], "im_p0": c}
    {"type": "lacunary", "terms": [{"exponent": e, "re": x, "im": y}, ...]}
    {"type": "theorem2_star", "k_max": K}
    {"type": "theorem3_gauge", "gauge": "<gauge string>", "k_max": K}

Every constructed function carries its spec dict back on .spec_dict, so
emitted specs re-parse to an equivalent function.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .caratheodory import (
    CaratheodoryFunction,
    HerglotzSpec,
    from_herglotz,
    from_lacunary,
    mobius,
)
from .errors import ParseError, ToolkitError
from .extremal import Gauge, build_p_phi, build_p_star, choose_schedule
from .series import SparseSeries


def parse_function_spec(spec: Union[str, dict]) -> CaratheodoryFunction:
    """Build a certified function from a JSON object or JSON text."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ParseError(f"function spec is not valid JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ParseError("function spec must be a JSON object")
    kind = spec.get("type")
    try:
        if kind == "mobius":
            return mobius()
        if kind == "herglotz":
            atoms = [
                (float(a["theta"]), float(a["weight"]))
                for a in spec.get("atoms", [])
            ]
            return from_herglotz(HerglotzSpec(atoms, float(spec.get("im_p0", 0.0))))
        if kind == "lacunary":
            terms = [
                (int(t["exponent"]), complex(float(t.get("re", 0.0)), float(t.get("im", 0.0))))
                for t in spec.get("terms", [])
            ]
            return from_lacunary(SparseSeries(terms))
        if kind == "theorem2_star":
            return build_p_star(int(spec["k_max"]))
        if kind == "theorem3_gauge":
            gauge = Gauge.from_string(str(spec["gauge"]))
            budget: Optional[int] = (
                int(spec["budget"]) if "budget" in spec else None
            )
            schedule = choose_schedule(gauge, int(spec["k_max"]), budget)
            p = build_p_phi(schedule)
            p.spec_dict = {
                "type": "theorem3_gauge",
                "gauge": gauge.label(),
                "k_max": int(spec["k_max"]),
            }
            if budget is not None:
                p.spec_dict["budget"] = budget
            return p
    except ToolkitError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed {kind!r} spec: {exc}") from None
    raise ParseError(f"unknown function spec type {kind!r}")
