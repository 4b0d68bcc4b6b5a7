"""Command-line front end.

Commands:

    means   means profile of one function over a radius grid (CSV or JSON)
    h2      squared-coefficient sum of log p against the pi^2/2 ceiling
    star    dyadic extremal sweep: means at exp(-2^-k) vs the 4^(k-1)/k^4 floor
    gauge   gauge-adapted sweep: schedule n_k and means/gauge vs the k^4 floor
    report  four-part optimality report over the canonical suite (JSON)

Outputs are byte-deterministic: floats are printed with 17 significant
digits in scientific notation, files are written atomically, and rerunning
the same command reproduces identical bytes.  Errors, malformed input
included, exit with code 2 after printing a machine-readable JSON record on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence

from .analysis import UNIFORM_CONSTANT, corollary_report
from .caratheodory import CaratheodoryFunction, Herglotz, mobius
from .errors import ParseError, ToolkitError
from .extremal import (
    Gauge,
    build_p_star,
    critical_radii_star,
    gauge_sweep,
    star_sweep,
)
from .jsonio import atomic_write_text, dumps_canonical, format_float, int_str
from .means import geometric_radii, parseval_means, quadrature_means
from .specs import decode_spec, integer_field, parse_function_spec

H2_CEILING = math.pi ** 2 / 2.0

# Largest --trunc: far larger dense arrays and quadratures exhaust memory and
# time (kernel-sum log-coefficients cost O(N*J) for J atoms, see caratheodory).
MAX_TRUNC = 2 ** 16

# Most atoms in a kernel-sum spec: finding the zeros of p costs O(J^2) per
# bisection step (log_taylor(2048): about 2 s at J = 2000 on two CPUs).
MAX_ATOMS = 2 ** 10

# Most radii in a grid: each costs one FFT, and geometric grids collapse onto
# 1.0 within 53/log2(1/factor) points anyway.
MAX_RADII = 2 ** 10

# Largest gauge-schedule index (gauge --kmax, report --kmax-gauge, a
# theorem3_gauge spec's k_max): the ratio sweep costs O(k^2), about 2 s at
# 1024 for pow:1.  It does not bound the schedule search, which steps once
# per bit of n_k and dominates near the ceiling (pow:1.999: 1 min at 64).
MAX_KMAX = 2 ** 10

# means prints the quadrature columns only while the log-coefficients stop
# at this degree; its dense array is built at --trunc either way.
MAX_QUADRATURE_DEGREE = 2 ** 20


def _at_least(value: int, minimum: int, flag: str) -> int:
    if value < minimum:
        raise ParseError(f"{flag} must be >= {minimum}, got {value}")
    return value


def _capped(value: int, maximum: int, flag: str) -> int:
    """value, if 1 <= value <= maximum; ParseError otherwise."""
    if value > maximum:
        raise ParseError(f"{flag} must be <= {maximum}, got {value}")
    return _at_least(value, 1, flag)


def _parse_radii_spec(text: str) -> list[float]:
    """geometric:<start>,<factor>,<count> or critical-star:<k_max>."""
    kind, _, body = text.partition(":")
    try:
        if kind == "geometric":
            parts = body.split(",")
            if len(parts) != 3:
                raise ParseError(
                    f"geometric radii need start,factor,count: {text!r}"
                )
            start, factor, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count > MAX_RADII:
                raise ParseError(f"a grid takes at most {MAX_RADII} radii, got {count}")
            return geometric_radii(start, factor, count)
        if kind == "critical-star":
            return critical_radii_star(int(body))
    except ValueError as exc:
        raise ParseError(f"bad {kind} radii {text!r}: {exc}") from None
    raise ParseError(
        f"radii spec must start with 'geometric:' or 'critical-star:': {text!r}"
    )


def _load_spec(text: str) -> CaratheodoryFunction:
    """Inline JSON, or @path to read the spec from a file."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read spec file {text[1:]!r}: {exc}") from None
    spec = decode_spec(text)
    if isinstance(spec, dict) and spec.get("type") == "theorem3_gauge":
        if "k_max" in spec:  # capped before parse_function_spec searches
            k_max = integer_field(spec["k_max"], "k_max")
            _capped(k_max, MAX_KMAX, "a theorem3_gauge spec's k_max")
    p = parse_function_spec(spec)
    atoms = len(p.spec_dict.get("atoms", ()))
    if atoms > MAX_ATOMS:
        raise ParseError(f"a kernel sum takes at most {MAX_ATOMS} atoms, got {atoms}")
    return p


def _cell(value: int | float) -> str:
    return int_str(value) if isinstance(value, int) else format_float(value)


def _render(args, rows: Sequence[dict], spec: dict) -> str:
    """CSV table headed by the first row's keys, or the JSON document."""
    if args.format == "csv":
        lines = [",".join(rows[0])]
        lines += [",".join(_cell(value) for value in row.values()) for row in rows]
        return "\n".join(lines) + "\n"
    doc = {"schema": "v1", "command": args.command, "function": spec, "rows": rows}
    return dumps_canonical(doc)


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            atomic_write_text(path, text)
        except OSError as exc:
            raise ParseError(f"cannot write output {path!r}: {exc}") from None


def _cmd_means(args) -> str:
    trunc = _capped(args.trunc, MAX_TRUNC, "--trunc")
    p = _load_spec(args.spec)
    radii = _parse_radii_spec(args.radii)
    dense = p.log_taylor(trunc)  # computes the coefficients log_coeffs reuses
    a = p.log_coeffs(trunc)
    profile = parseval_means(a, radii)
    rows = [
        {"r": r, "I_parseval": value, "tail_bound": tail}
        for r, value, tail in zip(radii, profile.values, profile.tail_bounds)
    ]
    if a.truncation_degree <= MAX_QUADRATURE_DEGREE:
        # smallest power of two >= trunc+1: exact, and a fast FFT length.
        # Lacunary terms past trunc are dropped here, not in the Parseval
        # column, so quad_rel_err then measures them, not the routes.
        quad = quadrature_means(dense, radii, 1 << trunc.bit_length())
        for row, value in zip(rows, quad):
            err = abs(value - row["I_parseval"]) / max(row["I_parseval"], 1e-30)
            row.update(I_quadrature=value, quad_rel_err=err)
    return _render(args, rows, p.spec_dict)


def _cmd_h2(args) -> str:
    trunc = _capped(args.trunc, MAX_TRUNC, "--trunc")
    p = _load_spec(args.spec)
    f = p.log_coeffs(trunc)
    total = f.h2_sum()
    row = {
        "terms": f.term_count,
        "h2_sum": total,
        "ceiling": H2_CEILING,
        "margin": H2_CEILING - total,
    }
    return _render(args, [row], p.spec_dict)


def _cmd_star(args) -> str:
    rows = star_sweep(_at_least(args.kmax, 1, "--kmax"))
    return _render(args, rows, {"type": "theorem2_star", "k_max": args.kmax})


def _cmd_gauge(args) -> str:
    phi = Gauge.from_string(args.phi)
    _, rows = gauge_sweep(phi, _capped(args.kmax, MAX_KMAX, "--kmax"))
    spec = {"type": "theorem3_gauge", "gauge": phi.label(), "k_max": args.kmax}
    return _render(args, rows, spec)


def canonical_suite(gauge: Gauge, k_max_star: int, k_max_gauge: int):
    """The fixed function suite the report command runs on.  The gauge
    member goes through parse_function_spec, which sets its spec."""
    return [
        mobius(),
        Herglotz([(0.0, 0.5), (math.pi, 0.5)]),
        build_p_star(k_max_star),
        parse_function_spec(
            {"type": "theorem3_gauge", "gauge": gauge.label(), "k_max": k_max_gauge}
        ),
    ]


def _cmd_report(args) -> str:
    if not math.isfinite(args.constant):
        raise ParseError(f"--constant must be finite, got {args.constant!r}")
    phi = Gauge.from_string(args.gauge)
    _at_least(args.kmax_star, 1, "--kmax-star")
    _capped(args.kmax_gauge, MAX_KMAX, "--kmax-gauge")
    suite = canonical_suite(phi, args.kmax_star, args.kmax_gauge)
    report = corollary_report(suite, phi, constant=args.constant)
    return report.to_json()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logmeans",
        description=(
            "Integral means of normalized logarithmic derivatives for "
            "functions with positive real part on the unit disc."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", default="-", help="output path, '-' = stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_spec(p):
        p.add_argument("--spec", required=True, help="function spec JSON or @file")
        p.add_argument("--trunc", type=int, default=2048)

    p_means = sub.add_parser("means", help="means profile over a radius grid")
    add_spec(p_means)
    p_means.add_argument(
        "--radii",
        default="geometric:0.5,0.5,20",
        help="geometric:<start>,<factor>,<count> or critical-star:<k_max>",
    )
    add_io(p_means)
    p_means.set_defaults(run=_cmd_means)

    p_h2 = sub.add_parser("h2", help="squared-coefficient sum of log p")
    add_spec(p_h2)
    add_io(p_h2)
    p_h2.set_defaults(run=_cmd_h2)

    p_star = sub.add_parser("star", help="dyadic extremal sweep")
    p_star.add_argument("--kmax", type=int, default=30)
    add_io(p_star)
    p_star.set_defaults(run=_cmd_star)

    p_gauge = sub.add_parser("gauge", help="gauge-adapted sweep")
    p_gauge.add_argument("--phi", required=True, help="pow:<a> or powlog:<a>,<b>")
    p_gauge.add_argument("--kmax", type=int, default=12)
    add_io(p_gauge)
    p_gauge.set_defaults(run=_cmd_gauge)

    p_report = sub.add_parser("report", help="four-part optimality report")
    p_report.add_argument("--gauge", default="pow:1.9")
    p_report.add_argument("--kmax-star", type=int, default=25)
    p_report.add_argument("--kmax-gauge", type=int, default=12)
    p_report.add_argument("--constant", type=float, default=UNIFORM_CONSTANT)
    p_report.add_argument("--out", default="-")
    p_report.set_defaults(run=_cmd_report, format="json")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = args.run(args)
        _write_output(args.out, text)
    except ToolkitError as exc:
        record = {"schema": "v1", "error": {"name": exc.name, "message": str(exc)}}
        sys.stderr.write(json.dumps(record) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
