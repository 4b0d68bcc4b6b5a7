"""Command-line surface: gauge parsing, output schemas, determinism, error
records, and spec round-trips through files."""

import contextlib
import io
import json
import math
import os
import stat
import sys
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logmeans import cli, geometric_radii, parse_function_spec, quadrature_means
from logmeans.cli import (
    MAX_ATOMS,
    MAX_QUADRATURE_DEGREE,
    MAX_RADII,
    MAX_TRUNC,
    _load_spec,
    main,
)
from logmeans.errors import ParseError
from logmeans.extremal import MAX_KMAX
from logmeans.jsonio import format_float, int_str
from logmeans.means import fft_length
from logmeans.specs import decode_spec

MOBIUS = '{"type":"mobius"}'


def kernel_sum(atoms):
    """Spec of a kernel sum with the given number of distinct atoms."""
    atoms = [{"theta": 0.005 * j, "weight": 1.0} for j in range(atoms)]
    return json.dumps({"type": "herglotz", "atoms": atoms})


TOO_MANY_ATOMS = kernel_sum(MAX_ATOMS + 1)

# JSON that the decoder refuses: nesting past the recursion limit, and an
# integer past the 4,300-digit int-to-string limit.
TOO_DEEP = "[" * 1500
TOO_MANY_DIGITS = '{"type":"theorem2_star","k_max":%s}' % ("9" * 4301)

THREE_ATOMS = {
    "type": "herglotz",
    "atoms": [
        {"theta": 0.3, "weight": 0.5},
        {"theta": 2.1, "weight": 0.3},
        {"theta": 4.0, "weight": 0.2},
    ],
    "im_p0": 0.25,
}

# N+1 on both sides of a power of two and of 2160 = 2^4*3^3*5, up to the
# herglotz-means sizes
QUADRATURE_TRUNCS = [255, 256, 2047, 2048, 2159, 2160, 16383, 16384]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_keys_are_csv_header(argv, capsys):
    """Each JSON row of argv has the CSV header's columns, in that order."""
    code, csv_out, _ = run_cli(argv, capsys)
    json_code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == json_code == 0
    header = csv_out.splitlines()[0].split(",")
    rows = json.loads(json_out)["rows"]
    assert rows and all(list(row) == header for row in rows)


class TestMeansCommand:
    def test_csv_schema_and_value(self, capsys):
        code, out, _ = run_cli(
            [
                "means",
                "--spec",
                MOBIUS,
                "--radii",
                "geometric:0.5,0.5,3",
                "--trunc",
                "512",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,I_parseval,tail_bound,I_quadrature,quad_rel_err"
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == pytest.approx(6.70206432765822, rel=1e-10)
        assert float(first[4]) < 1e-9

    def test_quadrature_skipped_for_huge_exponents(self, capsys):
        code, out, _ = run_cli(
            [
                "means",
                "--spec",
                '{"type":"theorem2_star","k_max":30}',
                "--radii",
                "geometric:0.5,0.5,3",
                "--trunc",
                "64",
            ],
            capsys,
        )
        assert code == 0
        assert out.split("\n")[0] == "r,I_parseval,tail_bound"

    @pytest.mark.parametrize(
        "exponent, columns",
        [(MAX_QUADRATURE_DEGREE, 5), (MAX_QUADRATURE_DEGREE + 1, 3)],
    )
    def test_quadrature_column_rule_boundary(self, exponent, columns, capsys):
        spec = {"type": "lacunary", "terms": [{"exponent": exponent, "im": 0.5}]}
        argv = ["means", "--spec", json.dumps(spec), "--radii", "geometric:0.5,0.5,3"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert [len(line.split(",")) for line in out.splitlines()] == [columns] * 4
        assert_json_keys_are_csv_header(argv, capsys)

    def test_spec_from_file(self, tmp_path, capsys):
        spec_file = tmp_path / "fn.json"
        spec_file.write_text(MOBIUS)
        code, out, _ = run_cli(
            [
                "means",
                "--spec",
                f"@{spec_file}",
                "--radii",
                "geometric:0.5,0.5,2",
                "--trunc",
                "64",
            ],
            capsys,
        )
        assert code == 0
        assert out.split("\n")[0] == "r,I_parseval,tail_bound,I_quadrature,quad_rel_err"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            [
                "means",
                "--spec",
                MOBIUS,
                "--radii",
                "geometric:0.5,0.5,2",
                "--trunc",
                "32",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "v1"
        assert doc["command"] == "means"
        assert len(doc["rows"]) == 2
        assert doc["function"] == {"type": "mobius"}

    def test_emitted_spec_reparses(self, capsys):
        code, out, _ = run_cli(
            ["gauge", "--phi", "pow:1.0", "--kmax", "4", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        p = parse_function_spec(doc["function"])
        assert [row["n_k"] for row in doc["rows"]] == list(p.schedule.n_k)

    def test_quadrature_uses_minimal_exact_rule(self, capsys):
        trunc = 300
        code, out, _ = run_cli(
            ["means", "--spec", json.dumps(THREE_ATOMS), "--trunc", str(trunc)],
            capsys,
        )
        assert code == 0
        p = parse_function_spec(THREE_ATOMS)
        radii = geometric_radii(0.5, 0.5, 20)
        quad = quadrature_means(p.log_taylor(trunc), radii, fft_length(trunc + 1))
        printed = [line.split(",")[3] for line in out.strip().split("\n")[1:]]
        assert printed == [format_float(v) for v in quad]

    @pytest.mark.parametrize("trunc", QUADRATURE_TRUNCS)
    def test_mobius_quadrature_matches_truncated_means(self, trunc, capsys):
        # the truncated Mobius means are 8*pi*sum_{odd n<=N} r^(2n), a
        # geometric sum evaluated here at 40 digits
        code, out, _ = run_cli(
            ["means", "--spec", MOBIUS, "--trunc", str(trunc)], capsys
        )
        assert code == 0
        odd_terms = (trunc + 1) // 2
        with mpmath.workdps(40):
            for line in out.strip().split("\n")[1:]:
                cells = line.split(",")
                r = mpmath.mpf(float(cells[0]))
                exact = 8 * mpmath.pi * r ** 2 * (1 - r ** (4 * odd_terms))
                exact /= 1 - r ** 4
                assert abs(float(cells[3]) - exact) / exact <= 2e-15

    @pytest.mark.parametrize("trunc", QUADRATURE_TRUNCS)
    def test_kernel_sum_quadrature_matches_parseval(self, trunc, capsys):
        code, out, _ = run_cli(
            ["means", "--spec", json.dumps(THREE_ATOMS), "--trunc", str(trunc)],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 20
        for cells in rows:
            assert float(cells[4]) <= 1e-13

    def test_radius_cap_is_inclusive(self, capsys):
        grid = f"geometric:0.5,0.99,{MAX_RADII}"
        code, out, _ = run_cli(
            ["means", "--spec", MOBIUS, "--trunc", "8", "--radii", grid], capsys
        )
        assert code == 0
        assert len(out.strip().split("\n")) == MAX_RADII + 1

    def test_bad_radii_spec(self, capsys):
        code, _, err = run_cli(
            ["means", "--spec", MOBIUS, "--radii", "linear:1,2"], capsys
        )
        assert code == 2
        record = json.loads(err)
        assert record["error"]["name"] == "ParseError"


class TestH2Command:
    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "lacunary", "terms": [{"exponent": 4.0, "re": 0.1}]},
            {"type": "theorem2_star", "k_max": 4.0},
            {"type": "theorem3_gauge", "gauge": "pow:1.0", "k_max": 4.0},
        ],
    )
    def test_integral_float_fields_read_as_integers(self, spec, capsys):
        as_int = json.loads(json.dumps(spec).replace("4.0", "4"))
        assert json.dumps(spec) != json.dumps(as_int)
        outputs = [
            run_cli(["h2", "--spec", json.dumps(s), "--format", "json"], capsys)
            for s in (spec, as_int)
        ]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    def test_atom_cap_is_inclusive(self):
        # checked at load time; no log-coefficients are computed
        p = _load_spec(kernel_sum(MAX_ATOMS))
        assert len(p.spec_dict["atoms"]) == MAX_ATOMS

    def test_trunc_cap_is_inclusive(self, capsys):
        code, out, _ = run_cli(
            ["h2", "--spec", MOBIUS, "--trunc", str(MAX_TRUNC)], capsys
        )
        assert code == 0
        assert out.split("\n")[1].split(",")[0] == str(MAX_TRUNC)

    def test_runs(self, capsys):
        code, out, _ = run_cli(
            ["h2", "--spec", MOBIUS, "--trunc", "4096", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["h2_sum"] < row["ceiling"] == pytest.approx(math.pi ** 2 / 2)
        assert_json_keys_are_csv_header(["h2", "--spec", MOBIUS], capsys)


def json_rows_without_warnings(argv, capsys):
    """Rows of a JSON run that must exit 0 with empty stderr, with every
    warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert (code, err) == (0, "")
    return json.loads(out)["rows"]


@pytest.mark.parametrize("exponent", [160, 300])
@pytest.mark.parametrize(
    "command", [["h2"], ["means", "--radii", "geometric:0.5,0.5,8"]], ids=["h2", "means"]
)
def test_negligible_atom_runs_without_warnings(exponent, command, capsys):
    # The atom of weight 1e-exponent has its pole and zero at the same
    # double.  Bisecting toward it once overflowed 1/tan, and a weight that
    # underflows against the mass gave 0 * inf = nan.
    big = {"theta": 1.0, "weight": 10.0 ** exponent}
    tiny = {"theta": 0.0, "weight": 10.0 ** -exponent}
    got, want = (
        json_rows_without_warnings(
            command + ["--trunc", "64", "--spec", json.dumps({"type": "herglotz", "atoms": atoms})],
            capsys,
        )
        for atoms in ([tiny, big], [big])
    )
    assert [list(row) for row in got] == [list(row) for row in want]
    for row, expected in zip(got, want):
        for key, value in row.items():
            assert value == pytest.approx(expected[key], rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "atoms, im_p0",
    [
        ([(0.0, 1e-320)], 1.0),
        ([(0.0, 1e-320), (2.0, 3e-321)], -1.0),
        ([(0.0, 1e-300)], 1e300),
    ],
    ids=["1e-320", "two-subnormal", "1e-300-vs-1e300"],
)
@pytest.mark.parametrize(
    "command", [["h2"], ["means", "--radii", "geometric:0.5,0.5,8"]], ids=["h2", "means"]
)
def test_mass_far_below_im_p0_runs_without_warnings(atoms, im_p0, command, capsys):
    # Scaling the zero equation by the mass alone overflowed im_p0 / mass.
    spec = {
        "type": "herglotz",
        "atoms": [{"theta": t, "weight": w} for t, w in atoms],
        "im_p0": im_p0,
    }
    argv = command + ["--trunc", "64", "--spec", json.dumps(spec)]
    json_rows_without_warnings(argv, capsys)


class TestStarCommand:
    def test_rows_respect_floor(self, capsys):
        code, out, _ = run_cli(["star", "--kmax", "12", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "star"
        for row in doc["rows"]:
            assert row["ratio_to_lower"] >= 1.0
        assert_json_keys_are_csv_header(["star", "--kmax", "12"], capsys)


class TestGaugeCommand:
    def test_hypothesis_gate(self, capsys):
        code, _, err = run_cli(["gauge", "--phi", "pow:2.5", "--kmax", "3"], capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"]["name"] == "GaugeHypothesisError"

    def test_sweep_rows(self, capsys):
        code, out, _ = run_cli(
            ["gauge", "--phi", "pow:1.0", "--kmax", "5", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            assert row["ratio_to_floor"] >= 1.0 - 1e-10
        argv = ["gauge", "--phi", "pow:1.0", "--kmax", "5"]
        assert_json_keys_are_csv_header(argv, capsys)

    def test_kmax_cap_is_inclusive(self, capsys):
        code, out, _ = run_cli(["gauge", "--phi", "pow:1", "--kmax", str(MAX_KMAX)], capsys)
        assert code == 0
        assert out.splitlines()[-1].split(",")[0] == str(MAX_KMAX)
        spec = {"type": "theorem3_gauge", "gauge": "pow:1", "k_max": MAX_KMAX}
        code, _, _ = run_cli(["h2", "--spec", json.dumps(spec)], capsys)
        assert code == 0

    @pytest.mark.parametrize("gauge", ["powlog:1,1000", "powlog:1.5,2000", "powlog:0.5,1000"])
    def test_gauge_underflowing_in_direct_range(self, gauge, capsys):
        # gauge(exp(-1/n)) underflows to 0.0 at these n; the ratios come
        # from the log form and match a 50-digit oracle, saturating to inf
        # exactly where the true ratio leaves the double range
        argv = ["gauge", "--phi", gauge, "--kmax", "3", "--format", "json"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        a, b = map(mpmath.mpf, gauge.partition(":")[2].split(","))
        with mpmath.workdps(50):
            for row in rows:
                means = 2 * mpmath.pi * mpmath.fsum(
                    other["n_k"] ** 2 * (mpmath.mpf(0.5) / other["k"] ** 2) ** 2
                    * mpmath.exp(mpmath.mpf(-2 * other["n_k"]) / row["n_k"])
                    for other in rows
                )
                gap = -mpmath.expm1(mpmath.mpf(-1) / row["n_k"])
                ratio = means * gap ** a * (1 - mpmath.log(gap)) ** b
                if ratio < mpmath.mpf(math.exp(709.0)):
                    assert row["ratio"] == pytest.approx(float(ratio), rel=1e-12)
                else:
                    assert row["ratio"] == "inf"

    def test_report_with_gauge_underflowing_in_direct_range(self, capsys):
        code, out, err = run_cli(["report", "--gauge", "powlog:1,1000"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["parts"]["gauge_divergence"]["pass"] is True

    def test_size_cap_error(self, capsys):
        code, _, err = run_cli(["gauge", "--phi", "powlog:2,0.5", "--kmax", "6"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["name"] == "ExponentOverflow"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauge", "--phi", "pow:1", "--kmax", "1025"],
            ["report", "--kmax-gauge", "1025"],
            ["h2", "--spec", '{"type":"theorem3_gauge","gauge":"pow:1","k_max":1025}'],
        ],
        ids=["gauge", "report", "spec"],
    )
    def test_index_cap_error(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(err)["error"]["name"] == "ExponentOverflow"


MALFORMED_ARGV = [
    ["means", "--spec", "@missing-spec.json"],
    ["means", "--spec", MOBIUS, "--trunc", "0"],
    ["means", "--spec", MOBIUS, "--trunc", "-5"],
    ["means", "--spec", MOBIUS, "--trunc", "65537"],
    ["h2", "--spec", MOBIUS, "--trunc", "0"],
    ["h2", "--spec", MOBIUS, "--trunc", "300000000"],
    ["star", "--kmax", "0"],
    ["gauge", "--phi", "pow:1.5", "--kmax", "0"],
    ["gauge", "--phi", "pow:nan", "--kmax", "4"],
    [
        "h2",
        "--spec",
        '{"type":"lacunary","terms":[{"exponent":1e400,"re":0.1,"im":0.0}]}',
    ],
    [
        "h2",
        "--spec",
        '{"type":"herglotz","atoms":[{"theta":0.5,"weight":1e308},'
        '{"theta":2.5,"weight":1e308}],"im_p0":0.0}',
    ],
    ["means", "--spec", MOBIUS, "--trunc", "64", "--quad-points", "-3"],
    ["means", "--spec", MOBIUS, "--radii", "geometric:0.5,0.5,0"],
    ["means", "--spec", MOBIUS, "--radii", "geometric:0.5,1.5,3"],
    ["means", "--spec", MOBIUS, "--radii", "critical-star:0"],
    ["means", "--spec", MOBIUS, "--trunc", "8", "--out", "missing-dir/out.csv"],
    ["gauge", "--phi", "pow:1.5", "--kmax", "3", "--budget", "abc"],
    ["gauge", "--phi", "pow:1.5", "--kmax", "3", "--budget", "100"],
    ["gauge", "--phi", "powlog:2,0.5", "--kmax", "6"],
    ["report", "--gauge", "powlog:2,0.5"],
    ["report", "--constant", "nan"],
    ["report", "--constant", "inf"],
    ["report", "--kmax-star", "0"],
    ["means", "--spec", MOBIUS, "--trunc", "abc"],
    ["gauge", "--kmax", "3"],
    ["nosuchcommand"],
    ["star", "--format", "xml"],
    ["h2", "--spec", '{"type":"herglotz","atoms":[{"theta":1e400,"weight":1}]}'],
    [
        "h2",
        "--spec",
        '{"type":"herglotz","atoms":[{"theta":0,"weight":1}],"im_p0":1e400}',
    ],
    ["h2", "--spec", TOO_MANY_ATOMS],
    ["means", "--spec", MOBIUS, "--radii", "geometric:0.5,0.9999999,1025"],
    ["gauge", "--phi", "pow:1", "--kmax", "1025"],
    ["report", "--kmax-gauge", "1025"],
    ["h2", "--spec", '{"type":"theorem3_gauge","gauge":"pow:1","k_max":1025}'],
    ["h2", "--spec", '{"type":"theorem3_gauge","gauge":"pow:1","k_max":"20000"}'],
    ["means", "--spec", MOBIUS, "--radii", "geometric:0.5,0.9999999999999999,2"],
    ["h2", "--spec", '{"type":"lacunary","terms":[{"exponent":2.5,"re":0.1}]}'],
    ["h2", "--spec", '{"type":"lacunary","terms":[{"exponent":true,"re":0.1}]}'],
    ["h2", "--spec", '{"type":"lacunary","terms":[{"exponent":"3","re":0.1}]}'],
    ["h2", "--spec", '{"type":"lacunary","terms":[{"exponent":NaN,"re":0.1}]}'],
    ["h2", "--spec", '{"type":"theorem2_star","k_max":3.9}'],
    ["h2", "--spec", '{"type":"theorem2_star","k_max":true}'],
    ["h2", "--spec", '{"type":"theorem3_gauge","gauge":"pow:1","k_max":2.5}'],
    ["h2", "--spec", '{"type":"theorem3_gauge","gauge":"pow:1","k_max":true}'],
    ["h2", "--spec", '{"type":"theorem3_gauge","gauge":"pow:1","k_max":"3"}'],
    ["h2", "--spec", TOO_DEEP],
    ["h2", "--spec", TOO_MANY_DIGITS],
    ["h2", "--spec", '{"type":"herglotz","atoms":[{"theta":"0.5","weight":1}]}'],
    ["h2", "--spec", '{"type":"herglotz","atoms":[{"theta":0.5,"weight":true}]}'],
    ["h2", "--spec", '{"type":"herglotz","atoms":[{"theta":0.5,"weight":1}],"im_p0":"1"}'],
    ["h2", "--spec", '{"type":"lacunary","terms":[{"exponent":3,"re":"0.1"}]}'],
    ["h2", "--spec", '{"type":"lacunary","terms":[{"exponent":3,"im":false}]}'],
]


def argv_id(argv):
    """The command line, with the long specs abbreviated."""
    return (
        " ".join(argv)
        .replace(TOO_MANY_ATOMS, f"<{MAX_ATOMS + 1} atoms>")
        .replace(TOO_DEEP, "<1500 open brackets>")
        .replace(TOO_MANY_DIGITS, "<k_max of 4301 digits>")
    )


@pytest.mark.parametrize("argv", MALFORMED_ARGV, ids=argv_id)
def test_malformed_input_error_record(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    record = json.loads(err)
    assert set(record) == {"schema", "error"}
    assert record["schema"] == "v1"
    assert set(record["error"]) == {"name", "message"}
    assert isinstance(record["error"]["name"], str)
    assert isinstance(record["error"]["message"], str)


# Values any option may receive, then the plausible values of each option.
# Sizes stay small: every drawn command line finishes in well under a second.
EDGE_VALUES = ["0", "-1", "abc", "1e400", "nan", "", "@missing"]
OPTION_VALUES = {
    "--spec": [
        MOBIUS,
        json.dumps(THREE_ATOMS),
        "{",
        "[]",
        '{"type":"nosuch"}',
        '{"type":"herglotz","atoms":[]}',
        '{"type":"herglotz","atoms":[{"theta":0,"weight":-1}]}',
        '{"type":"lacunary","terms":[{"exponent":3,"re":2.0}]}',
        '{"type":"lacunary","terms":[{"exponent":-2,"im":0.1}]}',
        '{"type":"theorem2_star","k_max":4}',
        '{"type":"theorem2_star","k_max":"x"}',
        '{"type":"theorem3_gauge","gauge":"pow:1.5","k_max":3}',
        '{"type":"theorem3_gauge","gauge":"pow:2.5","k_max":3}',
    ],
    "--radii": [
        "geometric:0.5,0.5,3",
        "geometric:0.5,0.5,0",
        "geometric:1,0.5,3",
        "geometric:0.5,0.5",
        "geometric:0.5,0.9999999,1025",
        "critical-star:4",
        "critical-star:60",
        "linear:1,2",
    ],
    "--trunc": ["1", "3", "8"],
    "--kmax": ["1", "3", "6"],
    "--kmax-star": ["1", "3"],
    "--kmax-gauge": ["1", "3"],
    "--phi": ["pow:1.5", "pow:2.5", "pow:", "powlog:2,0.5", "powlog:1.9,x"],
    "--gauge": ["pow:1.5", "pow:2.5", "pow:", "powlog:2,0.5", "powlog:1.9,x"],
    "--constant": ["4.2", "inf"],
    "--format": ["csv", "json", "xml"],
    "--out": ["-", "out.csv", "missing-dir/out.csv"],
}
COMMAND_OPTIONS = {
    "means": ["--spec", "--radii", "--trunc", "--format", "--out"],
    "h2": ["--spec", "--trunc", "--format", "--out"],
    "star": ["--kmax", "--format", "--out"],
    "gauge": ["--phi", "--kmax", "--format", "--out"],
    "report": ["--gauge", "--kmax-star", "--kmax-gauge", "--constant", "--out"],
}


@st.composite
def cli_argv(draw):
    """A command, some of its options (or any option) with plausible or
    edge values, and sometimes a stray token."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS) + ["nosuch"]))
    own = COMMAND_OPTIONS.get(command, [])
    flags = draw(
        st.lists(st.sampled_from(own or sorted(OPTION_VALUES)), max_size=4)
        | st.lists(st.sampled_from(sorted(OPTION_VALUES)), max_size=2)
    )
    argv = [command]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(OPTION_VALUES[flag] + EDGE_VALUES))]
    stray = draw(st.sampled_from([None, None, None, "--help", "--nosuch", "extra"]))
    if stray is not None:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=cli_argv())
def test_generated_argv_end_in_result_or_error_record(argv, tmp_path_factory):
    # run in a scratch directory: drawn --out values are relative paths
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.getbasetemp())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2)
    if code == 2:
        record = json.loads(err.getvalue().strip().split("\n")[-1])
        assert set(record) == {"schema", "error"}
        assert set(record["error"]) == {"name", "message"}


LACUNARY = json.dumps(
    {
        "type": "lacunary",
        "terms": [
            {"exponent": 3, "re": 0.2},
            {"exponent": 100, "im": 0.3},
            {"exponent": 5000, "re": -0.1, "im": 0.2},
            {"exponent": 2 ** 40, "im": 0.25},
        ],
    }
)

# Golden file under tests/golden/ -> argv.  The files were written once
# from the code before the series types took over the Parseval and H^2
# sums; they are never regenerated.  The means pins keep only the columns
# r, I_parseval, tail_bound: the quadrature's last digits depend on numpy's
# FFT and pairwise sum.
GOLDEN_ARGV = {
    "star_kmax53.csv": ["star", "--kmax", "53"],
    "gauge_powlog2-2_kmax12.csv": ["gauge", "--phi", "powlog:2,2", "--kmax", "12"],
    "gauge_powlog2-2_kmax12.json": [
        "gauge", "--phi", "powlog:2,2", "--kmax", "12", "--format", "json"
    ],
    "h2_mobius.csv": ["h2", "--spec", MOBIUS],
    "h2_three_atoms.csv": ["h2", "--spec", json.dumps(THREE_ATOMS)],
    "h2_star.csv": ["h2", "--spec", '{"type":"theorem2_star","k_max":30}'],
    "means_mobius.csv": ["means", "--spec", MOBIUS],
    "means_three_atoms_trunc16384.csv": [
        "means", "--spec", json.dumps(THREE_ATOMS), "--trunc", "16384"
    ],
    "means_lacunary.csv": ["means", "--spec", LACUNARY],
}
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_text(argv, capsys):
    """Output of argv as pinned: the first three columns for means."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    if argv[0] == "means":
        out = "".join(",".join(line.split(",")[:3]) + "\n" for line in out.splitlines())
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_output_matches_golden(name, capsys):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as handle:
        assert golden_text(GOLDEN_ARGV[name], capsys) == handle.read()


# Function spec -> the "function" field that means and h2 print for it under
# --format json, byte for byte: angles reduced mod 2*pi, integer weights,
# im_p0 and an integral float exponent normalised, a repeated angle kept.
# Written once from the code before the kernel sum and the lacunary
# exponential became the function classes; never regenerated.
FUNCTION_FIELDS = [
    ({"type": "mobius"}, """{
    "type": "mobius"
  }"""),
    (
        {
            "type": "herglotz",
            "atoms": [
                {"theta": 7.0, "weight": 1},
                {"theta": -1.0, "weight": 2},
                {"theta": 7.0, "weight": 0.5},
            ],
            "im_p0": -1,
        },
        """{
    "type": "herglotz",
    "atoms": [
      {
        "theta": 7.1681469282041377e-01,
        "weight": 1.0000000000000000e+00
      },
      {
        "theta": 5.2831853071795862e+00,
        "weight": 2.0000000000000000e+00
      },
      {
        "theta": 7.1681469282041377e-01,
        "weight": 5.0000000000000000e-01
      }
    ],
    "im_p0": -1.0000000000000000e+00
  }""",
    ),
    (
        {
            "type": "herglotz",
            "atoms": [{"theta": 0.0, "weight": 0.5}, {"theta": math.pi, "weight": 0.5}],
        },
        """{
    "type": "herglotz",
    "atoms": [
      {
        "theta": 0.0000000000000000e+00,
        "weight": 5.0000000000000000e-01
      },
      {
        "theta": 3.1415926535897931e+00,
        "weight": 5.0000000000000000e-01
      }
    ],
    "im_p0": 0.0000000000000000e+00
  }""",
    ),
    (
        {
            "type": "lacunary",
            "terms": [
                {"exponent": 2, "im": 0.5},
                {"exponent": 4.0, "re": 0.1, "im": -0.2},
            ],
        },
        """{
    "type": "lacunary",
    "terms": [
      {
        "exponent": 2,
        "re": 0.0000000000000000e+00,
        "im": 5.0000000000000000e-01
      },
      {
        "exponent": 4,
        "re": 1.0000000000000001e-01,
        "im": -2.0000000000000001e-01
      }
    ]
  }""",
    ),
    ({"type": "lacunary", "terms": []}, """{
    "type": "lacunary",
    "terms": []
  }"""),
    ({"type": "theorem2_star", "k_max": 4}, """{
    "type": "theorem2_star",
    "k_max": 4
  }"""),
    ({"type": "theorem3_gauge", "gauge": "pow:1.0", "k_max": 4}, """{
    "type": "theorem3_gauge",
    "gauge": "pow:1.0",
    "k_max": 4
  }"""),
]


@pytest.mark.parametrize(
    "spec, field",
    FUNCTION_FIELDS,
    ids=["mobius", "herglotz-unreduced", "herglotz-no-im_p0", "lacunary",
         "lacunary-empty", "theorem2_star", "theorem3_gauge"],
)
def test_json_function_field_is_pinned(spec, field, capsys):
    means = ["--trunc", "64", "--radii", "geometric:0.5,0.5,3"]
    for command, extra in (("means", means), ("h2", [])):
        argv = [command, "--spec", json.dumps(spec), *extra, "--format", "json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        head, _, rest = out.partition('\n  "function": ')
        assert head == '{\n  "schema": "v1",\n  "command": "%s",' % command
        assert rest.partition(',\n  "rows": ')[0] == field


class TestDeterminism:
    def test_means_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                [
                    "means",
                    "--spec",
                    MOBIUS,
                    "--radii",
                    "geometric:0.5,0.5,10",
                    "--trunc",
                    "256",
                    "--out",
                    str(path),
                ],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_report_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            code, _, _ = run_cli(
                [
                    "report",
                    "--kmax-star",
                    "12",
                    "--kmax-gauge",
                    "6",
                    "--out",
                    str(path),
                ],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        doc = json.loads(paths[0].read_text())
        assert doc["schema"] == "v1"
        assert set(doc["parts"]) == {
            "uniform_bound",
            "little_o",
            "gauge_divergence",
            "least_exponent",
        }


# Calls whose output could change if main's one parser kept state from the
# call before: a format choice, a failed parse, a subcommand's defaults.
PARSER_REUSE = {
    "csv star after json star": [
        ["star", "--kmax", "5", "--format", "json"],
        ["star", "--kmax", "5"],
    ],
    "means after a malformed --trunc": [
        ["means", "--spec", MOBIUS, "--trunc", "abc"],
        ["means", "--spec", MOBIUS, "--trunc", "64"],
    ],
    "means after report": [
        ["report", "--kmax-star", "8", "--kmax-gauge", "4"],
        ["means", "--spec", MOBIUS, "--trunc", "64"],
    ],
}


@pytest.mark.parametrize("sequence", list(PARSER_REUSE.values()), ids=list(PARSER_REUSE))
def test_reused_parser_prints_what_a_fresh_one_does(sequence, capsys):
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    cli._parser.cache_clear()
    assert [run_cli(argv, capsys) for argv in sequence] == fresh
    assert cli._parser.cache_info().misses == 1
    if "abc" in sequence[0]:
        assert fresh[0][0] == 2
        assert json.loads(fresh[0][2])["error"]["name"] == "ParseError"
    assert fresh[-1][0] == 0


class TestOutputContract:
    def test_int_str_leaves_the_digit_limit_unchanged(self):
        # 2^20000 has 6,021 digits, past the default limit of 4,300
        limit = sys.get_int_max_str_digits()
        assert len(int_str(1 << 20000)) == 6021
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(ParseError):
            decode_spec('{"type":"lacunary","terms":[{"exponent":%s}]}' % ("9" * 5000))

    def test_out_file_mode_is_what_open_would_give(self, tmp_path, capsys):
        new, existing = tmp_path / "new.csv", tmp_path / "existing.csv"
        existing.write_text("old\n")
        existing.chmod(0o640)
        umask = os.umask(0o022)
        try:
            for path in (new, existing):
                code, _, _ = run_cli(["star", "--kmax", "3", "--out", str(path)], capsys)
                assert code == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o644
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640
        assert existing.read_text() == new.read_text()

    def test_out_writes_through_a_symlink(self, tmp_path, capsys):
        # as open(path, "w") would: the target gets the bytes, the link stays
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target.name)
        dangling, dangling_target = tmp_path / "dangling.csv", tmp_path / "sub" / "new.csv"
        dangling_target.parent.mkdir()
        dangling.symlink_to(dangling_target)
        for path in (link, dangling):
            code, _, _ = run_cli(["star", "--kmax", "2", "--out", str(path)], capsys)
            assert code == 0
        code, expected, _ = run_cli(["star", "--kmax", "2"], capsys)
        assert code == 0
        assert link.is_symlink() and dangling.is_symlink()
        assert target.read_text() == dangling_target.read_text() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dangling.csv", "link.csv", "sub", "target.csv"
        ]
        assert [p.name for p in dangling_target.parent.iterdir()] == ["new.csv"]

    def test_out_writes_into_a_fifo(self, tmp_path, capsys):
        # as open(path, "w") would: the reader gets the bytes, the FIFO stays;
        # the read end is opened first, without blocking, so the write does
        # not wait for a reader
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run_cli(["star", "--kmax", "2", "--out", str(fifo)], capsys)
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        stdout_code, expected, _ = run_cli(["star", "--kmax", "2"], capsys)
        assert code == stdout_code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received == expected.encode("utf-8")
