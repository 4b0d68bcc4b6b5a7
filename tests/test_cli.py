"""Command-line surface: gauge parsing, output schemas, determinism, error
records, and spec round-trips through files."""

import json
import math

import pytest

from logmeans.cli import main

MOBIUS = '{"type":"mobius"}'


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
                "--quad-points",
                "0",
            ],
            capsys,
        )
        assert code == 0
        assert out.split("\n")[0] == "r,I_parseval,tail_bound"

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
        from logmeans import parse_function_spec

        code, out, _ = run_cli(
            ["gauge", "--phi", "pow:1.0", "--kmax", "4", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        p = parse_function_spec(doc["function"])
        assert [row["n_k"] for row in doc["rows"]] == list(p.schedule.n_k)

    def test_underpowered_quadrature_rejected(self, capsys):
        code, _, err = run_cli(
            [
                "means",
                "--spec",
                MOBIUS,
                "--radii",
                "geometric:0.5,0.5,2",
                "--trunc",
                "512",
                "--quad-points",
                "64",
            ],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["error"]["name"] == "ParseError"

    def test_bad_radii_spec(self, capsys):
        code, _, err = run_cli(
            ["means", "--spec", MOBIUS, "--radii", "linear:1,2"], capsys
        )
        assert code == 2
        record = json.loads(err)
        assert record["error"]["name"] == "ParseError"


class TestH2Command:
    def test_runs(self, capsys):
        code, out, _ = run_cli(
            ["h2", "--spec", MOBIUS, "--trunc", "4096", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["h2_sum"] < row["ceiling"] == pytest.approx(math.pi ** 2 / 2)


class TestStarCommand:
    def test_rows_respect_floor(self, capsys):
        code, out, _ = run_cli(["star", "--kmax", "12", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "star"
        for row in doc["rows"]:
            assert row["ratio_to_lower"] >= 1.0


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

    def test_size_cap_error(self, capsys):
        code, _, err = run_cli(["gauge", "--phi", "powlog:2,0.5", "--kmax", "6"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["name"] == "ExponentOverflow"


MALFORMED_ARGV = [
    ["means", "--spec", "@missing-spec.json"],
    ["means", "--spec", MOBIUS, "--trunc", "0"],
    ["means", "--spec", MOBIUS, "--trunc", "-5"],
    ["h2", "--spec", MOBIUS, "--trunc", "0"],
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
]


@pytest.mark.parametrize("argv", MALFORMED_ARGV, ids=" ".join)
def test_malformed_input_error_record(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    record = json.loads(err)
    assert set(record) == {"schema", "error"}
    assert record["schema"] == "v1"
    assert set(record["error"]) == {"name", "message"}
    assert isinstance(record["error"]["name"], str)
    assert isinstance(record["error"]["message"], str)


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
