"""End-to-end tests for the qmb command-line interface."""

import csv
import io
import json
import subprocess
import sys

import pytest

from qmatball.cli import main
from qmatball.field import ONE, Scalar, q_pow, s_pow
from qmatball.fockrep import gram_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_graded_dimensions_json(self, capsys):
        code, out, _ = run(capsys, "dims", "--algebra", "cmat:2x2", "--max-degree", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["algebra"] == "cmat:2x2"
        dims = {row["degree"]: row["dimension"] for row in payload["rows"]}
        assert dims == {0: 1, 1: 4, 2: 10, 3: 20, 4: 35}

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--algebra", "cmat:1x2", "--max-degree", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,dimension"
        assert lines[1:] == ["0,1", "1,2", "2,3"]

    def test_bidegree_slice(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--algebra", "pol:2x2", "--bidegree", "2,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == [{"bidegree": [2, 1], "dimension": 40}]

    def test_bidegree_rejected_without_conjugates(self, capsys):
        code, _, err = run(capsys, "dims", "--algebra", "cmat:1x1", "--bidegree", "1,1")
        assert code == 1
        assert "zs" in err

    def test_malformed_bidegree(self, capsys):
        code, _, err = run(capsys, "dims", "--algebra", "pol:1x1", "--bidegree", "2;1")
        assert code == 1
        assert "bidegree" in err


class TestNormalForm:
    def test_reorders_conjugate_past_coordinate(self, capsys):
        raw = '{"terms":[{"coeff":"1","word":["zs[1,1]","z[1,1]"]}]}'
        code, out, _ = run(capsys, "nf", "--algebra", "pol:1x1", "--input", raw)
        assert code == 0
        payload = json.loads(out)
        coeffs = {
            tuple(t["word"]): Scalar.from_string(t["coeff"])
            for t in payload["normal_form"]["terms"]
        }
        assert coeffs[()] == ONE - q_pow(2)
        assert coeffs[("z[1,1]", "zs[1,1]")] == q_pow(2)

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO('{"terms":[{"coeff":"1","word":["z[1,1]"]}]}')
        )
        code, out, _ = run(capsys, "nf", "--algebra", "cmat:1x1", "--input", "-")
        assert code == 0
        assert json.loads(out)["pretty"] == "z[1,1]"

    def test_reads_file(self, capsys, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text('{"terms":[{"coeff":"1","word":["z[1,1]"]}]}')
        code, out, _ = run(capsys, "nf", "--algebra", "cmat:1x1", "--input", f"@{path}")
        assert code == 0
        assert json.loads(out)["pretty"] == "z[1,1]"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "nf", "--algebra", "cmat:1x1", "--input", "@/nope")
        assert code == 1
        assert "cannot read" in err

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "nf", "--algebra", "cmat:1x1", "--input", "{oops")
        assert code == 1
        assert "malformed polynomial" in err

    def test_writes_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "nf", "--algebra", "cmat:1x1",
            "--input", '{"terms":[{"coeff":"1","word":["z[1,1]"]}]}',
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["pretty"] == "z[1,1]"


class TestAct:
    def test_raising_letter_on_coordinate(self, capsys):
        raw = '{"terms":[{"coeff":"1","word":["z[1,1]"]}]}'
        code, out, _ = run(capsys, "act", "E1", "--algebra", "pol:1x1", "--input", raw)
        assert code == 0
        payload = json.loads(out)
        (term,) = payload["result"]["terms"]
        assert term["word"] == ["z[1,1]", "z[1,1]"]
        assert Scalar.from_string(term["coeff"]) == -s_pow(1)

    def test_inverse_grouplike_letter(self, capsys):
        raw = '{"terms":[{"coeff":"1","word":["z[1,1]"]}]}'
        code, out, _ = run(
            capsys, "act", "K1inv", "--algebra", "pol:1x1", "--input", raw
        )
        assert code == 0
        (term,) = json.loads(out)["result"]["terms"]
        assert Scalar.from_string(term["coeff"]) == q_pow(-2)

    def test_index_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "act", "E9", "--algebra", "pol:1x1", "--input", '{"terms":[]}'
        )
        assert code == 1
        assert "out of range" in err

    def test_bad_token(self, capsys):
        code, _, err = run(
            capsys, "act", "Q1", "--algebra", "pol:1x1", "--input", '{"terms":[]}'
        )
        assert code == 1
        assert "letter token" in err


class TestGram:
    def test_matches_library_block(self, capsys):
        code, out, _ = run(capsys, "gram", "--mn", "1x2", "--max-degree", "2")
        assert code == 0
        payload = json.loads(out)
        G = gram_matrix(1, 2, 2)
        assert payload["dimension"] == len(G)
        for i, row in enumerate(payload["entries"]):
            for j, cell in enumerate(row):
                assert Scalar.from_string(cell) == G[i][j]

    def test_positivity_certificate(self, capsys):
        code, out, _ = run(
            capsys, "gram", "--mn", "1x1", "--max-degree", "3", "--q0", "1/4"
        )
        assert code == 0
        assert json.loads(out)["positive_minors_through_degree"] is True

    def test_failing_certificate_exits_two(self, capsys):
        # q = 4 lies outside the unit interval, so 1 - q^2 < 0 already in
        # degree one and the Sylvester test must report failure.
        code, out, _ = run(
            capsys, "gram", "--mn", "1x1", "--max-degree", "1", "--q0", "4"
        )
        assert code == 2
        assert json.loads(out)["positive_minors_through_degree"] is False

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "gram", "--mn", "1x1", "--max-degree", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "row,col,value"
        ((row, col, value),) = csv.reader([lines[2]])
        assert (row, col) == ("0", "0")
        assert Scalar.from_string(value) == ONE - q_pow(2)

    def test_irrational_root_rejected(self, capsys):
        code, _, err = run(
            capsys, "gram", "--mn", "1x1", "--max-degree", "1", "--q0", "2/3"
        )
        assert code == 1
        assert "square of a rational" in err


class TestIntegral:
    SANDWICH = (
        '{"terms":[{"coeff":"1","word":["z[1,1]","f0[0,0]","zs[1,1]"]}]}'
    )

    def test_degree_one_sandwich(self, capsys):
        code, out, _ = run(
            capsys, "integral", "--algebra", "funu:1x1",
            "--input", self.SANDWICH, "--q0", "1/4",
        )
        assert code == 0
        payload = json.loads(out)
        assert Scalar.from_string(payload["value"]) == q_pow(-2) * (ONE - q_pow(2))
        assert payload["value_at_q0"] == "15"

    def test_projector_integrates_to_one(self, capsys):
        code, out, _ = run(
            capsys, "integral", "--algebra", "funu:2x2",
            "--input", '{"terms":[{"coeff":"1","word":["f0[0,0]"]}]}',
        )
        assert code == 0
        assert Scalar.from_string(json.loads(out)["value"]) == ONE

    def test_requires_projector_algebra(self, capsys):
        code, _, err = run(
            capsys, "integral", "--algebra", "pol:1x1",
            "--input", '{"terms":[{"coeff":"1","word":["z[1,1]"]}]}',
        )
        assert code == 1
        assert err.startswith("error:")

    def test_needs_input_or_positivity(self, capsys):
        code, _, err = run(capsys, "integral", "--algebra", "funu:1x1")
        assert code == 1
        assert "--input" in err

    def test_positivity_battery(self, capsys):
        code, out, _ = run(
            capsys, "integral", "--algebra", "funu:1x1",
            "--positivity", "4", "--seed", "11",
        )
        assert code == 0
        assert out.count("PASS") == 4
        assert "4/4 checks passed" in out

    def test_positivity_battery_is_seed_deterministic(self, capsys):
        _, first, _ = run(
            capsys, "integral", "--algebra", "funu:1x2",
            "--positivity", "3", "--seed", "5", "--q0", "81/100",
        )
        _, second, _ = run(
            capsys, "integral", "--algebra", "funu:1x2",
            "--positivity", "3", "--seed", "5", "--q0", "81/100",
        )
        assert first == second


class TestInvariance:
    def test_projector_is_invariant(self, capsys):
        code, out, _ = run(
            capsys, "invariance", "--algebra", "funu:1x1",
            "--input", '{"terms":[{"coeff":"1","word":["f0[0,0]"]}]}',
        )
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_sandwich_is_invariant_at_bigger_size(self, capsys):
        code, out, _ = run(
            capsys, "invariance", "--algebra", "funu:1x2",
            "--input",
            '{"terms":[{"coeff":"1","word":["z[1,1]","f0[0,0]","zs[1,1]"]}]}',
        )
        assert code == 0
        # two ladder indices, four letters each
        assert out.count("PASS") == 8


class TestRepCheck:
    def test_rank_one_battery(self, capsys):
        code, out, _ = run(capsys, "rep-check", "--mn", "1x1", "--max-degree", "3")
        assert code == 0
        assert "FAIL" not in out
        assert "9/9 checks passed" in out

    def test_two_leg_battery(self, capsys):
        code, out, _ = run(capsys, "rep-check", "--mn", "1x2", "--max-degree", "2")
        assert code == 0
        assert "FAIL" not in out


class TestRMatrixCheck:
    def test_dimension_two(self, capsys):
        code, out, _ = run(capsys, "rmatrix-check", "--dim", "2")
        assert code == 0
        # UU and VV carry four properties each, the bar tables one each.
        assert out.count("PASS") == 10
        assert "FAIL" not in out


class TestExport:
    def test_coordinate_csv_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "export", "--mn", "1x1", "--what", "coordinate:1,1",
            "--cutoff", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# legs=1 cert=4")
        assert lines[1] == "out_index,in_index,value"
        first = dict(zip(("out", "in", "value"), lines[2].split(",")))
        assert (first["out"], first["in"]) == ("1", "0")
        assert Scalar.from_string(first["value"]) == q_pow(1)

    def test_projector_json(self, capsys):
        code, out, _ = run(
            capsys, "export", "--mn", "1x1", "--what", "projector",
            "--cutoff", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["legs"] == 1
        assert payload["entries"] == [
            {"out": [0], "in": [0], "value": "[0:1]/[0:1]"}
        ]

    def test_named_minor_targets(self, capsys):
        for what in ("corner", "opposite-corner", "volume"):
            code, out, _ = run(
                capsys, "export", "--mn", "1x1", "--what", what, "--cutoff", "3"
            )
            assert code == 0, what
            assert out.splitlines()[1] == "out_index,in_index,value"

    def test_unknown_target(self, capsys):
        code, _, err = run(capsys, "export", "--mn", "1x1", "--what", "nope")
        assert code == 1
        assert "unknown export target" in err

    def test_coordinate_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "export", "--mn", "1x2", "--what", "coordinate:9,9"
        )
        assert code == 1
        assert "out of range" in err


class TestNegativeBounds:
    # argparse rejects these (its own exit status 2); main() maps every
    # argparse error to the documented usage exit code 1
    CASES = [
        ("dims", "--algebra", "cmat:2x2", "--max-degree", "-3"),
        ("gram", "--mn", "1x1", "--max-degree", "-1"),
        ("rep-check", "--mn", "1x1", "--max-degree", "-2"),
        ("rep-check", "--mn", "1x1", "--cutoff", "-4"),
        ("export", "--mn", "1x1", "--what", "corner", "--cutoff", "-1"),
        ("rmatrix-check", "--dim", "-3"),
        ("integral", "--algebra", "funu:1x1", "--positivity", "-2"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a))
    def test_negative_bound_is_usage_error(self, capsys, argv):
        from qmatball.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(list(argv))
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage:" in err and "must be non-negative" in err

    def test_non_integer_bound_is_usage_error(self, capsys):
        code, out, err = run(capsys, "dims", "--algebra", "cmat:1x1", "--max-degree", "two")
        assert code == 1
        assert out == ""
        assert "invalid int value: 'two'" in err

    def test_zero_bound_is_accepted(self, capsys):
        code, out, _ = run(capsys, "dims", "--algebra", "cmat:1x1", "--max-degree", "0")
        assert code == 0
        assert json.loads(out)["rows"] == [{"degree": 0, "dimension": 1}]


class TestTopLevel:
    def test_unknown_verb_exits_one(self, capsys):
        assert main(["definitely-not-a-verb"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_required_flag(self, capsys):
        assert main(["nf", "--algebra", "pol:1x1"]) == 1

    def test_console_script_installed(self):
        proc = subprocess.run(
            ["qmb", "dims", "--algebra", "cmat:1x1", "--max-degree", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rows"][1]["dimension"] == 1
