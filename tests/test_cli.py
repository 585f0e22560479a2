"""End-to-end tests for the qmb command-line interface."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmatball
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

    def test_negative_bidegree_names_the_kind(self, capsys):
        code, out, err = run(capsys, "dims", "--algebra", "pol:1x2", "--bidegree", "2,-1")
        assert (code, out) == (1, "")
        assert err == "error: negative count -1 of kind 'zs'\n"


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

    @pytest.mark.parametrize(
        "coeff,token,bad",
        [
            ("1/0", "z[1,1]", "'1/0'"),
            ("[0:1]/[0:1]/[0:1]", "z[1,1]", "'[0:1]/[0:1]/[0:1]'"),
            ("[0:1]/[]", "z[1,1]", "'[0:1]/[]'"),
            ("[1_0:1]", "z[1,1]", "'[1_0:1]'"),
            ("\u0663", "z[1,1]", "'\u0663'"),
            ("1", "z[\u0661,\u0661]", "'z[\u0661,\u0661]'"),
        ],
    )
    def test_malformed_literal(self, capsys, coeff, token, bad):
        raw = json.dumps({"terms": [{"coeff": coeff, "word": [token]}]})
        code, out, err = run(capsys, "nf", "--algebra", "pol:1x1", "--input", raw)
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed polynomial JSON: ")
        assert bad in err

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

    @pytest.mark.parametrize(
        "mn,k,digest,fmt",
        [
            ("2x2", "5", "36a07f49f01aec5f527d38037a132b3e17639eb8c0f54da65425ba759ba437b1", "json"),
            ("2x3", "3", "4a16cbd1c2693e3dcd7eacc879eea362871318706bb827f0835ba205453ad336", "json"),
            ("2x3", "3", "b5d12512851f2285300bec3ca50ecf61008c803a1f7377260a953826c2925235", "csv"),
        ],
    )
    def test_stdout_golden(self, capsys, mn, k, digest, fmt):
        # sha256 of stdout recorded before the Gram blocks skipped off-weight
        # pairs (json), and before the Gram matrix was stored sparse (csv)
        code, out, _ = run(capsys, "gram", "--mn", mn, "--max-degree", k, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "coeff,value",
        [
            ("-1/7+3i", "-65/112+195/16i"),
            ("-2/3-i", "-65/24-65/16i"),
            ("5/4i", "325/64i"),
            ("-8/65+16/65i", "-1/2+1i"),
            ("-16/65i", "-1i"),
        ],
    )
    def test_value_at_q0_golden(self, capsys, coeff, value):
        # stdout recorded before GaussRat lost its arithmetic; a unit
        # imaginary part keeps its "1" here, unlike the canonical text
        word = '["z[1,1]","f0[0,0]","zs[1,1]"]'
        code, out, _ = run(
            capsys, "integral", "--algebra", "funu:1x1", "--q0", "4/9",
            "--input", f'{{"terms":[{{"coeff":"{coeff}","word":{word}}}]}}',
        )
        assert code == 0
        assert json.loads(out)["value_at_q0"] == value
        if coeff == "-1/7+3i":
            assert out == (
                '{\n  "algebra": "funu:1x1",\n'
                '  "pretty": "(-1/7+3i + (1/7-3i)*s^4)/(s^4)",\n'
                '  "q0": "4/9",\n'
                '  "value": "[0:-1/7+3i,4:1/7-3i]/[4:1]",\n'
                '  "value_at_q0": "-65/112+195/16i"\n}\n'
            )

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
        # stdout recorded before GaussRat lost its arithmetic
        assert first == second == "".join(
            f"PASS  positivity sample {t} (seed 5)\n" for t in range(3)
        ) + "3/3 checks passed\n"


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

    def test_cutoff_no_longer_bounds_the_checks(self, capsys):
        # the ladder operators are exact at every degree, so rep-check has no
        # slice to bound and --cutoff is no option of it
        argv = ("rep-check", "--mn", "1x1", "--max-degree", "3")
        code, out, err = run(capsys, *argv, "--cutoff", "2")
        assert (code, out) == (1, "")
        assert err.startswith("usage: qmb")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["qmb: error: unrecognized arguments: --cutoff 2"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert "9/9 checks passed" in out

    def test_three_by_three_battery(self, capsys):
        code, out, _ = run(capsys, "rep-check", "--mn", "3x3", "--max-degree", "1")
        assert code == 0
        assert out.count("PASS") == 9
        assert "9/9 checks passed" in out

    @pytest.mark.parametrize(
        "mn,k,digest",
        [
            ("2x2", "2", "3b33e348b920dc7c3d650d41c38846a6bf4324d0af0d839eb5f7f047f9a1d231"),
            ("1x2", "3", "6e7f0c560354f842637529eb0b0b0d474ca3eeaf6e2dd2fbc8cf10d2b0af2433"),
            ("1x1", "2", "3b33e348b920dc7c3d650d41c38846a6bf4324d0af0d839eb5f7f047f9a1d231"),
            ("2x1", "2", "3b33e348b920dc7c3d650d41c38846a6bf4324d0af0d839eb5f7f047f9a1d231"),
            ("1x3", "2", "3b33e348b920dc7c3d650d41c38846a6bf4324d0af0d839eb5f7f047f9a1d231"),
            ("2x3", "1", "6f6309a5f508eeb4307aa02e17f4edf6047f16997a9cd069985fb177d7e797bf"),
            ("3x4", "1", "6f6309a5f508eeb4307aa02e17f4edf6047f16997a9cd069985fb177d7e797bf"),
            ("4x4", "1", "6f6309a5f508eeb4307aa02e17f4edf6047f16997a9cd069985fb177d7e797bf"),
        ],
    )
    def test_stdout_golden(self, capsys, mn, k, digest):
        # sha256 of stdout recorded with truncated operator slices (the first
        # two before operator entries shared a product table); 3x4 and 4x4
        # (every line PASS, about 5 s) recorded while minors were still
        # expanded as permutation sums
        code, out, _ = run(capsys, "rep-check", "--mn", mn, "--max-degree", k)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRMatrixCheck:
    def test_dimension_two(self, capsys):
        code, out, _ = run(capsys, "rmatrix-check", "--dim", "2")
        assert code == 0
        # UU and VV carry four properties each, the bar tables one each.
        assert out.count("PASS") == 10
        assert "FAIL" not in out


# sha256 of (csv, json) stdout over every export target of a size at a cutoff
EVERY_TARGET_DIGESTS = {
    ("1x1", 0): (
        "c6fc027caa8c7c68d1d6a9c52a0941d839ce373b4f93f9d399c43e7222e71ceb",
        "c5a85b8b8a58f29b72cfc997aa3ece9aee363db14eee3d43c4c290e6d2ed34f2",
    ),
    ("1x1", 2): (
        "d9c2cb31aae54d80c12f4cb8ab93e37d26e18d8abed2f2796b1acf6b6ecd828a",
        "51af8a83cf15468aab4b1a80587375675054decb0428455c7988558154c634e7",
    ),
    ("1x2", 0): (
        "e38d2b7aa5f49ebf9fb5c094ee07285d2fb80a0e5a9f10d6d04f415ed86462e5",
        "8bcb54637f65596da22f1f2a940d09a185c0160d1b59bd847ad39a91d927e4f1",
    ),
    ("1x2", 2): (
        "4ec581d66fba74030810b89f7d8ef0c567793bc24bdbf7db48972ca2be1e33d5",
        "4bb7a3465891760a1cc0e769de2f8dad2d71bba956d0285b3e4d8091dc1a6214",
    ),
    ("2x1", 0): (
        "044859a99e9992d38913c226e30f406c5d6fa4edd56cca017fa27b8c7d1b043f",
        "6f21d56b6dbcb0622a1b7fe9c3b1d51f5950affd48766a5aef09a77af2a751d8",
    ),
    ("2x1", 2): (
        "bd1ea622260f9f15cc220b1f70545ad61399378146292a0f062ee617d88b243b",
        "18e3254b67e4ac3cda6b95dae606c1665c78481226bb827b7c0000321e4619bd",
    ),
    ("1x3", 0): (
        "91b15da8b274b3a163fe5b5080c15dbd5fa7f1e0646fa1a0245328df1a68aeda",
        "659fa20abd6e49f301580edf1609092769cdc9a73194d794764f280a18cbaf18",
    ),
    ("1x3", 2): (
        "063ae85fa56c2d22e88623bb4c00cf1b0e9037dc7a1874e54a22bc8de7ad5266",
        "1583135e0eb6766f115c0908908fd5cf36747f7b1cedabe077a8ee1e0965f439",
    ),
    ("2x3", 0): (
        "c98484f813359c856e0aa0c56e5a7cbd433665b0d7a3cadc48a47f10b04e404a",
        "fd771c2207ddb05a7b6317c53abb406e1eb50fd7c522594b3b87ba6423792f4f",
    ),
    ("2x3", 2): (
        "6be2cb7bdd81ef20cbadab5c7fd0b165373938930b20d27d6fec46a487295abc",
        "ce1032bb29198a83505576666b5dde14193bb61732e66c929e5f6fbc61944437",
    ),
    # recorded while the slices still carried their own bounded operators,
    # built apart from the ladder images
    ("2x2", 0): (
        "ddf43140be608068c3e96ecc62e03a7ad894325b451cc3f14d7de249af1f0569",
        "1ffdad19d81c8c4590601bce66886ed455bc71d54a6a71b87948f2a802b41c6a",
    ),
    ("2x2", 2): (
        "14206dde1b8984e4f0cc473f53b08e4cba87718c5ad104aac411d16fbb38a6ee",
        "89a224b4dc39788b330fdbfa2c6cacf6a391582a9a1f615867c7cb1a556b55c8",
    ),
    ("3x2", 0): (
        "0544b9f14100682d8acf2541b0be7907c7321e130ee4b9b59bfcf0ec10d5b7c8",
        "7eff074271245a052035500b3dfed88ec3a94a664179d3e83fca6a656319ec04",
    ),
}


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

    @pytest.mark.parametrize(
        "what,fmt,digest",
        [
            ("corner", "json", "ed0f87de92ea076955827cd549c11f2a4628f20d3f9964d12a17db85b172e732"),
            ("corner", "csv", "3924801c6493cb63a297d30423fbdae9169bdbc0fd5e44c9ba0a23a27db008c0"),
            ("volume", "json", "0030f4a782566699fe43e78c9f7f9ea450b9412ac2ed3603627187ac6e6d69d2"),
            ("volume", "csv", "d735749417b15551b4ab084be32494df531a1548eccbeb79ab6925cc49979f40"),
            ("coordinate:1,1", "json", "61440e1839d12e31d39bb8c361943c6333cf1e81df47c99f9cd6cd693791e57f"),
            ("coordinate:1,1", "csv", "7b463c6a91a540b491bb373e5818457f1afe033bd085c8db1c20bb4a5d2476cd"),
            ("coordinate-star:2,1", "json", "12666aa5bfcd297b7368ce79fd949d76843f552eb72034a001dc2a9a3c42a8b7"),
            ("coordinate-star:2,1", "csv", "a6811066ade28b1fbf26f3204246caac89063af3bdc8decf0441d09fbb2d05cb"),
            ("letter:1,2", "json", "7bf7f4a0a4f8889530b63f9a881be65834236114a02415a911a252171bf99f7f"),
            ("letter:1,2", "csv", "1e15b648a17a34ec4370c97cb1fd48f5803e51f31b8996a1f52fed3fdff1cb33"),
        ],
    )
    def test_stdout_golden(self, capsys, what, fmt, digest):
        # sha256 of stdout recorded before operator entries shared a product table
        code, out, _ = run(capsys, "export", "--mn", "2x2", "--what", what, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("mn,cutoff", list(EVERY_TARGET_DIGESTS))
    def test_every_target_golden(self, capsys, mn, cutoff):
        # sha256 over every export target of the size, each as a line
        # "<target> exit <code>" and its stdout; recorded while the slices
        # were still composed entry by entry, so the certificate and shift
        # headers are pinned at small cutoffs too
        m, n = (int(x) for x in mn.split("x"))
        N = m + n
        targets = [f"letter:{i},{j}" for i in range(1, N + 1) for j in range(1, N + 1)]
        for kind in ("coordinate", "coordinate-star"):
            targets += [f"{kind}:{a},{al}" for a in range(1, n + 1) for al in range(1, m + 1)]
        targets += ["corner", "opposite-corner", "volume", "projector"]
        for fmt, digest in zip(("csv", "json"), EVERY_TARGET_DIGESTS[(mn, cutoff)]):
            h = hashlib.sha256()
            for what in targets:
                code, out, _ = run(
                    capsys, "export", "--mn", mn, "--what", what,
                    "--cutoff", str(cutoff), "--format", fmt,
                )
                h.update(f"{what} exit {code}\n{out}".encode())
            assert h.hexdigest() == digest, fmt

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, fmt):
        argv = ("export", "--mn", "2x2", "--what", "coordinate:1,1", "--format", fmt)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        target = tmp_path / f"slice.{fmt}"
        code, quiet, _ = run(capsys, *argv, "--out", str(target))
        assert (code, quiet) == (0, "")
        assert target.read_bytes() == out.encode()

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

    @pytest.mark.parametrize(
        "spec",
        [
            "letter:--1,1",
            "letter:\u00b2,1",
            "coordinate:1,+1",
            # the index-free targets take no tail, not even an empty one
            "corner:junk",
            "opposite-corner:1",
            "volume:",
            "projector:1,2",
        ],
    )
    def test_malformed_index_is_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "export", "--mn", "1x1", "--what", spec)
        assert (code, out) == (1, "")
        assert f"malformed {spec.partition(':')[0]} spec" in err


class TestNegativeBounds:
    # argparse rejects these (its own exit status 2); main() maps every
    # argparse error to the documented usage exit code 1
    CASES = [
        ("dims", "--algebra", "cmat:2x2", "--max-degree", "-3"),
        ("gram", "--mn", "1x1", "--max-degree", "-1"),
        ("rep-check", "--mn", "1x1", "--max-degree", "-2"),
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


class TestAlphabet:
    """Generators outside the preset's alphabet are input errors (exit 1)."""

    @pytest.mark.parametrize(
        "argv,word",
        [
            (("nf", "--algebra", "pol:1x1"), ["zs[1,1]", "z[2,1]"]),
            (("act", "E1", "--algebra", "pol:1x1"), ["z[2,2]"]),
            (("integral", "--algebra", "funu:1x1"), ["z[3,3]", "f0", "zs[3,3]"]),
            (("invariance", "--algebra", "funu:1x1"), ["z[1,2]", "f0", "zs[1,1]"]),
            (("nf", "--algebra", "cmat:2x2"), ["zs[1,1]"]),
        ],
    )
    def test_rejected_with_exit_one(self, capsys, argv, word):
        raw = json.dumps({"terms": [{"coeff": "1", "word": word}]})
        code, out, err = run(capsys, *argv, "--input", raw)
        assert code == 1
        assert out == ""
        assert "not in the alphabet" in err


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


def test_cold_import_skips_unused_stdlib_modules():
    # dataclasses drags in inspect, ast, dis and tokenize; csv is needed only
    # by the csv writers.  None of them belongs on the cold path of a verb.
    code = (
        "import sys; before = set(sys.modules); import qmatball, qmatball.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'csv'} & "
        "(set(sys.modules) - before))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qmatball.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
