import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from goldens import CLI_GOLDENS, EX1, EX1_IMAGE, EX2, EX2_DEGREE, STATS_EX1_JSON_FILE_SHA256

from crossnest import (
    _kernels,
    cli,
    core,
    cro,
    cro_star,
    degree_sequence,
    fillings,
    neg,
    nes,
    nes_star,
    parse_permutation,
    upper_diagram,
    wex,
)
from crossnest.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(CLI_GOLDENS), ids=" ".join)
def test_output_bytes_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    first_err = err.splitlines()[0] if err else ""
    assert (sha256(out), code, first_err) == CLI_GOLDENS[argv]


def test_json_out_file_bytes_are_pinned(capsys, tmp_path):
    target = tmp_path / "stats.json"
    assert run_cli(capsys, "stats", EX1, "--json", "--out", str(target)) == (0, "", "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == STATS_EX1_JSON_FILE_SHA256


class TestStats:
    def test_example_one_text(self, capsys):
        code, out, _ = run_cli(capsys, "stats", EX1)
        assert code == 0
        assert "cro: 4" in out and "nes: 5" in out

    def test_example_two_json(self, capsys):
        code, out, _ = run_cli(capsys, "stats", EX2, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["cro_star"] == 4 and payload["nes_star"] == 2
        assert payload["degree_sequence"] == EX2_DEGREE

    def test_trivial_element(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "1", "--json")
        payload = json.loads(out)
        assert payload == {
            "n": 1, "wex": 1, "neg": 0, "cro": 0, "nes": 0,
            "cro_star": 1, "nes_star": 1, "degree_sequence": "(0,0)(1,1)",
        }

    def test_parse_failure_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "stats", "2,2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text,token", [
        ("2,1_0,1,3,4,5,6,7,8,9", "1_0"), ("\u0661,2", "\u0661")])
    def test_token_outside_ascii_digits_is_usage_error(self, capsys, text, token):
        # int() alone reads these as a rank-10 permutation and as (1, 2)
        code, out, err = run_cli(capsys, "stats", text)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: token {token!r} is not an integer"]

    @pytest.mark.parametrize("text", [EX1, EX2])
    def test_json_matches_public_statistics(self, capsys, text):
        p = parse_permutation(text)
        expected = {
            "n": p.n, "wex": wex(p), "neg": neg(p), "cro": cro(p), "nes": nes(p),
            "cro_star": cro_star(p), "nes_star": nes_star(p),
            "degree_sequence": str(degree_sequence(p)),
        }
        _, out, _ = run_cli(capsys, "stats", text, "--json")
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_one_diagram_per_payload(self, capsys, monkeypatch):
        built = []

        def counted(p):
            built.append(p)
            return upper_diagram(p)
        monkeypatch.setattr(core, "upper_diagram", counted)
        monkeypatch.setattr(cli, "upper_diagram", counted)
        run_cli(capsys, "stats", EX1)
        assert len(built) == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "stats", EX1, "--json")
        _, second, _ = run_cli(capsys, "stats", EX1, "--json")
        assert first == second


class TestInvolute:
    def test_pair_map_golden(self, capsys):
        code, out, _ = run_cli(capsys, "involute", EX1, "--map", "theorem24")
        assert code == 0
        assert out.splitlines()[0] == EX1_IMAGE

    def test_pair_map_swaps_counts(self, capsys):
        _, out, _ = run_cli(capsys, "involute", EX1, "--map", "theorem24", "--json")
        payload = json.loads(out)
        assert payload["before"]["cro"] == payload["after"]["nes"] == 4
        assert payload["before"]["nes"] == payload["after"]["cro"] == 5

    def test_chain_map(self, capsys):
        _, out, _ = run_cli(capsys, "involute", EX2, "--map", "theta", "--json")
        payload = json.loads(out)
        assert (payload["after"]["cro_star"], payload["after"]["nes_star"]) == (2, 4)

    def test_identity_fixed(self, capsys):
        _, out, _ = run_cli(capsys, "involute", "1,2")
        assert out.splitlines()[0] == "1,2"


class TestFillAndTheta:
    def test_fill_shape_line(self, capsys):
        code, out, _ = run_cli(capsys, "fill", EX2)
        assert code == 0
        assert out.splitlines()[0] == "6,6,6,6,4,3"

    def test_theta_from_permutation(self, capsys):
        code, out, _ = run_cli(capsys, "theta", EX2, "--json")
        payload = json.loads(out)
        assert payload["after"]["cro_star"] == 2
        assert payload["after"]["neg"] == 2

    def test_theta_from_filling_round_trip(self, capsys, tmp_path):
        code, filled, _ = run_cli(capsys, "fill", EX2)
        src = tmp_path / "filling.txt"
        src.write_text(filled)
        code, swapped, _ = run_cli(capsys, "theta", "--from-filling", str(src))
        assert code == 0
        assert swapped.splitlines()[0] == "6,6,6,6,4,3"
        # applying the interchange twice restores the filling
        back = tmp_path / "swapped.txt"
        back.write_text(swapped)
        code, restored, _ = run_cli(capsys, "theta", "--from-filling", str(back))
        assert restored == filled

    def test_theta_needs_exactly_one_input(self, capsys, tmp_path):
        code, filled, _ = run_cli(capsys, "fill", EX2)
        src = tmp_path / "filling.txt"
        src.write_text(filled)
        for argv in (("theta", "1,2", "--from-filling", str(src)), ("theta",)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_theta_from_filling_refuses_json(self, capsys, tmp_path):
        # a filling has no JSON form, so --json must not fall back to text
        code, filled, _ = run_cli(capsys, "fill", EX2)
        src = tmp_path / "filling.txt"
        src.write_text(filled)
        code, out, err = run_cli(capsys, "theta", "--from-filling", str(src), "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", [
        "2,1\n1,x\n", "2,1\n1,1,1\n",
        "",                       # no shape line
        "2,0\n1,1\n",             # a part that is not positive
        "1,2\n1,1\n2,2\n",        # parts not weakly decreasing
        "2,1\n1,1\n2,2\n",        # a cell outside the shape
        "2,2\n1,1\n2,1\n",        # two 1s in one column
        "2,2\n1,1\n",             # a row with no 1
        "2,1\n1,1_0\n",           # a token that is not ASCII digits
    ])
    def test_theta_malformed_filling_is_usage_error(self, capsys, tmp_path, text):
        src = tmp_path / "bad.txt"
        src.write_text(text)
        code, out, err = run_cli(capsys, "theta", "--from-filling", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_theta_internal_error_exits_3(self, capsys, monkeypatch):
        # doubled border labels break the backward rules at the first corner
        monkeypatch.setattr(fillings, "_conjugate", lambda lam: tuple(2 * v for v in lam))
        code, out, err = run_cli(capsys, "theta", EX2)
        assert code == 3
        assert out == "" and "internal error" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "fill", EX2, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "6,6,6,6,4,3"


class TestNegativeFirstEntry:
    """A permutation such as -1,2 parses as `perm`, not as an option."""

    @pytest.mark.parametrize("command", ["stats", "involute", "fill", "theta"])
    @pytest.mark.parametrize("perm", ["-1,2", "-2,-1", "-3,1,-2"])
    def test_same_output_as_after_double_dash(self, capsys, command, perm):
        code, expected, err = run_cli(capsys, command, "--", perm)
        assert code == 0 and err == ""
        assert run_cli(capsys, command, perm) == (0, expected, "")

    @pytest.mark.parametrize("command", ["stats", "involute", "theta"])
    def test_options_before_or_after(self, capsys, command):
        code, expected, _ = run_cli(capsys, command, "--json", "--", "-1,2")
        assert code == 0 and json.loads(expected)
        assert run_cli(capsys, command, "-1,2", "--json") == (0, expected, "")
        assert run_cli(capsys, command, "--json", "-1,2") == (0, expected, "")

    def test_involute_map_option(self, capsys):
        expected = run_cli(capsys, "involute", "--map", "theta", "--", "-2,-1")
        assert expected[0] == 0
        assert run_cli(capsys, "involute", "-2,-1", "--map", "theta") == expected

    def test_out_option(self, capsys, tmp_path):
        target = tmp_path / "fill.txt"
        code, out, _ = run_cli(capsys, "fill", "-1,2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == run_cli(capsys, "fill", "--", "-1,2")[1]

    def test_single_negative_entry(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "-1", "--json")
        assert code == 0
        assert json.loads(out)["neg"] == 1

    def test_bad_permutation_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "stats", "-1,1")
        assert code == 2 and out == ""
        assert err.startswith("error:")


# `crossnest verify involutions --n 2`, as written when the merged report
# was built by hand
INVOLUTIONS_2_REPORT = """\
{
  "claim": "involutions",
  "parameters": {
    "n_max": 2
  },
  "passed": true,
  "counterexamples": [],
  "info": {
    "pair_checked": {
      "permutations_checked": 10
    },
    "chain_checked": {
      "permutations_checked": 10
    }
  }
}
"""
# sha256 of the same report with the pair map replaced by the identity
INVOLUTIONS_2_FAILURE_SHA256 = "bec06c5486e7dce7398f047d91365eee97ef41a6cf5b0734baf30923b701f9e7"


class TestVerify:
    def test_thm24_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm24", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["claim"] == "thm24"

    def test_thm27_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm27", "--n", "3")
        assert code == 0

    def test_corollary_reports_chain_reading_mismatch(self, capsys):
        # expected counts follow the closed form, the chain definition
        # yields a second witness from rank 3 on; exit code signals the
        # failed claim while the report carries the counterexamples
        code, out, _ = run_cli(capsys, "verify", "corollary", "--n", "3")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["counterexamples"][0]["n"] == 3

    def test_lemma41_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemma41", "--n", "3")
        assert code == 0

    def test_involutions_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "involutions", "--n", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert out == INVOLUTIONS_2_REPORT

    def test_involutions_failure_report_bytes(self, capsys, monkeypatch):
        # an identity "pair map" fails the swap wherever cro != nes
        monkeypatch.setattr(_kernels, "pair_involution_batch", lambda arcs: arcs)
        code, out, _ = run_cli(capsys, "verify", "involutions", "--n", "2")
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == INVOLUTIONS_2_FAILURE_SHA256
        assert {entry["map"] for entry in json.loads(out)["counterexamples"]} == {"theorem24"}

    def test_involutions_chain_internal_error_exits_3(self, capsys, monkeypatch):
        # doubled border labels break the theta kernel's backward rules
        conjugate = _kernels._conjugate
        monkeypatch.setattr(_kernels, "_conjugate", lambda labels: 2 * conjugate(labels))
        code, out, err = run_cli(capsys, "verify", "involutions", "--n", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:") and len(err.splitlines()) == 1

    def test_involutions_desynchronized_exits_3(self, capsys, monkeypatch):
        arcs = _kernels.upper_arcs_batch

        def broken(values):
            # the leftmost vertex closes an arc of its own before any opens
            table = arcs(values)
            table[:, 0] = -table.shape[1]
            return table

        monkeypatch.setattr(_kernels, "upper_arcs_batch", broken)
        code, out, err = run_cli(capsys, "verify", "involutions", "--n", "2")
        assert code == 3 and out == ""
        assert err.startswith("internal error:") and len(err.splitlines()) == 1

    # lemma41's --n counts desk rows, which have no upper guard
    @pytest.mark.parametrize("claim,n", [
        (claim, n)
        for claim in ("thm24", "thm27", "corollary", "lemma41", "involutions")
        for n in ("0", "-1", "9")
        if (claim, n) != ("lemma41", "9")
    ])
    def test_bound_outside_range_is_usage_error(self, capsys, claim, n):
        code, out, err = run_cli(capsys, "verify", claim, "--n", n)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "thm24", "--n", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["passed"] is True


class TestDistribution:
    def test_csv_default(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "--n", "2",
                               "--schema", "nes,cro,wex,neg")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "nes,cro,wex,neg,count"
        assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == 8

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "--n", "1", "--json")
        rows = json.loads(out)
        assert sum(r["count"] for r in rows) == 2

    def test_chain_schema(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "--n", "2",
                               "--schema", "cro_star,nes_star")
        assert code == 0
        assert out.splitlines()[0] == "cro_star,nes_star,count"


    def test_unknown_statistic_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "distribution", "--n", "2", "--schema", "nes,foo")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["csv", "json"])
    def test_repeated_statistic_is_usage_error(self, capsys, fmt):
        code, out, err = run_cli(capsys, "distribution", "--n", "2",
                                 "--schema", "cro,cro", *fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_degree_code_is_not_a_statistic(self, capsys):
        code, out, err = run_cli(capsys, "distribution", "--n", "2", "--schema", "degree")
        assert code == 2
        assert out == "" and err.startswith("error:")


# sha256 of `crossnest enumerate --n 3` as written before the output streamed
ENUMERATE_3_SHA256 = "3b0e4516c74e528bb9c1f469d21cd66ab1af2f8611dbbf0b04353f9e4137c4ca"


class TestEnumerate:
    def test_rank_one(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "1")
        assert code == 0
        assert out.splitlines() == ["1", "-1"]

    def test_rank_guard(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "9")
        assert code == 2

    def test_streams_the_same_bytes(self, capsys, small_blocks, tmp_path):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
        assert code == 0 and small_blocks == [4, 2]
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_3_SHA256
        target = tmp_path / "b3.txt"
        code, out_file, _ = run_cli(capsys, "enumerate", "--n", "3", "--out", str(target))
        assert code == 0 and out_file == ""
        assert target.read_text() == out

    def test_rank_guard_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "b9.txt"
        code, _, _ = run_cli(capsys, "enumerate", "--n", "9", "--out", str(target))
        assert code == 2
        assert not target.exists()

    def test_closed_stdout_ends_quietly(self):
        # `crossnest enumerate --n 7 | head -1`: the reader leaves after one
        # line of 645,120, so a later write finds the pipe closed
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        with subprocess.Popen([sys.executable, "-m", "crossnest.cli", "enumerate", "--n", "7"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"1,2,3,4,5,6,7\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (0, b"")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "enumerate", "--n", "1",
                                 "--out", str(tmp_path / "missing" / "b1.txt"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [("verify", "thm24"), ("distribution",), ("enumerate",)],
                         ids=lambda command: command[0])
@pytest.mark.parametrize("token", ["0_2", "\u0663", "x", "2.0"])
def test_rank_token_is_usage_error(capsys, command, token):
    # int() alone reads 0_2 as 2 and the Arabic-Indic digit three as 3
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--n", token])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert err.splitlines()[-1] == (f"crossnest {command[0]}: error: argument --n: "
                                    f"token {token!r} is not an integer")
