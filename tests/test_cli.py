import hashlib
import json

import pytest

from goldens import EX1, EX1_IMAGE, EX2, EX2_DEGREE

from crossnest import enumeration, fillings
from crossnest.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        payload = json.loads(out)
        assert payload["passed"] is True

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
        code, out, _ = run_cli(capsys, "distribution", "--n", "1", "--format", "json")
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

    def test_streams_the_same_bytes(self, capsys, monkeypatch, tmp_path):
        def refuse(n):
            raise AssertionError(f"whole rank {n} built")
        monkeypatch.setattr(enumeration, "signed_values_batch", refuse)
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
        assert code == 0
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
