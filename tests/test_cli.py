import json
import time

import pytest

from privseq.cli import main


DESIGNED = """\
var X 2
var Y 2
p 0 0 1/4
p 0 1 1/4
p 1 0 1/8
p 1 1 3/8
"""

DETERMINISTIC = """\
var X 2
var Y 2
p 0 0 1/2
p 1 1 1/2
"""

BAD_SUM = """\
var X 2
p 0 99/100
"""


@pytest.fixture
def spec_path(tmp_path):
    def write(text, name="spec.dist"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestFrlBuild:
    def test_designed_instance(self, spec_path, capsys):
        assert main(["frl", "build", "--spec", spec_path(DESIGNED)]) == 0
        out = capsys.readouterr().out
        assert "atoms: 3" in out
        assert "H(U) = 1.500000" in out

    def test_deterministic_single_atom(self, spec_path, capsys):
        assert main(["frl", "build", "--spec", spec_path(DETERMINISTIC)]) == 0
        assert "atoms: 1" in capsys.readouterr().out

    def test_single_atom_entropy_is_positive_zero(self, spec_path, tmp_path, capsys):
        out = tmp_path / "mech.json"
        assert main(["frl", "build", "--spec", spec_path(DETERMINISTIC), "--out", str(out)]) == 0
        assert "H(U) = 0.000000 bits" in capsys.readouterr().out
        assert '"entropy_bits": 0.0,' in out.read_text()

    def test_bad_sum_is_validation_error(self, spec_path, capsys):
        assert main(["frl", "build", "--spec", spec_path(BAD_SUM)]) == 1
        assert "sum" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["frl", "build", "--spec", "/nonexistent/x.dist"]) == 1

    def test_json_output(self, spec_path, tmp_path, capsys):
        out = tmp_path / "mech.json"
        assert main(["frl", "build", "--spec", spec_path(DESIGNED),
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["p_u"] == ["1/4", "1/4", "1/2"]

    def test_optimized_ordering(self, spec_path, capsys):
        assert main(["frl", "build", "--spec", spec_path(DESIGNED),
                     "--optimize", "10"]) == 0
        assert "ordering-optimized" in capsys.readouterr().out

    def test_optimize_below_one_is_validation_error(self, spec_path, capsys):
        assert main(["frl", "build", "--spec", spec_path(DESIGNED), "--optimize", "-1"]) == 1
        assert "ordering-search budget must be at least 1, got -1" in capsys.readouterr().err


class TestPipelineRun:
    def test_builtin_family(self, capsys):
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "exact_zero=True" in out
        assert "lower 2.000000" in out

    def test_deterministic_reports_identical(self, spec_path, tmp_path):
        args = ["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                "--demands", "1,2", "--seed", "7"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_repeated_demands_rejected(self, capsys):
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "1,1"]) == 1

    def test_limit_exceeded(self, capsys):
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "1,2", "--limit", "2"]) == 3

    def test_limit_bounds_chain_construction(self, spec_path, capsys):
        import random

        from conftest import random_database
        from privseq.probability import format_dist

        # this database's chain over demands 1,2,3 has 168 cells after
        # stage 2 and 924 after stage 3; the stage-3 mechanism has as many
        spec = spec_path(format_dist(random_database(random.Random(1), 3, 3, 1)))
        assert main(["pipeline", "run", "--spec", spec, "--demands", "1,2,3",
                     "--limit", "500"]) == 3
        err = capsys.readouterr().err
        assert "chain stage 3 (Y3): the U3 mechanism needs 924 cells, over the limit 500" in err
        assert main(["pipeline", "run", "--spec", spec, "--demands", "1,2",
                     "--limit", "500"]) == 0

    def test_constant_stage_entropy_is_positive_zero(self, spec_path, tmp_path, capsys):
        # Y2 copies Y1, so stage 2 has one atom
        text = "var X 2\nvar Y1 2\nvar Y2 2\n" + "".join(
            f"p {x} {y} {y} 1/4\n" for x in range(2) for y in range(2))
        out = tmp_path / "run.json"
        assert main(["pipeline", "run", "--spec", spec_path(text), "--demands", "1,2",
                     "--out", str(out)]) == 0
        assert "stage entropies: [1.0, 0.0]" in capsys.readouterr().out
        assert json.loads(out.read_text())["stage_entropies"] == [1.0, 0.0]
        assert "-0.0" not in out.read_text()

    def test_sweep(self, capsys):
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "sweep", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst case" in out
        assert out.count("demands (") == 2

    def test_spec_file_database(self, spec_path, capsys):
        text = "var X 2\nvar Y1 2\np 0 0 1/2\np 1 0 1/4\np 1 1 1/4\n"
        assert main(["pipeline", "run", "--spec", spec_path(text),
                     "--demands", "1"]) == 0

    def test_entropy_mode(self, capsys):
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "1,2", "--mode", "entropy"]) == 0

    def test_packed_transcript_output(self, tmp_path, capsys):
        from privseq.pipeline import Transcript

        out = tmp_path / "session.bin"
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "1,2", "--seed", "5",
                     "--transcript-out", str(out)]) == 0
        t = Transcript.unpack(out.read_bytes())
        assert [label for label, _ in t.slots] == ["pad", "u1", "u2"]

    def test_transcript_out_with_sweep_rejected(self, tmp_path, monkeypatch, capsys):
        from privseq import pipeline

        def no_sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(pipeline, "worst_case_sweep", no_sweep)
        out = tmp_path / "session.bin"
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "sweep", "--transcript-out", str(out)]) == 1
        assert "--transcript-out needs an explicit demand vector" in capsys.readouterr().err
        assert not out.exists()


class TestBoundsSweep:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["bounds", "sweep", "--k-range", "2", "--f-range", "1..32",
                     "--out", str(out), "--format", "csv"]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("n,k,f,")
        assert len(rows) == 33
        last_ratio = float(rows[-1].split(",")[-1])
        assert abs(last_ratio - 1.5) / 1.5 < 0.05

    def test_k1_ratio_tends_to_one(self, capsys):
        assert main(["bounds", "sweep", "--k-range", "1", "--f-range", "64"]) == 0
        out = capsys.readouterr().out
        assert "ratio=1.03" in out  # (64 + 2) / 64

    def test_measured_column(self, capsys):
        assert main(["bounds", "sweep", "--k-range", "2", "--f-range", "1",
                     "--measure"]) == 0
        assert "measured=3.0" in capsys.readouterr().out

    def test_measure_row_over_limit_left_blank(self, tmp_path, capsys):
        # f=3 passes the database pre-check but its audit needs 256 states
        out = tmp_path / "sweep.csv"
        assert main(["bounds", "sweep", "--k-range", "2", "--f-range", "1..3", "--measure",
                     "--limit", "200", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[1:] == ["2,2,1,1 2,2.0,6,3,3.0,3.0",
                            "2,2,2,1 2,4.0,10,5,5.0,2.5",
                            "2,2,3,1 2,6.0,13,,,2.1666666666666665"]
        assert capsys.readouterr().out.splitlines()[-1] == "k=2 f=3: upper=13 ratio=2.166667"

    def test_empty_range_header_only_csv(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        assert main(["bounds", "sweep", "--k-range", "", "--f-range", "1",
                     "--out", str(out), "--format", "csv"]) == 0
        assert out.read_text().strip() == \
            "n,k,f,demands,lower,upper_cardinality,upper_entropy_estimate,measured,ratio"

    def test_bad_range_rejected(self, capsys):
        assert main(["bounds", "sweep", "--k-range", "x", "--f-range", "1"]) == 1

    def test_nonpositive_value_rejected_before_any_row(self, capsys):
        assert main(["bounds", "sweep", "--k-range", "2", "--f-range", "2,0"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: need k >= 1 and f >= 1\n"

    def test_caps_bounded_by_default_limit(self, capsys):
        # a cap has about as many bits as all earlier ones together: stage 24
        # of 40 would pass the default limit of 10^7 bits
        start = time.perf_counter()
        assert main(["bounds", "sweep", "--k-range", "40", "--f-range", "1"]) == 3
        assert time.perf_counter() - start < 10
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "resource limit: the stage 24 cardinality cap needs more than the limit " \
                      "of 10000000 bits\n"

    def test_small_limit_stops_an_early_row(self, capsys):
        assert main(["bounds", "sweep", "--k-range", "1..10", "--f-range", "1",
                     "--limit", "20"]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "k=4 f=1: upper=23 ratio=5.750000"
        assert "stage 5 cardinality cap needs more than the limit of 20 bits" in err


class TestCacheDemo:
    def test_demo_n2k2m1f2(self, capsys):
        assert main(["cache", "demo", "--n", "2", "--k", "2", "--m", "1",
                     "--f", "2", "--demands", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "exact_zero=True" in out
        assert "(ok)" in out and "WRONG" not in out

    def test_full_caching(self, capsys):
        assert main(["cache", "demo", "--n", "2", "--k", "2", "--m", "2",
                     "--f", "2", "--demands", "1,2"]) == 0
        assert "blocks: (none)" in capsys.readouterr().out

    def test_non_integer_p(self, capsys):
        assert main(["cache", "demo", "--n", "3", "--k", "2", "--m", "1",
                     "--f", "2", "--demands", "1,2"]) == 1


class TestAudit:
    def test_clean_scheme(self, capsys):
        assert main(["audit", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "2,1"]) == 0
        assert "exact_zero=True" in capsys.readouterr().out

    def test_json_out(self, tmp_path):
        out = tmp_path / "audit.json"
        assert main(["audit", "--p", "1/4", "--n", "1", "--f", "1",
                     "--demands", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["leakage_exact_zero"] is True



class TestLimitBeforeAlphabetWork:
    # one positive cell over a declared X of 10^9 symbols: a pad book or a
    # list of the dropped x symbols would hold 10^9 entries
    HUGE_X = "var X 1000000000\nvar Y1 2\np 0 0 1\n"

    @pytest.mark.parametrize("argv", [
        ["pipeline", "run", "--demands", "1"],
        ["audit", "--demands", "1"],
        ["frl", "build"],
    ])
    def test_exits_with_the_limit_code(self, argv, spec_path, capsys):
        assert main(argv + ["--spec", spec_path(self.HUGE_X)]) == 3
        assert "resource limit: " in capsys.readouterr().err

class TestParserReuse:
    def test_transcript_out_not_carried_over(self, tmp_path):
        args = ["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1", "--demands", "1,2"]
        first = tmp_path / "first.bin"
        assert main(args + ["--transcript-out", str(first)]) == 0
        first.unlink()
        assert main(args + ["--out", str(tmp_path / "second.json")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["second.json"]

    def test_mode_returns_to_default(self, tmp_path):
        args = ["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1", "--demands", "1,2"]
        entropy, fixed = tmp_path / "entropy.json", tmp_path / "fixed.json"
        assert main(args + ["--mode", "entropy", "--out", str(entropy)]) == 0
        assert main(args + ["--out", str(fixed)]) == 0
        assert json.loads(entropy.read_text())["mode"] == "entropy"
        assert json.loads(fixed.read_text())["mode"] == "fixed"


FAMILY_COMMANDS = [
    ["pipeline", "run", "--n", "2", "--f", "1", "--demands", "1,2"],
    ["audit", "--n", "2", "--f", "1", "--demands", "1,2"],
    ["cache", "demo", "--n", "2", "--k", "2", "--m", "1", "--f", "2", "--demands", "1,2"],
    ["bounds", "sweep", "--k-range", "2", "--f-range", "1", "--measure"],
]


class TestBadNumbers:
    @pytest.mark.parametrize("command", FAMILY_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("prior", ["abc", "1/0"])
    def test_bad_prior(self, command, prior, capsys):
        assert main(command + ["--p", prior]) == 1
        assert f"bad prior --p {prior!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", FAMILY_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("limit", ["-5", "0"])
    def test_limit_below_one(self, command, limit, capsys):
        assert main(command + ["--limit", limit]) == 1
        assert f"--limit must be at least 1, got {limit}" in capsys.readouterr().err


class TestFileErrors:
    def test_spec_is_directory(self, tmp_path, capsys):
        assert main(["frl", "build", "--spec", str(tmp_path)]) == 1
        assert "Is a directory" in capsys.readouterr().err

    def test_spec_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.dist"
        path.write_bytes(b"var X 2\np 0 1/2\np 1 1/2 # \xff\n")
        assert main(["pipeline", "run", "--spec", str(path), "--demands", "1"]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_out_is_directory(self, tmp_path, capsys):
        assert main(["audit", "--p", "1/2", "--n", "2", "--f", "1", "--demands", "1,2",
                     "--out", str(tmp_path)]) == 1
        assert "Is a directory" in capsys.readouterr().err

    def test_transcript_out_is_directory(self, tmp_path, capsys):
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "1,2", "--transcript-out", str(tmp_path)]) == 1
        assert "Is a directory" in capsys.readouterr().err


class TestHugeCounts:
    """A count past Python's int-to-str digit limit is named, not printed."""

    def test_masked_family_cells(self, capsys):
        assert main(["pipeline", "run", "--n", "3", "--f", "5000", "--demands", "1"]) == 3
        assert "2^15000 + 1 cells exceed the limit 10000000" in capsys.readouterr().err

    def test_masked_family_cells_below_digit_limit(self, capsys):
        assert main(["pipeline", "run", "--n", "3", "--f", "4000", "--demands", "1"]) == 3
        err = capsys.readouterr().err
        assert "2^12000 + 1 cells" in err and len(err) < 100

    def test_cache_subfiles(self, capsys):
        assert main(["cache", "demo", "--n", "2", "--k", "20000", "--m", "1", "--f", "2",
                     "--demands", "1"]) == 1
        assert "not divisible by C(20000, 10000) subfiles" in capsys.readouterr().err

    def test_sweep_demand_vectors(self, spec_path, capsys):
        n = 2000
        text = "var X 2\n" + "".join(f"var Y{j} 1\n" for j in range(1, n + 1)) + \
            f"p 0{' 0' * n} 1/2\np 1{' 0' * n} 1/2\n"
        assert main(["pipeline", "run", "--spec", spec_path(text), "--demands", "sweep"]) == 3
        assert "perm(2000, 2000) demand vectors exceed" in capsys.readouterr().err
