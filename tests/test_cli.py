import json
import time
import tracemalloc
from pathlib import Path

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

    def test_golden_pair_stdout(self, capsys):
        # interval ends print as reduced fractions, whole numbers without a denominator
        pair = str(Path(__file__).parent / "golden" / "pair.dist")
        assert main(["frl", "build", "--spec", pair]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:8] == [
            "atoms: 5 (cap 7)",
            "  u0: [0, 1/6)  p=1/6",
            "  u1: [1/6, 1/2)  p=1/3",
            "  u2: [1/2, 2/3)  p=1/6",
            "  u3: [2/3, 5/6)  p=1/6",
            "  u4: [5/6, 1)  p=1/6",
        ]

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

    @pytest.mark.parametrize("x_size, more", [(10, ""), (11, " and 1 more"),
                                              (200_000, " and 199990 more")])
    def test_dropped_warning_is_bounded(self, spec_path, tmp_path, capsys, x_size, more):
        # stdout names the first 8 dropped symbols and counts the rest; --out lists them all
        out = tmp_path / "mech.json"
        spec = spec_path(f"var X {x_size}\nvar Y 2\np 0 0 1/2\np 1 1 1/2\n")
        assert main(["frl", "build", "--spec", spec, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert len(stdout.encode()) < 4096
        assert f"warning: dropped zero-mass private symbols [2, 3, 4, 5, 6, 7, 8, 9]{more}\n" in stdout
        assert json.loads(out.read_text())["dropped_x"] == list(range(2, x_size))

    def test_optimize_below_one_is_validation_error(self, spec_path, capsys):
        assert main(["frl", "build", "--spec", spec_path(DESIGNED), "--optimize", "-1"]) == 1
        assert "ordering-search budget must be at least 1, got -1" in capsys.readouterr().err

    def test_optimize_past_the_state_limit_exits_3_at_once(self, spec_path, capsys):
        # a 2x8 uniform pair has 8!^2 orderings, within the budget but past the state limit
        cells = "".join(f"p {x} {y} 1/16\n" for x in range(2) for y in range(8))
        spec = spec_path("var X 2\nvar Y 8\n" + cells)
        start = time.perf_counter()
        assert main(["frl", "build", "--spec", spec, "--optimize", "2000000000"]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", "resource limit: 29030400+ orderings exceed the limit "
                                           "10000000; use the canonical ordering surrogate\n")


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
        # unpacking checked the labels "pad", "u1", "u2" against the slots' positions
        assert len(t.bitstrings) == 3

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

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_sweep_k_outside_range_rejected(self, k, capsys):
        # an explicit 0 is not the unset default: it must not sweep all N files
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "sweep", "--k", k]) == 1
        captured = capsys.readouterr()
        assert f"k {k} outside the integers 1..2" in captured.err
        assert "worst case" not in captured.out

    def test_k_with_demand_vector_rejected(self, monkeypatch, capsys):
        from privseq import pipeline

        def no_audit(*args):
            raise AssertionError("the audit ran")

        monkeypatch.setattr(pipeline, "audit_demands", no_audit)
        assert main(["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1",
                     "--demands", "1,2", "--k", "2"]) == 1
        assert "--k needs --demands sweep" in capsys.readouterr().err

    def test_seed_with_sweep_rejected(self, monkeypatch, capsys):
        # a sweep draws no sample session, so a seed would change nothing
        from privseq import pipeline

        def no_sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(pipeline, "worst_case_sweep", no_sweep)
        assert main(["pipeline", "run", "--p", "1/2", "--n", "3", "--f", "1",
                     "--demands", "sweep", "--k", "2", "--seed", "5"]) == 1
        assert "--seed needs an explicit demand vector" in capsys.readouterr().err

    def test_seed_defaults_to_zero(self, tmp_path):
        args = ["pipeline", "run", "--p", "1/2", "--n", "2", "--f", "1", "--demands", "1,2"]
        unset, zero = tmp_path / "unset.json", tmp_path / "zero.json"
        assert main(args + ["--out", str(unset)]) == 0
        assert main(args + ["--seed", "0", "--out", str(zero)]) == 0
        assert unset.read_text() == zero.read_text()
        assert json.loads(unset.read_text())["seed"] == 0


class TestBoundsSweep:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["bounds", "sweep", "--k-range", "2", "--f-range", "1..32",
                     "--out", str(out)]) == 0
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
                     "--out", str(out)]) == 0
        assert out.read_text().strip() == \
            "n,k,f,demands,lower,upper_cardinality,upper_entropy_estimate,measured,ratio"

    def test_csv_whatever_the_suffix(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["bounds", "sweep", "--k-range", "2", "--f-range", "1",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == \
            "n,k,f,demands,lower,upper_cardinality,upper_entropy_estimate,measured,ratio"

    def test_bad_range_rejected(self, capsys):
        assert main(["bounds", "sweep", "--k-range", "x", "--f-range", "1"]) == 1

    def test_nonpositive_value_rejected_before_any_row(self, capsys):
        assert main(["bounds", "sweep", "--k-range", "2", "--f-range", "2,0"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: need k >= 1 and f >= 1\n"

    @pytest.mark.parametrize("extra, err", [
        ([], "error: bad prior --p 'abc'; expected a rational such as 1/2\n"),
        ([], "error: p must lie strictly in (0,1), got 7\n"),
        # every row's audit is over the limit, so no row would build the family
        (["--measure", "--limit", "4"], "error: p must lie strictly in (0,1), got 7\n"),
    ], ids=["unparsed", "out of range", "measured rows over the limit"])
    def test_bad_prior_rejected_before_any_row(self, capsys, extra, err):
        p = "abc" if "abc" in err else "7"
        assert main(["bounds", "sweep", "--k-range", "2", "--f-range", "1", "--p", p, *extra]) == 1
        assert capsys.readouterr() == ("", err)

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

    def test_k_range_read_one_value_at_a_time(self, capsys):
        # 10^9 k values: the table stops at the first row past the limit, before
        # any list of the values or of a row's file sizes could be formed; a row
        # with k = 10^9 stops at its first cap past the limit
        for k_range, rows, err_end in [
            ("1..1000000000", 2, "the table's cardinality bounds need more than the limit "
                                 "of 20 bits together\n"),
            ("1000000000", 0, "the stage 5 cardinality cap needs more than the limit of 20 bits\n"),
        ]:
            assert main(["bounds", "sweep", "--k-range", k_range, "--f-range", "1",
                         "--limit", "20"]) == 3
            out, err = capsys.readouterr()
            assert len(out.splitlines()) == rows
            assert err == "resource limit: " + err_end

    def test_f_refused_before_its_alphabet_is_formed(self, capsys):
        # the stage-1 cap of f = 10^9 has 10^9 + 1 bits; 2^f alone would take 119 MiB
        tracemalloc.start()
        try:
            assert main(["bounds", "sweep", "--k-range", "1", "--f-range", "1000000000"]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert capsys.readouterr() == ("", "resource limit: the stage 1 cardinality cap needs more "
                                           "than the limit of 10000000 bits\n")

    def test_rows_bounded_before_the_first(self, capsys):
        # each row's caps fit the limit, but their bounds (f + 2 bits each) pass
        # it together at f = 4,470: the 4,469 rows before it are printed
        start = time.perf_counter()
        assert main(["bounds", "sweep", "--k-range", "1", "--f-range", "1..9999999"]) == 3
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 4469
        assert out.splitlines()[-1] == "k=1 f=4469: upper=4471 ratio=1.000448"
        assert err == "resource limit: the table's cardinality bounds need more than the limit " \
                      "of 10000000 bits together\n"
        assert main(["bounds", "sweep", "--k-range", "1", "--f-range", "1..4000"]) == 0

    def test_small_limit_stops_an_early_row(self, capsys):
        # the bounds of k = 1, 2, 3 need 3 + 6 + 12 = 21 bits together
        assert main(["bounds", "sweep", "--k-range", "1..10", "--f-range", "1",
                     "--limit", "20"]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "k=2 f=1: upper=6 ratio=3.000000"
        assert "the table's cardinality bounds need more than the limit of 20 bits together" in err

    def test_every_cap_counted_against_one_limit(self, capsys):
        # each row's caps fit the limit alone; the first five rows' bounds need
        # 4,817 bits together and the sixth passes 5,000
        assert main(["bounds", "sweep", "--k-range", "8", "--f-range", "1..50",
                     "--limit", "5000"]) == 3
        out, err = capsys.readouterr()
        uppers = [int(line.split("upper=")[1].split()[0]) for line in out.splitlines()]
        assert uppers == [350, 695, 987, 1261, 1524] and sum(uppers) == 4817
        assert err == "resource limit: the table's cardinality bounds need more than the limit " \
                      "of 5000 bits together\n"


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

    def test_length_bound_met_exactly_passes(self, monkeypatch, tmp_path, capsys):
        # fixed mode and one block, so E[len] is an integer; the check compares it exactly
        from privseq import caching

        argv = ["cache", "demo", "--n", "3", "--k", "3", "--m", "2", "--f", "3",
                "--demands", "1,2,3", "--out", str(tmp_path / "demo.json")]
        assert main(argv) == 0
        assert "blocks=1 " in capsys.readouterr().out
        measured = json.loads((tmp_path / "demo.json").read_text())["measured"]
        assert measured == int(measured) > 0
        for bound, code in [(int(measured), 0), (int(measured) - 1, 2)]:
            monkeypatch.setattr(caching, "delivery_bound", lambda cfg, x_size, bound=bound: bound)
            assert main(argv) == code


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

    def test_seed_is_unknown(self, capsys):
        # an audit draws nothing, so it takes no seed: argparse rejects it, a
        # usage error, which exits as a validation error and not as a leak
        assert main(["audit", "--p", "1/2", "--n", "2", "--f", "1", "--demands", "2,1",
                     "--seed", "5"]) == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--help"])
        assert exc.value.code == 0
        assert "--demands" in capsys.readouterr().out


class TestArgumentsBeforeTheDatabase:
    # a masked family of 2^30 + 1 or 2^32 + 1 cells is over the default
    # limit: a fault in the arguments alone is reported before it is built
    @pytest.mark.parametrize("argv, message", [
        (["pipeline", "run", "--n", "30", "--f", "1", "--demands", "1", "--k", "2"],
         "--k needs --demands sweep"),
        (["pipeline", "run", "--n", "30", "--f", "1", "--demands", "sweep", "--seed", "1"],
         "--seed needs an explicit demand vector"),
        (["audit", "--n", "30", "--f", "1", "--demands", "sweep"],
         "audit needs an explicit demand vector"),
        (["cache", "demo", "--n", "4", "--k", "4", "--m", "1", "--f", "8", "--demands", "sweep"],
         "cache demo needs an explicit demand vector"),
        (["cache", "demo", "--n", "4", "--k", "4", "--m", "1", "--f", "8", "--demands", "1,2"],
         "need one demand per user (4), got 2"),
        (["cache", "demo", "--n", "4", "--k", "4", "--m", "1", "--f", "8", "--demands", "1,2,3,5"],
         "demand 5 outside the integers 1..4"),
        (["audit", "--n", "30", "--f", "1", "--demands", "31"],
         "demand 31 outside the integers 1..30"),
        (["audit", "--n", "30", "--f", "1", "--demands", "1,1"],
         "demands must be pairwise distinct: (1, 1)"),
        (["audit", "--n", "30", "--f", "1", "--demands", ","], "empty demand vector"),
        (["pipeline", "run", "--n", "30", "--f", "1", "--demands", "31"],
         "demand 31 outside the integers 1..30"),
        (["pipeline", "run", "--n", "30", "--f", "1", "--demands", "sweep", "--k", "0"],
         "k 0 outside the integers 1..30"),
        (["pipeline", "run", "--n", "30", "--f", "1", "--demands", "sweep", "--k", "31"],
         "k 31 outside the integers 1..30"),
        # the family's own parameters are checked before the demands that read them
        (["audit", "--n", "0", "--demands", "1"], "file count 0 outside the integers >= 1"),
        (["pipeline", "run", "--n", "0", "--demands", "sweep"],
         "file count 0 outside the integers >= 1"),
        (["pipeline", "run", "--n", "-3", "--demands", "1"],
         "file count -3 outside the integers >= 1"),
    ], ids=["run-k", "run-seed", "audit-sweep", "cache-sweep", "cache-count", "cache-range",
            "audit-range", "audit-repeated", "audit-empty", "run-range", "run-k-low", "run-k-high",
            "audit-n-zero", "run-sweep-n-zero", "run-n-negative"])
    def test_usage_fault_exits_1(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_sweep_count_exits_3_with_its_own_message(self, capsys):
        argv = ["pipeline", "run", "--n", "30", "--f", "1", "--demands", "sweep", "--k", "15"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ")
        assert "perm(30, 15) demand vectors exceed the limit" in err and "cells" not in err

    def test_sweep_count_over_huge_file_count_is_bounded(self, capsys):
        # k defaults to n: (10^9)! is never formed, the count stops at the limit
        argv = ["pipeline", "run", "--n", "1000000000", "--f", "1", "--demands", "sweep"]
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1
        assert "perm(1000000000, 1000000000) demand vectors exceed the limit" in capsys.readouterr().err


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


class TestNoCopiedTable:
    """The CLI's audits read the factored law; no command writes the (C, X) cells."""

    @pytest.mark.parametrize("command", FAMILY_COMMANDS + [
        ["pipeline", "run", "--n", "3", "--f", "1", "--demands", "sweep", "--k", "2"],
    ], ids=lambda c: "-".join(c[:2]))
    def test_no_cx_table_written(self, command, monkeypatch, capsys):
        from privseq.probability import JointDist

        exact = JointDist._exact.__func__

        def no_transcript_table(cls, variables, *args, **kwargs):
            if any(v.name == "C" for v in variables):
                raise AssertionError("a table over the transcripts was written")
            return exact(cls, variables, *args, **kwargs)

        monkeypatch.setattr(JointDist, "_exact", classmethod(no_transcript_table))
        assert main(command + ["--p", "1/3"]) == 0


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


class TestFamilyOptionsWithSpec:
    """--p, --n and --f set the built-in family, which --spec replaces, so
    each is a validation error with --spec, named before the spec is read."""

    SPEC = str(Path(__file__).parent / "golden" / "dense.dist")
    SPEC_COMMANDS = [["pipeline", "run", "--demands", "1"], ["audit", "--demands", "1"]]
    OPTIONS = [["--p", "abc"], ["--p", "1/2"], ["--n", "3"], ["--f", "2"]]

    @pytest.mark.parametrize("command", SPEC_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("option", OPTIONS, ids=" ".join)
    def test_rejected_with_spec(self, command, option, capsys):
        assert main(command + ["--spec", self.SPEC] + option) == 1
        captured = capsys.readouterr()
        assert f"error: {option[0]} sets the built-in family; it cannot be given with --spec" \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", SPEC_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("option", OPTIONS, ids=" ".join)
    def test_rejected_before_the_spec_is_read(self, command, option, tmp_path, capsys):
        assert main(command + ["--spec", str(tmp_path / "missing.dist")] + option) == 1
        err = capsys.readouterr().err
        assert f"{option[0]} sets the built-in family" in err and "missing.dist" not in err

    @pytest.mark.parametrize("command", SPEC_COMMANDS, ids=lambda c: c[0])
    def test_spec_alone_is_read(self, command, capsys):
        assert main(command + ["--spec", self.SPEC]) == 0

    @pytest.mark.parametrize("command", [["pipeline", "run", "--demands", "1,2", "--seed", "3"],
                                         ["audit", "--demands", "2,1"]], ids=lambda c: c[0])
    def test_family_defaults_without_spec(self, command, tmp_path, capsys):
        # 1/2, 2 and 1 apply when the options are left out
        unset, explicit = tmp_path / "unset.json", tmp_path / "explicit.json"
        assert main(command + ["--out", str(unset)]) == 0
        assert main(command + ["--p", "1/2", "--n", "2", "--f", "1", "--out", str(explicit)]) == 0
        assert unset.read_text() == explicit.read_text()


class TestOutFormat:
    """`--out` writes each report in its one format, so `--format` is an unknown option."""

    @pytest.mark.parametrize("command", FAMILY_COMMANDS + [
        ["frl", "build", "--spec", str(Path(__file__).parent / "golden" / "pair.dist")],
    ], ids=lambda c: c[0])
    def test_format_is_a_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(command + ["--format", "json", "--out", str(out)]) == 1
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not out.exists()


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
