"""Byte-for-byte CLI reports.

`golden/dense.dist` is `random_database(Random(1), 2, 3, 1)` from conftest;
every stage of its chain has more than one atom, so no stage entropy sits at
zero. The `--out` files and `--transcript-out` files next to it were written
by the commands in CASES: four on the dense spec, a coded-caching demo in
entropy mode, a measured bound sweep, and the interval mechanism of
`golden/pair.dist` (whose x = 2 has zero mass), canonical and
ordering-searched. A change that moves any of their bytes changes an answer,
not only a speed; if that is intended, rewrite the goldens with the same
commands and say so.
"""

import json
from pathlib import Path

import pytest

from privseq.cli import main

GOLDEN = Path(__file__).parent / "golden"
SPEC = str(GOLDEN / "dense.dist")
PAIR = str(GOLDEN / "pair.dist")

# name -> (argv, golden --out file, whether a packed transcript <name>.bin is written)
CASES = {
    "run-fixed": (["pipeline", "run", "--spec", SPEC, "--demands", "1,2,3", "--mode", "fixed",
                   "--seed", "0"], "run-fixed.json", True),
    "run-entropy": (["pipeline", "run", "--spec", SPEC, "--demands", "1,2,3", "--mode", "entropy",
                     "--seed", "3"], "run-entropy.json", True),
    "sweep-k2": (["pipeline", "run", "--spec", SPEC, "--demands", "sweep", "--k", "2",
                  "--mode", "entropy"], "sweep-k2.json", False),
    "audit": (["audit", "--spec", SPEC, "--demands", "3,1", "--mode", "entropy"],
              "audit.json", False),
    "cache-demo": (["cache", "demo", "--n", "4", "--k", "4", "--m", "1", "--f", "4",
                    "--demands", "2,4,1,3", "--mode", "entropy"], "cache-demo.json", False),
    "bounds-sweep": (["bounds", "sweep", "--k-range", "2", "--f-range", "1..3", "--measure"],
                     "bounds-sweep.csv", False),
    "frl-build": (["frl", "build", "--spec", PAIR], "frl-build.json", False),
    "frl-build-opt": (["frl", "build", "--spec", PAIR, "--optimize", "720"],
                      "frl-build-opt.json", False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, tmp_path, capsys):
    argv, golden, with_transcript = CASES[name]
    out = tmp_path / golden
    extra = ["--out", str(out)]
    if with_transcript:
        extra += ["--transcript-out", str(tmp_path / f"{name}.bin")]
    assert main(argv + extra) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    if with_transcript:
        assert (tmp_path / f"{name}.bin").read_bytes() == (GOLDEN / f"{name}.bin").read_bytes()


def test_no_one_atom_stage():
    report = json.loads((GOLDEN / "run-fixed.json").read_text(encoding="utf-8"))
    assert min(report["u_sizes"]) > 1


@pytest.mark.parametrize("golden", ["audit.json", "run-fixed.json", "run-entropy.json",
                                    "cache-demo.json"])
def test_a_proved_zero_leakage_reads_zero_bits(golden):
    report = json.loads((GOLDEN / golden).read_text(encoding="utf-8"))
    if report["leakage_exact_zero"]:
        assert report["leakage_bits"] == 0.0
