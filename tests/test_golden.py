"""Byte-for-byte CLI reports on a checked-in dense spec.

`golden/dense.dist` is `random_database(Random(1), 2, 3, 1)` from conftest;
every stage of its chain has more than one atom, so no stage entropy sits at
zero. The `--out` JSON and `--transcript-out` files next to it were written
by the commands in CASES. A change that moves any of their bytes changes an
answer, not only a speed; if that is intended, rewrite the goldens with the
same commands and say so.
"""

import json
from pathlib import Path

import pytest

from privseq.cli import main

GOLDEN = Path(__file__).parent / "golden"
SPEC = str(GOLDEN / "dense.dist")

# name -> (argv after --spec, whether a packed transcript is written)
CASES = {
    "run-fixed": (["pipeline", "run", "--demands", "1,2,3", "--mode", "fixed", "--seed", "0"], True),
    "run-entropy": (["pipeline", "run", "--demands", "1,2,3", "--mode", "entropy", "--seed", "3"], True),
    "sweep-k2": (["pipeline", "run", "--demands", "sweep", "--k", "2", "--mode", "entropy"], False),
    "audit": (["audit", "--demands", "3,1", "--mode", "entropy"], False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, tmp_path, capsys):
    argv, with_transcript = CASES[name]
    out = tmp_path / f"{name}.json"
    extra = ["--out", str(out)]
    if with_transcript:
        extra += ["--transcript-out", str(tmp_path / f"{name}.bin")]
    command = argv[:2] if argv[0] == "pipeline" else argv[:1]
    assert main(command + ["--spec", SPEC] + argv[len(command):] + extra) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    if with_transcript:
        assert (tmp_path / f"{name}.bin").read_bytes() == (GOLDEN / f"{name}.bin").read_bytes()


def test_no_one_atom_stage():
    report = json.loads((GOLDEN / "run-fixed.json").read_text(encoding="utf-8"))
    assert min(report["u_sizes"]) > 1
