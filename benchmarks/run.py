"""privseq benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the library is imported from its `src` directory, and
scratch files go to `.bench_work/` and are removed on exit. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the run sets its workload up several times (the fastest
is `setup_s`) and goes through the workload's pool of ops again and again in a
closed loop, one caller, for `--seconds` in all. Each op keeps its fastest
latency, and `pass_ms` is their sum (see `measure` for why). With
`--trace 1` it runs set-up plus a fixed number of ops three times:
untraced, with spans, and with spans plus tracemalloc. It reports the
per-layer metrics, and the traced minus untraced wall time as
`trace.overhead_s`.

Every answer passes a fingerprint gate (see `Gate`). A mismatch or a failed
op makes the result `"correct": false` and the exit code 1; a checkout the
benchmark cannot run in gives exit code 2 and no result.
`--record` rewrites the workload's entry in fingerprints.json from the
default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINTS = HERE / "fingerprints.json"
WORK = ROOT / ".bench_work"

ROUNDS = 3
CHEAP_SETUP_S = 0.1  # a set-up quicker than this also repeats after every pass
TRACE_ONLY = ("support",)  # fingerprint fields only a traced pass can see
TRACE_OPS = {"exact-audit": 18, "deliver": 400}  # 18: one pass over the pool


class Gate:
    """Fingerprint gate.

    Each answer must equal the first answer this run gave for the same input
    (a traced answer, stripped of trace-only fields, must equal the untraced
    one). Under the default seed it must also equal the recorded fingerprint.
    """

    def __init__(self, recorded: dict | None):
        self.recorded = recorded
        self.seen: dict[str, dict] = {}
        self.mismatches: list[str] = []

    def check(self, key: str, fp: dict) -> None:
        plain = {k: v for k, v in fp.items() if k not in TRACE_ONLY}
        if self.seen.setdefault(key, plain) != plain:
            self.mismatches.append(f"{key}: answer differs from this run's first answer")
        if "support" in fp and self.seen.setdefault(f"{key}/support", fp["support"]) != fp["support"]:
            self.mismatches.append(f"{key}: traced transcript support differs between passes")
        if self.recorded is None:
            return
        want = self.recorded.get(key)
        if want is not None and "support" not in fp:
            want = {k: v for k, v in want.items() if k not in TRACE_ONLY}
        if want != fp:
            self.mismatches.append(f"{key}: fingerprint {fp} != recorded {want}")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def _with_support(fp: dict, tracer) -> dict:
    if tracer is not None:
        supports = tracer.take_supports()
        if supports:
            return dict(fp, support=supports)
    return fp


def _setup(wl, gate: Gate, tracer) -> float:
    start = time.perf_counter()
    fp = wl.setup()
    elapsed = time.perf_counter() - start
    fp = _with_support(fp, tracer)
    if fp:
        gate.check("setup", fp)
    return elapsed


def _run_op(op, gate: Gate, tally: Tally, tracer) -> float:
    """Run one op; return its latency in seconds. Failures are tallied."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = op.run()
        latency = time.perf_counter() - start
        fp = _with_support(op.check(result), tracer)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        tally.failed += 1
        tally.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start
    if fp:
        gate.check(op.key, fp)
    return latency


def measure(cls, seed: int, seconds: float, workdir: Path, gate: Gate, tally: Tally) -> dict:
    """Untraced run: end-to-end metrics.

    The run is ROUNDS rounds of a set-up followed by whole passes over the
    pool for a share of `seconds`. A cheap set-up also repeats after every
    pass, so that the set-ups, like the ops, sample the host over the whole
    run.

    On a shared host, work of neighbours on the same core can slow the same
    code by half or more, in spells from milliseconds to a minute, so a
    figure taken over the whole run says more about the spells than about
    the code. Each op of the pool is therefore timed on every pass and keeps
    its fastest latency, the time it takes when nothing holds the core
    back, and `pass_ms` is the sum of these over the pool. Ops are short and
    the pool is small, so every op runs dozens of times or more in a run and
    some of those runs are undisturbed. `setup_s` is the fastest set-up, for
    the same reason.
    """
    setups: list[float] = []
    best: list[float] = []
    latencies: list[float] = []
    wall = 0.0
    for _ in range(ROUNDS):
        wl = cls(seed, workdir)
        setups.append(_setup(wl, gate, None))
        gc.collect()
        pool = wl.pool()
        best = best or [math.inf] * len(pool)
        start = time.perf_counter()
        while True:
            for i, op in enumerate(pool):
                latency = _run_op(op, gate, tally, None)
                latencies.append(latency)
                best[i] = min(best[i], latency)
            if time.perf_counter() - start >= seconds / ROUNDS:
                break
            if setups[-1] < CHEAP_SETUP_S:  # the same inputs again, as the pool has them
                setups.append(_setup(cls(seed, workdir), gate, None))
        wall += time.perf_counter() - start

    ms = sorted(x * 1000 for x in latencies)
    n = len(ms)
    rank = math.ceil(0.99 * n)  # nearest-rank p99; valid with 10 samples beyond it
    p99 = f"{ms[rank - 1]:.4f}" if n - rank >= 10 else f"n/a, {n} ops"
    print(f"{cls.name}: {n // len(best)} passes over {len(best)} ops; over all {n} ops "
          f"{n / wall:.4f} ops/s, op_p50_ms {statistics.median(ms):.4f}, op_p99_ms {p99}; "
          f"fastest op_p50_ms {statistics.median(best) * 1000:.4f}; {len(setups)} set-ups, "
          f"median {statistics.median(setups):.6f} s")
    return {
        "setup_s": min(setups),
        "pass_ms": sum(best) * 1000,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _pass(cls, seed: int, n_ops: int | None, workdir: Path, gate: Gate, tally: Tally, tracer):
    """Set-up plus the first `n_ops` ops of the repeated pool (None: one pass).

    Returns (wall seconds, distinct demand prefixes asked for).
    """
    start = time.perf_counter()
    wl = cls(seed, workdir)
    _setup(wl, gate, tracer)
    prefixes = wl.setup_prefixes()
    pool = wl.pool()
    for op in itertools.islice(itertools.cycle(pool), n_ops or len(pool)):
        _run_op(op, gate, tally, tracer)
        prefixes += op.prefixes
    return time.perf_counter() - start, prefixes


def trace(cls, seed: int, workdir: Path, gate: Gate, tally: Tally) -> dict:
    """Traced run: per-layer metrics."""
    from tracer import Tracer

    n_ops = TRACE_OPS[cls.name]
    untraced_s, _ = _pass(cls, seed, n_ops, workdir, gate, tally, None)
    spans = Tracer()
    with spans.installed():
        traced_s, prefixes = _pass(cls, seed, n_ops, workdir, gate, tally, spans)
    memory = Tracer(memory=True)
    with memory.installed():
        _pass(cls, seed, n_ops, workdir, gate, tally, memory)

    metrics = spans.metrics()
    for name, value in memory.metrics().items():
        if name.endswith(".peak_kib"):
            metrics[name] = value
    built = metrics["frl.frl_construct.calls"]
    metrics["frl.stage_reuse_ratio"] = prefixes / built if built else 0.0
    metrics["trace.overhead_s"] = traced_s - untraced_s
    print(f"{cls.name}: set-up and {n_ops} ops: traced {traced_s:.3f} s, "
          f"untraced {untraced_s:.3f} s")
    return metrics


def _load_privseq() -> str | None:
    """Import the library from this checkout; return an error, or None."""
    if not (SRC / "privseq" / "__init__.py").is_file():
        return f"no privseq sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import privseq

    if Path(privseq.__file__).resolve().parent != SRC / "privseq":
        return f"privseq imported from {privseq.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite this workload's recorded fingerprints (default seed only)")
    args = ap.parse_args(argv)

    error = _load_privseq()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.record and args.seed != workloads.DEFAULT_SEED:
        print(f"error: fingerprints are recorded at seed {workloads.DEFAULT_SEED}", file=sys.stderr)
        return 2
    recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    gate = Gate(recorded.get(cls.name, {})
                if args.seed == workloads.DEFAULT_SEED and not args.record else None)
    tally = Tally()

    workdir = WORK / f"{cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            return _record(cls, workdir, recorded, tally)
        if args.trace:
            values = trace(cls, args.seed, workdir, gate, tally)
            wanted = spec["per_layer"]
        else:
            values = measure(cls, args.seed, args.seconds, workdir, gate, tally)
            wanted = spec["end_to_end"]
    except workloads.CheckFailed as exc:
        print(f"error: set-up check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()

    for line in tally.errors[:20] + gate.mismatches[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    correct = tally.failed == 0 and not gate.mismatches
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _record(cls, workdir: Path, recorded: dict, tally: Tally) -> int:
    from tracer import Tracer

    import workloads

    collect: dict[str, dict] = {}

    class Recorder(Gate):
        def check(self, key, fp):
            collect.setdefault(key, fp)

    spans = Tracer()
    with spans.installed():
        _pass(cls, workloads.DEFAULT_SEED, None, workdir, Recorder(None), tally, spans)
    if tally.failed:
        print("\n".join(tally.errors), file=sys.stderr)
        return 1
    recorded[cls.name] = collect
    blocks = []
    for name in sorted(recorded):
        entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                             for k, v in sorted(recorded[name].items()))
        blocks.append(f" {json.dumps(name)}: {{\n{entries}\n }}")
    FINGERPRINTS.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(collect)} fingerprint(s) for {cls.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
