"""Per-layer tracing of privseq from outside the library.

`Tracer.installed()` wraps the library's public functions while it is
active: class methods on their class, and module functions in every
`privseq` namespace that imports them by name. A timed wrapper records a
span (name, start, end, parent) and counts; a count-only wrapper is used on
hot, tiny functions whose timing would cost more than their work.

Self time is a span's duration minus the time its child spans cover. With
`memory=True`, `tracemalloc` also gives each layer (module) its peak of
allocated bytes above what was live when its span began.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _cells(d) -> int:
    return len(d.table)


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix, <module>.<function>
    module: str
    path: str  # attribute path inside the module, e.g. "JointDist.marginalize"
    timed: bool = True
    extra: tuple[str, ...] = ()  # further stats, summed over calls
    hook: Callable[..., tuple[int, ...]] | None = None  # (args, kwargs, result) -> extra


TARGETS = (
    Target("probability.JointDist", "probability", "JointDist.__init__",
           extra=("cells",), hook=lambda a, k, r: (_cells(a[0]),)),
    Target("probability.marginalize", "probability", "JointDist.marginalize",
           extra=("cells_in",), hook=lambda a, k, r: (_cells(a[0]),)),
    Target("probability.is_independent", "probability", "JointDist.is_independent"),
    Target("probability.condition", "probability", "JointDist.condition"),
    Target("probability.parse_dist", "probability", "parse_dist"),
    Target("frl.build_chain", "frl", "build_chain",
           extra=("cells_out",), hook=lambda a, k, r: (_cells(r.joint),)),
    Target("frl.frl_construct", "frl", "frl_construct"),
    Target("frl.FrlMechanism.conditional_u", "frl", "FrlMechanism.conditional_u"),
    Target("frl.ChainStage.decode", "frl", "ChainStage.decode", timed=False),
    Target("coding.entropy_codebook", "coding", "entropy_codebook"),
    Target("coding.Codebook.encode", "coding", "Codebook.encode", timed=False),
    Target("coding.Codebook.decode_one", "coding", "Codebook.decode_one"),
    Target("coding.pack_slots", "coding", "pack_slots",
           extra=("bytes",), hook=lambda a, k, r: (len(r),)),
    Target("coding.unpack_slots", "coding", "unpack_slots"),
    Target("pipeline.session_chain", "pipeline", "session_chain"),
    Target("pipeline.transcript_distribution", "pipeline", "transcript_distribution",
           extra=("cells_out", "support"), hook=lambda a, k, r: (_cells(r.joint), len(r.transcripts))),
    Target("pipeline.leakage_audit", "pipeline", "leakage_audit"),
    Target("pipeline.expected_length", "pipeline", "expected_length"),
    Target("pipeline.worst_case_sweep", "pipeline", "worst_case_sweep"),
    Target("pipeline.encode_session", "pipeline", "encode_session"),
    Target("pipeline.decode_session", "pipeline", "decode_session"),
    Target("pipeline.RandomDraws.pick", "pipeline", "RandomDraws.pick"),
    Target("bounds.lower_bound", "bounds", "lower_bound"),
    Target("bounds.example1_build", "bounds", "example1_build",
           extra=("cells",), hook=lambda a, k, r: (_cells(r),)),
    Target("caching.block_joint", "caching", "block_joint",
           extra=("cells_in", "cells_out"),
           hook=lambda a, k, r: (_cells(k.get("database_dist") or a[1]), _cells(r))),
    Target("caching.make_cache_session", "caching", "make_cache_session"),
    Target("caching.placement", "caching", "placement"),
    Target("caching.delivery_blocks", "caching", "delivery_blocks"),
    Target("caching.private_wrap", "caching", "private_wrap"),
    Target("caching.decode_blocks", "caching", "decode_blocks"),
    Target("caching.user_decode", "caching", "user_decode"),
    Target("cli.main", "cli", "main"),
)

LAYERS = ("probability", "frl", "coding", "pipeline", "bounds", "caching", "cli")

# a marginalization or independence test run directly by build_chain, not by
# one of the traced functions it calls, is a check of the chain just built
VERIFY_CHILDREN = ("probability.marginalize", "probability.is_independent")


class _Frame:
    __slots__ = ("name", "start", "child", "mem_start", "mem_peak")

    def __init__(self, name: str, mem_start: int):
        self.name = name
        self.start = time.perf_counter()
        self.child = 0.0
        self.mem_start = mem_start
        self.mem_peak = mem_start


class Tracer:
    """Collects spans and counts while `installed()` is active."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.edges: dict[tuple[str, str], float] = defaultdict(float)  # (parent, child) -> s
        self.peaks: dict[str, int] = defaultdict(int)  # layer -> bytes
        self.supports: list[int] = []  # transcript support of each enumeration, in order
        self._stack: list[_Frame] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        mem = 0
        if self.memory:
            mem, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.mem_peak = max(parent.mem_peak, peak)
            tracemalloc.reset_peak()
        frame = _Frame(name, mem)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        stats = self.stats[frame.name]
        stats["s"] += duration
        stats["self_s"] += duration - frame.child
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            self.edges[(parent.name, frame.name)] += duration
        if self.memory:
            peak = max(frame.mem_peak, tracemalloc.get_traced_memory()[1])
            layer = frame.name.split(".", 1)[0]
            self.peaks[layer] = max(self.peaks[layer], peak - frame.mem_start)
            if self._stack:
                self._stack[-1].mem_peak = max(self._stack[-1].mem_peak, peak)
            tracemalloc.reset_peak()

    def _wrap(self, target: Target, fn):
        name = target.name
        stats = self.stats[name]
        if not target.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats["calls"] += 1
                return fn(*args, **kwargs)
            return counted

        extra, hook = target.extra, target.hook

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stats["calls"] += 1
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if hook is not None:
                values = hook(args, kwargs, result)
                for key, value in zip(extra, values):
                    stats[key] += value
                if name == "pipeline.transcript_distribution":
                    self.supports.append(values[1])
            return result
        return timed

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit.

        A target missing from the library (renamed or merged away) is skipped
        and its metrics read 0.
        """
        namespaces = [m for n, m in sys.modules.items() if n == "privseq" or n.startswith("privseq.")]
        undo: list[tuple[object, str, object]] = []
        try:
            for target in TARGETS:
                owner = importlib.import_module(f"privseq.{target.module}")
                *owner_path, attr = target.path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(target, original)
                if owner_path:  # a method: patch it on its class
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            undo.append((ns, key, original))
                            setattr(ns, key, wrapper)
            if self.memory:
                tracemalloc.start()
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def take_supports(self) -> list[int]:
        out, self.supports = self.supports, []
        return out

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat `<name>.<stat>` values; every known name is present."""
        out: dict[str, float] = {}
        for target in TARGETS:
            stats = self.stats[target.name]
            keys = ("calls", "s", "self_s") if target.timed else ("calls",)
            for key in keys + target.extra:
                out[f"{target.name}.{key}"] = stats.get(key, 0.0)
        out["frl.build_chain.verify_s"] = sum(
            self.edges.get(("frl.build_chain", child), 0.0) for child in VERIFY_CHILDREN)
        wraps = self.stats["caching.private_wrap"].get("calls", 0.0)
        out["caching.decode_blocks.per_delivery"] = (
            self.stats["caching.decode_blocks"].get("calls", 0.0) / wraps if wraps else 0.0)
        for layer in LAYERS:
            out[f"{layer}.peak_kib"] = self.peaks.get(layer, 0) / 1024
        return out
