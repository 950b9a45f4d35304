"""Span recorder for the traced benchmark mode.

Tracing is done from outside the program: :func:`install` replaces the
public entry point of each layer with a wrapper that records one span per
call — name, start, end, parent span, pid and a few counts — and then calls
the original.  Nothing under ``src/`` changes.

Install before the sweep pool forks so its workers inherit the wrappers.
Spans stay in memory in the benchmark process.  A forked worker appends each
finished span to its own ``spans-<pid>.jsonl`` file as it goes, because the
pool is terminated without running exit hooks; :func:`load_spans` merges
those files when the run ends.

:func:`layer_metrics` reduces the spans of the traced passes to the
per-layer metrics that ``BENCHMARK.json`` lists.  A span's self time is its
duration minus the time its child spans cover.  In the benchmark process
the layers' self times plus the self time of the pass spans that enclose
them add up to the traced wall; that remainder is ``trace.unattributed_frac``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

Span = Dict[str, Any]
#: ``counts(span, args, kwargs, result, error, before)`` adds counts to a span.
CountFn = Callable[..., None]

#: Spans the benchmark itself opens around each timed pass.
PASS_SPANS = ("pass.first", "pass.second")

class Recorder:
    """Records spans for this process and, after a fork, for the child."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count()
        self._file: Optional[Any] = None

    def _adopt_fork(self) -> None:
        """First span in a forked child: drop the parent's state, open a file."""
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        # Line-buffered: every finished span reaches the file before the
        # next call, so a terminated worker loses nothing it finished.
        self._file = open(path, "a", encoding="utf-8", buffering=1)

    def open(self, name: str) -> Span:
        if os.getpid() != self.pid:
            self._adopt_fork()
        span: Span = {
            "name": name,
            "pid": self.pid,
            "id": next(self._ids),
            "parent": self._stack[-1]["id"] if self._stack else None,
        }
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def keep(self, span: Span) -> None:
        if self._file is not None:
            self._file.write(json.dumps(span) + "\n")
        else:
            self.spans.append(span)

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        counts: Optional[CountFn] = None,
        before: Optional[Callable[[], Any]] = None,
    ) -> Callable[..., Any]:
        """``function`` wrapped so that every call records a ``name`` span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = before() if before is not None else None
            span = self.open(name)
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                self.close(span)
                if counts is not None:
                    counts(span, args, kwargs, None, error, state)
                self.keep(span)
                raise
            self.close(span)
            if counts is not None:
                counts(span, args, kwargs, result, None, state)
            self.keep(span)
            return result

        return traced


# ------------------------------------------------------------------ install


def _engine_counts(span, args, kwargs, result, error, state) -> None:
    # Engine._run_fast/_run_general(self, factory, ids, wake, budget, ...)
    span["rounds"] = result.rounds if result is not None else args[4]


def _vec_single_counts(span, args, kwargs, result, error, state) -> None:
    network = args[1]
    ids = kwargs.get("ids")
    columns = network.n if ids is None else len(ids)
    rounds = result.rounds if result is not None else kwargs["budget"]
    span["node_rounds"] = columns * rounds


def _vec_batch_counts(span, args, kwargs, result, error, state) -> None:
    span["rows"] = len(kwargs["seeds"])
    if result is not None:
        span["row_rounds"] = sum(
            outcome.result.rounds if outcome.ok else kwargs["budget"]
            for outcome in result
        )


def _lower_counts(span, args, kwargs, result, error, state) -> None:
    if result is not None:
        key = repr(result.content_key()).encode()
        span["key"] = hashlib.sha1(key).hexdigest()[:16]


def _compile_counts(span, args, kwargs, result, error, state) -> None:
    from repro.sim import vec

    span["hit"] = int(vec.compile_cache_stats()["hits"] > state)


def _compile_hits_before() -> int:
    from repro.sim import vec

    return vec.compile_cache_stats()["hits"]


def _trial_batch_counts(span, args, kwargs, result, error, state) -> None:
    span["rows"] = len(args[0]) if result is not None else 0


def _append_counts(span, args, kwargs, result, error, state) -> None:
    # The store writes json.dumps(record, sort_keys=True) plus a newline.
    span["bytes"] = len(json.dumps(args[1], sort_keys=True).encode()) + 1


def _load_counts(span, args, kwargs, result, error, state) -> None:
    span["records"] = len(result) if result is not None else 0


def _lowerable_classes() -> List[type]:
    """Every protocol class that defines its own ``to_round_program``."""
    import repro  # noqa: F401 - registers every protocol class
    from repro.protocols.base import Protocol

    found: List[type] = []
    pending = list(Protocol.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "to_round_program" in cls.__dict__ and cls not in found:
            found.append(cls)
    return found


def install(recorder: Recorder) -> None:
    """Wrap each layer's public entry points; call before the pool forks."""
    import multiprocessing.pool as mp_pool

    from repro.analysis import runner, sweep
    from repro.experiments import common
    from repro.sim import engine, vec

    def patch(owner: Any, attr: str, name: str, counts=None, before=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        function = raw.__func__ if is_static else raw
        traced = recorder.wrap(name, function, counts, before)
        setattr(owner, attr, staticmethod(traced) if is_static else traced)

    patch(engine.Engine, "_run_fast", "engine.fast", _engine_counts)
    patch(engine.Engine, "_run_general", "engine.general", _engine_counts)
    patch(vec, "run_program", "vec.single", _vec_single_counts)
    patch(vec, "run_program_batch", "vec.batch", _vec_batch_counts)
    patch(vec, "compile_program", "compile", _compile_counts, _compile_hits_before)
    for cls in _lowerable_classes():
        patch(cls, "to_round_program", "lower", _lower_counts)
    patch(common, "baseline_trial_batch", "trial.batch", _trial_batch_counts)
    patch(common, "baseline_trial", "trial.single")
    patch(runner.CheckpointStore, "append", "checkpoint.append", _append_counts)
    patch(runner.CheckpointStore, "load", "checkpoint.load", _load_counts)
    patch(runner.SweepRunner, "run_grid", "run_grid")
    patch(sweep, "run_sweep", "run_sweep")
    patch(mp_pool.Pool, "__init__", "pool.spawn")
    # ``__next__`` is bound to ``next`` at class creation; patch both names.
    patch(mp_pool.IMapIterator, "next", "dispatch.wait")
    patch(mp_pool.IMapIterator, "__next__", "dispatch.wait")


def load_spans(recorder: Recorder) -> List[Span]:
    """This process's spans plus every forked worker's span file."""
    spans = list(recorder.spans)
    for entry in sorted(os.listdir(recorder.trace_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(recorder.trace_dir, entry), encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# ------------------------------------------------------------------- reduce


def _self_times(spans: List[Span]) -> None:
    """Set ``self`` on every span: duration minus its children's durations."""
    covered: Dict[Any, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
    for span in spans:
        span["self"] = span["end"] - span["start"] - covered.get(
            (span["pid"], span["id"]), 0.0
        )


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def _in_passes(spans: List[Span], main_pid: int) -> List[Span]:
    """The spans that lie inside the traced passes of the benchmark process,
    in any process, with their self times set."""
    passes = [s for s in spans if s["name"] in PASS_SPANS and s["pid"] == main_pid]
    start = min(s["start"] for s in passes)
    end = max(s["end"] for s in passes)
    inside = [s for s in spans if start <= s["start"] and s["end"] <= end]
    _self_times(inside)
    return inside


def layer_metrics(
    spans: List[Span],
    *,
    main_pid: int,
    processes: int,
    counters: Dict[str, float],
    untraced_wall: float,
) -> Dict[str, float]:
    """Per-layer metrics of the spans inside the traced passes.

    ``counters`` holds the sweep runner's ``sweep/*`` counters over the
    traced passes
    (empty when the workload has no runner); ``untraced_wall`` is the wall of
    the same passes with tracing off, for ``trace.overhead_frac``.
    """
    # The pool is spawned during warm-up, before the passes: set-up time.
    spawn_s = sum(
        s["end"] - s["start"] for s in spans if s["name"] == "pool.spawn"
    )
    spans = _in_passes(spans, main_pid)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def group(name: str) -> List[Span]:
        return by_name.get(name, [])

    def self_s(name: str) -> float:
        return sum(span["self"] for span in group(name))

    def total(name: str, key: str) -> float:
        return float(sum(span.get(key, 0) for span in group(name)))

    metrics: Dict[str, float] = {}
    for path in ("fast", "general"):
        name = f"engine.{path}"
        seconds = self_s(name)
        rounds = total(name, "rounds")
        metrics[f"{name}.runs"] = float(len(group(name)))
        metrics[f"{name}.s"] = seconds
        metrics[f"{name}.rounds"] = rounds
        metrics[f"{name}.rounds_per_s"] = _ratio(rounds, seconds)
    durations = [(s["end"] - s["start"]) * 1e3 for s in group("engine.fast")]
    metrics["engine.fast.run_p50_ms"] = _quantile(durations, 0.50)
    metrics["engine.fast.run_p99_ms"] = _quantile(durations, 0.99)
    metrics["engine.general_frac"] = _ratio(
        metrics["engine.general.s"],
        metrics["engine.general.s"] + metrics["engine.fast.s"],
    )

    seconds = self_s("vec.single")
    node_rounds = total("vec.single", "node_rounds")
    metrics["vec.single.runs"] = float(len(group("vec.single")))
    metrics["vec.single.s"] = seconds
    metrics["vec.single.node_rounds"] = node_rounds
    metrics["vec.single.node_rounds_per_s"] = _ratio(node_rounds, seconds)

    seconds = self_s("vec.batch")
    metrics["vec.batch.calls"] = float(len(group("vec.batch")))
    metrics["vec.batch.rows"] = total("vec.batch", "rows")
    metrics["vec.batch.s"] = seconds
    metrics["vec.batch.row_rounds_per_s"] = _ratio(
        total("vec.batch", "row_rounds"), seconds
    )

    metrics["lower.calls"] = float(len(group("lower")))
    metrics["lower.distinct"] = float(len({s.get("key") for s in group("lower")}))
    metrics["lower.s"] = self_s("lower")
    metrics["compile.calls"] = float(len(group("compile")))
    metrics["compile.hits"] = total("compile", "hit")
    metrics["compile.s"] = self_s("compile")

    batched = total("trial.batch", "rows")
    per_trial = float(len(group("trial.single")))
    metrics["trial.batched"] = batched
    metrics["trial.per_trial"] = per_trial
    metrics["trial.batched_frac"] = _ratio(batched, batched + per_trial)
    metrics["unbatch.s"] = self_s("trial.batch")

    metrics["checkpoint.append.calls"] = float(len(group("checkpoint.append")))
    metrics["checkpoint.append.s"] = self_s("checkpoint.append")
    metrics["checkpoint.append.bytes"] = total("checkpoint.append", "bytes")
    parsed = total("checkpoint.load", "records")
    cached = float(counters.get("sweep/trials_cached", 0))
    metrics["checkpoint.load.calls"] = float(len(group("checkpoint.load")))
    metrics["checkpoint.load.s"] = self_s("checkpoint.load")
    metrics["checkpoint.load.records_parsed"] = parsed
    metrics["checkpoint.load.useful_frac"] = _ratio(cached, parsed)

    first_pass = [s for s in group("pass.first") if s["pid"] == main_pid]
    first_wall = sum(s["end"] - s["start"] for s in first_pass)
    busy = sum(
        s["end"] - s["start"]
        for s in spans
        if s["pid"] != main_pid and s["parent"] is None
    )
    metrics["pool.spawn_s"] = spawn_s
    metrics["dispatch.wait_s"] = self_s("dispatch.wait")
    metrics["dispatch.worker_busy_s"] = busy
    metrics["dispatch.worker_util"] = _ratio(busy, processes * first_wall)
    for name in ("trials_executed", "trials_cached", "vec_fallbacks", "retry",
                 "timeout", "quarantine", "pool_restart"):
        metrics[f"sweep.{name}"] = float(counters.get(f"sweep/{name}", 0))

    metrics["run_sweep.calls"] = float(len(group("run_sweep")))
    metrics["run_sweep.self_s"] = self_s("run_sweep")

    roots = [s for name in PASS_SPANS for s in group(name) if s["pid"] == main_pid]
    traced_wall = sum(s["end"] - s["start"] for s in roots)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_frac"] = _ratio(sum(s["self"] for s in roots), traced_wall)
    metrics["trace.overhead_frac"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    return {name: float(value) for name, value in metrics.items()}


def breakdown(spans: List[Span], *, main_pid: int) -> List[tuple]:
    """(layer, self seconds, share of traced wall) for the benchmark process."""
    spans = [s for s in _in_passes(spans, main_pid) if s["pid"] == main_pid]
    wall = sum(s["end"] - s["start"] for s in spans if s["name"] in PASS_SPANS)
    totals: Dict[str, float] = {}
    for span in spans:
        name = "(unattributed)" if span["name"] in PASS_SPANS else span["name"]
        totals[name] = totals.get(name, 0.0) + span["self"]
    return sorted(
        ((name, seconds, _ratio(seconds, wall)) for name, seconds in totals.items()),
        key=lambda row: -row[1],
    )
