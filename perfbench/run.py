"""End-to-end benchmark of the reproduction: four user workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs it once untraced and once with the span
recorder of ``perfbench/spans.py`` installed, and prints the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads, the metrics and how they
relate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreter launches per run whose median is ``setup_s``.
SETUP_LAUNCHES = 7
PROBE_TIMEOUT_S = 60


def as_metrics(values: Dict[str, float], kind: str) -> Dict[str, Dict[str, Any]]:
    """The JSON ``metrics`` object for one list (``end_to_end`` or
    ``per_layer``) of ``BENCHMARK.json``, which defines the metric names and
    units; ``values`` must name exactly those metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        units = {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}
    if set(values) != set(units):
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _import_program() -> None:
    """Put the checkout's ``src/`` on the path; fail loudly without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from repro.sim.vec import VecFallbackWarning

    # fnw-general cells of sweep_resume fall back from vec by design.
    warnings.simplefilter("ignore", VecFallbackWarning)


def digest(records: List[Any]) -> str:
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child (the pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_rep(workload, recorder=None, check=False) -> Dict[str, Any]:
    """One first pass and one second pass, optionally inside pass spans.

    Each pass's records are reduced to their digest and then dropped, after
    the workload's own checks when ``check`` is set, so every rep runs with
    the same live heap.
    """
    rep: Dict[str, Any] = {"problems": []}
    for key, run in (("first", workload.first_pass), ("second", workload.second_pass)):
        gc.collect()
        span = recorder.open(f"pass.{key}") if recorder is not None else None
        started = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - started
        if span is not None:
            recorder.close(span)
            recorder.keep(span)
        rep[f"{key}_s"] = seconds
        rep[f"{key}_digest"] = digest(result.records)
        rep[key] = result
    if check:
        rep["problems"] = workload.check(rep["first"], rep["second"])
    rep["first"].records = rep["second"].records = None
    return rep


def measure_setup(name: str, seed: int, work_dir: str) -> List[float]:
    """Wall time from launching a fresh interpreter until it is ready.

    Each launch imports the program (NumPy included), builds the workload
    and runs its warm-up — pool spawn, first lowering/compile — then prints
    ``ready``.  The time to that line is one sample.
    """
    samples = []
    for launch in range(SETUP_LAUNCHES):
        probe_dir = os.path.join(work_dir, f"probe-{launch}")
        command = [
            sys.executable, os.path.abspath(__file__), "--probe", probe_dir,
            "--workload", name, "--seed", str(seed),
        ]
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - started)
            probe.stdout.read()
            code = probe.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {code}): {line!r}")
    return samples


def probe(name: str, seed: int, work_dir: str) -> None:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, work_dir)
    workload.warm_up()
    print("ready", flush=True)
    workload.close()


def check_reps(reps: List[Dict[str, Any]]) -> Tuple[List[str], str]:
    """The reps' own problems, plus any pass whose records differ from rep
    0's first pass."""
    expected = reps[0]["first_digest"]
    problems = [problem for rep in reps for problem in rep["problems"]]
    problems += [
        f"rep {index} {key} pass: records differ from rep 0's first pass"
        for index, rep in enumerate(reps)
        for key in ("first", "second")
        if rep[f"{key}_digest"] != expected
    ]
    return problems, expected


def untraced(name: str, seed: int, seconds: float, work_dir: str) -> Dict[str, Any]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, work_dir)
    try:
        workload.warm_up()
        reps = [run_rep(workload, check=True)]
        # Reps repeat until their timed passes fill ``seconds``.
        while sum(rep["first_s"] + rep["second_s"] for rep in reps) < seconds:
            reps.append(run_rep(workload))
        problems, record_digest = check_reps(reps)
    finally:
        workload.close()
    # Read after the pool is joined and before any set-up probe is reaped.
    rss = peak_rss_mb()
    setup = measure_setup(name, seed, work_dir)

    wall = statistics.median(rep["first_s"] for rep in reps)
    first = reps[0]["first"]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "resume_s": statistics.median(rep["second_s"] for rep in reps),
        "trials_per_s": first.trials / wall,
        "node_rounds_per_s": first.node_rounds / wall,
        "peak_rss_mb": rss,
    }
    print(f"workload {name} seed={seed} reps={len(reps)} trials/pass={first.trials}")
    print(f"digest {name} seed={seed} sha256={record_digest}")
    print("first-pass walls: " + " ".join(f"{rep['first_s']:.4f}" for rep in reps))
    print("second-pass walls: " + " ".join(f"{rep['second_s']:.4f}" for rep in reps))
    print("set-up launches: " + " ".join(f"{s:.4f}" for s in setup))
    return {
        "problems": problems,
        "attempted": sum(rep[k].trials for rep in reps for k in ("first", "second")),
        "failed": sum(rep[k].failed for rep in reps for k in ("first", "second")),
        "metrics": as_metrics(metrics, "end_to_end"),
    }


def traced(name: str, seed: int, work_dir: str) -> Dict[str, Any]:
    import spans
    from workloads import WORKLOADS

    # The untraced rep first, before any wrapper exists, for the overhead.
    workload = WORKLOADS[name](seed, os.path.join(work_dir, "untraced"))
    try:
        workload.warm_up()
        plain = run_rep(workload, check=True)
    finally:
        workload.close()

    trace_dir = os.path.join(work_dir, "trace")
    os.makedirs(trace_dir)
    recorder = spans.Recorder(trace_dir)
    spans.install(recorder)
    workload = WORKLOADS[name](seed, os.path.join(work_dir, "traced"))
    try:
        workload.warm_up()
        before = workload.counters()
        rep = run_rep(workload, recorder, check=True)
        after = workload.counters()
        problems, record_digest = check_reps([plain, rep])
    finally:
        workload.close()

    recorded = spans.load_spans(recorder)
    counters = {key: after[key] - before.get(key, 0) for key in after}
    metrics = spans.layer_metrics(
        recorded,
        main_pid=os.getpid(),
        processes=workload.processes,
        counters=counters,
        untraced_wall=plain["first_s"] + plain["second_s"],
    )
    print(f"workload {name} seed={seed} traced")
    print(f"digest {name} seed={seed} sha256={record_digest}")
    print("benchmark-process self time by layer (share of traced wall):")
    for layer, seconds, share in spans.breakdown(recorded, main_pid=os.getpid()):
        print(f"  {layer:<20} {seconds:9.4f} s  {share:7.2%}")
    return {
        "problems": problems,
        "attempted": sum(rep[k].trials for k in ("first", "second")),
        "failed": sum(rep[k].failed for k in ("first", "second")),
        "metrics": as_metrics(metrics, "per_layer"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args()

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.probe:
        probe(args.workload, args.seed, args.probe)
        return 0

    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        if args.trace:
            outcome = traced(args.workload, args.seed, work_dir)
        else:
            outcome = untraced(args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it

    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome["problems"] and outcome["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": outcome["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
