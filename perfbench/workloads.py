"""The four benchmark workloads: what a user of this reproduction waits for.

Each workload is built from the run's ``--seed`` and driven closed-loop
from one process.  Its life is:

* ``warm_up()`` — the real set-up path up to the first trial: pool spawn
  and the first lowering/compile (imports happen before it);
* ``first_pass()`` / ``second_pass()`` — the two timed passes over the same
  inputs.  On ``sweep_resume`` the second pass resumes from the checkpoint
  store the first pass wrote; the other workloads keep no store, so their
  second pass recomputes;
* ``check(first, second)`` — output checks, run outside the timed passes;
* ``close()`` — stop the pool, if any.

A pass returns a :class:`PassResult` whose ``records`` are the canonical
per-trial (or, for the atlas, per-cell) records the digest is taken over.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.analysis.runner import SweepRunner
from repro.analysis.sweep import SweepResult, grid_product
from repro.experiments import crossover_atlas
from repro.experiments.common import baseline_trial, make_protocol, run_registered_sweep
from repro.sim import vec
from repro.sim.errors import RoundLimitExceeded
from repro.sim.rng import derive_seed, seed_sequence


#: Warm-ups use this fixed seed, so set-up does the same work for every run
#: seed; a sweep warm-up's checkpoint file is removed by the first pass if
#: the run seed happens to equal it.
WARM_UP_SEED = 0


@dataclass
class PassResult:
    """What one timed pass produced."""

    records: List[Any]
    trials: int
    failed: int
    #: Σ activated nodes × rounds over the pass's trials, computed from the
    #: records (not counted inside the kernels).
    node_rounds: float


def _sweep_records(trial: str, sweep: SweepResult) -> List[Any]:
    return [
        {
            "trial": trial,
            "params": cell.params,
            "trials": cell.trials,
            "failures": [[f.seed, f.error, f.message, f.kind] for f in cell.failures],
        }
        for cell in sweep.cells
    ]


def _sweep_pass(
    trial: str, sweep: SweepResult, active_of, rounds_key: str = "rounds"
) -> PassResult:
    records = _sweep_records(trial, sweep)
    return PassResult(
        records=records,
        trials=sum(cell.attempted for cell in sweep.cells),
        failed=sum(len(cell.failures) for cell in sweep.cells),
        node_rounds=sum(
            active_of(cell.params) * sum(cell.metric(rounds_key)) for cell in sweep.cells
        ),
    )


class Workload:
    """Defaults for a workload without a pool or sweep counters."""

    processes = 1

    def counters(self) -> Dict[str, float]:
        """The sweep runner's ``sweep/*`` counters so far."""
        return {}

    def close(self) -> None:
        pass


class PaperSuite(Workload):
    """Serial registered sweeps of the paper's own algorithms (E1–E9 style).

    Coroutine engine only, fast path: no vec, no pool, no checkpoints, so
    this is the control that must not move when those layers change.
    """

    name = "paper_suite"
    #: (registered trial, grid, trials per cell, activated nodes, rounds key)
    GRIDS = (
        (
            "general",
            grid_product(n=[1 << 10, 1 << 13, 1 << 16], C=[4, 64, 1024], active=[64, 512]),
            32,
            lambda params: params["active"],
            "rounds",
        ),
        (
            "leaf-election",
            grid_product(C=[64, 1024], x=[8, 32]),
            128,
            lambda params: params["x"],
            "rounds",
        ),
        (
            "two-active",
            grid_product(n=[1 << 10, 1 << 13, 1 << 16], C=[4, 64, 1024]),
            128,
            lambda params: 2,
            # ``rounds`` is the solving round; the run goes on to completion.
            "completion_rounds",
        ),
    )

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed

    def warm_up(self) -> None:
        for trial, grid, _, _, _ in self.GRIDS:
            run_registered_sweep(trial, grid[:1], trials=1, master_seed=WARM_UP_SEED)

    def _pass(self) -> PassResult:
        parts = [
            _sweep_pass(
                trial,
                run_registered_sweep(trial, grid, trials=trials, master_seed=self.seed),
                active_of,
                rounds_key,
            )
            for trial, grid, trials, active_of, rounds_key in self.GRIDS
        ]
        return PassResult(
            records=[record for part in parts for record in part.records],
            trials=sum(part.trials for part in parts),
            failed=sum(part.failed for part in parts),
            node_rounds=sum(part.node_rounds for part in parts),
        )

    first_pass = second_pass = _pass

    def check(self, first: PassResult, second: PassResult) -> List[str]:
        problems = []
        unsolved = sum(
            1 for record in first.records for t in record["trials"] if not t["solved"]
        )
        if unsolved:
            problems.append(f"{unsolved} paper-suite trial(s) did not solve")
        # The fast path must agree with the general path: re-run a few
        # `general` trials with a sink attached, which forces the general path.
        from repro.core import FNWGeneral
        from repro.obs import RegistrySink
        from repro.protocols import solve
        from repro.sim import activate_random

        trial, grid, trials, _, _ = self.GRIDS[0]
        for stream in (0, len(grid) - 1):
            params = grid[stream]
            seeds = list(seed_sequence(self.seed, trials, stream=stream))
            for index in (0, trials - 1):
                result = solve(
                    FNWGeneral(),
                    n=params["n"],
                    num_channels=params["C"],
                    activation=activate_random(params["n"], params["active"], seed=seeds[index]),
                    seed=seeds[index],
                    instrument=RegistrySink(),
                )
                recorded = first.records[stream]["trials"][index]["rounds"]
                if float(result.rounds) != recorded:
                    problems.append(
                        f"general {params} seed {seeds[index]}: fast path {recorded} "
                        f"rounds, general path {result.rounds}"
                    )
        return problems

class Atlas(Workload):
    """E22 crossover atlas, serial, with more CD-noise levels than the CLI.

    The noise levels route runs through fault plans and so through the
    engine's general path — the one workload where that path does real work.
    """

    name = "atlas"
    CONFIG = dict(
        protocols=("fnw-general", "decay", "bk-backoff", "dmks-nonadaptive"),
        ns=(16, 64),
        channels=(1, 8),
        cd_qualities=("strong", "noise-0.1", "noise-0.2", "noise-0.3", "none"),
        trials=16,
    )

    def __init__(self, seed: int, work_dir: str):
        self.config = crossover_atlas.Config(master_seed=seed, **self.CONFIG)

    def warm_up(self) -> None:
        crossover_atlas.run(
            crossover_atlas.Config(
                protocols=self.config.protocols,
                ns=self.config.ns[:1],
                channels=self.config.channels[:1],
                cd_qualities=self.config.cd_qualities,
                trials=1,
                # A short budget bounds the warm-up's censored runs.
                max_rounds=64,
                master_seed=WARM_UP_SEED,
            )
        )

    def _pass(self) -> PassResult:
        self.outcome = crossover_atlas.run(self.config)
        cells = self.outcome.cells
        records = [
            [protocol, n, C, cd, stats.solve_rate, stats.mean_rounds, stats.mean_cost,
             stats.crash_rate]
            for (protocol, n, C, cd), stats in cells.items()
        ]
        trials, budget = self.config.trials, self.config.max_rounds
        node_rounds = 0.0
        for (_, n, _, _), stats in cells.items():
            # An unsolved trial reports the budget as a censored score, not
            # the rounds it ran, so only solved trials count node-rounds.
            unsolved = trials - round(stats.solve_rate * trials)
            solved_rounds = round(stats.mean_rounds * trials) - unsolved * budget
            node_rounds += self.config.active_for(n) * solved_rounds
        return PassResult(
            records=records,
            trials=len(cells) * trials,
            failed=0,  # the serial path raises instead of containing
            node_rounds=node_rounds,
        )

    first_pass = second_pass = _pass

    def check(self, first: PassResult, second: PassResult) -> List[str]:
        if not self.outcome.blind_columns_constant(tolerance=0.0):
            return ["atlas: a no-CD baseline's column varies along the CD-quality axis"]
        return []


class SweepResume(Workload):
    """A checkpointed, batched sweep on a 2-worker pool, then its resume.

    The vec cells (``bk-backoff-ack``, ``decay``) run as batched tasks; the
    ``fnw-general`` cells have no lowering and fall back to per-trial
    coroutine dispatch.  The cold pass writes the checkpoint store, the
    resume pass reads it back and executes nothing.
    """

    name = "sweep_resume"
    processes = 2
    TRIAL = "baseline"
    GRID = [
        dict(protocol=protocol, n=n, C=C, active=32, backend="vec", draws="counter")
        for protocol in ("bk-backoff-ack", "decay", "fnw-general")
        for n in (4096, 16384)
        for C in (1, 2)
    ]
    TRIALS = 2048

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.store_dir = os.path.join(work_dir, "store")
        self.runner = SweepRunner(
            processes=self.processes, checkpoint_dir=self.store_dir, vec_batch=True
        )

    def warm_up(self) -> None:
        self.runner.run_grid(self.TRIAL, self.GRID, trials=4, master_seed=WARM_UP_SEED)

    def _run(self) -> PassResult:
        sweep = self.runner.run_grid(
            self.TRIAL, self.GRID, trials=self.TRIALS, master_seed=self.seed
        )
        return _sweep_pass(self.TRIAL, sweep, lambda params: params["active"])

    def first_pass(self) -> PassResult:
        path = self.runner.checkpoint.path_for(self.TRIAL, self.seed)
        if os.path.exists(path):
            os.remove(path)
        return self._run()

    def second_pass(self) -> PassResult:
        before = self.counters().get("sweep/trials_executed", 0)
        result = self._run()
        self.resume_executed = self.counters().get("sweep/trials_executed", 0) - before
        return result

    def check(self, first: PassResult, second: PassResult) -> List[str]:
        problems = []
        if self.resume_executed:
            problems.append(f"resume pass executed {self.resume_executed} trial(s)")
        unsolved = sum(
            1 for record in first.records for t in record["trials"] if not t["solved"]
        )
        if unsolved:
            problems.append(f"{unsolved} sweep trial(s) did not solve")
        # Batched trials must equal their standalone runs.
        for stream in (0, 7):
            params = self.GRID[stream]
            seeds = list(seed_sequence(self.seed, self.TRIALS, stream=stream))
            for index in (0, self.TRIALS - 1):
                standalone = dict(
                    baseline_trial(
                        params["protocol"], params["n"], params["C"], params["active"],
                        seeds[index], backend="vec", draws="counter",
                    )
                )
                batched = first.records[stream]["trials"][index]
                if standalone != batched:
                    problems.append(
                        f"{params} seed {seeds[index]}: batched {batched} != "
                        f"standalone {standalone}"
                    )
        return problems

    def counters(self) -> Dict[str, float]:
        return dict(self.runner.metrics.snapshot()["counters"])

    def close(self) -> None:
        self.runner.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


class VecMega(Workload):
    """n = 10^6 vec runs of ``bk-backoff-ack`` with counter draws.

    A pass is two runs on two seeds derived from the run's seed: the round
    count of one run varies by a few percent from seed to seed, and two
    runs halve that variance in the pass's wall time.
    """

    name = "vec_mega"
    N = 10**6
    CHANNELS = 1
    RUNS = 2

    def __init__(self, seed: int, work_dir: str):
        self.seeds = [derive_seed(seed, index) for index in range(self.RUNS)]
        self.protocol = make_protocol("bk-backoff-ack")

    def _run(self, seed: int, **kwargs: Any):
        return vec.run_protocol(
            self.protocol, n=self.N, num_channels=self.CHANNELS, seed=seed,
            draws="counter", **kwargs
        )

    def warm_up(self) -> None:
        # Lowering and compile are cached on this protocol object; one round
        # also allocates the columns and starts the draw stream.
        try:
            self._run(WARM_UP_SEED, max_rounds=1)
        except RoundLimitExceeded:
            pass

    def _pass(self) -> PassResult:
        results = [self._run(seed) for seed in self.seeds]
        return PassResult(
            records=[
                {"seed": seed, "solved": result.solved, "rounds": result.rounds,
                 "winner": result.winner}
                for seed, result in zip(self.seeds, results)
            ],
            trials=len(results),
            failed=0,
            node_rounds=float(sum(self.N * result.rounds for result in results)),
        )

    first_pass = second_pass = _pass

    def check(self, first: PassResult, second: PassResult) -> List[str]:
        problems = []
        for record in first.records:
            if not record["solved"]:
                problems.append(f"vec_mega: seed {record['seed']} not solved")
                continue
            # The expected round count comes from the other kernel: a
            # one-row batch is bitwise the standalone counter-draw run.
            (outcome,) = vec.run_protocol_batch(
                self.protocol, n=self.N, num_channels=self.CHANNELS, seeds=[record["seed"]]
            )
            expected = outcome.unwrap()
            if (expected.rounds, expected.winner) != (record["rounds"], record["winner"]):
                problems.append(
                    f"vec_mega: seed {record['seed']}: single kernel {record['rounds']} "
                    f"rounds / winner {record['winner']}, batch kernel "
                    f"{expected.rounds} / {expected.winner}"
                )
        return problems


WORKLOADS = {cls.name: cls for cls in (PaperSuite, Atlas, SweepResume, VecMega)}
