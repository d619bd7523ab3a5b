"""The benchmark's workloads: inputs made from a seed, one op, its check.

Each workload turns ``--seed`` into a series of *cycles*. A cycle is a
list of ops that covers every cell of the workload once, in a shuffled
order, with freshly drawn episode seeds; cycle ``i`` of seed ``s`` is
drawn from ``default_rng([s, i])``. A run is made of whole cycles, so
every run measures the same mix of cells whatever its length, and each
further cycle adds fresh episodes, which steadies the lockstep waste
that a single straggler episode causes.

Set-up is split the way ``setup_s`` is reported: :meth:`import_modules`
(``setup.import_s``), :meth:`load` (``experiments.registry.load_s``:
checkpoint loads) and :meth:`first_world` (the first world build).
"""

from __future__ import annotations

import math
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from outcomes import digest, invariants

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for trace files and stores; inside the checkout.
TMP_DIR = ROOT / ".perfbench-tmp"

BUDGETS = (0.0, 0.25, 0.5, 0.75, 1.0)
ATTACK_VICTIMS = ("modular", "e2e")
#: Episodes per Fig. 4/5 cell (one lockstep batch).
ATTACK_EPISODES = 64
DEFENSE_AGENTS = ("pnn sigma=0.2", "pnn sigma=0.4", "finetuned rho=1/2")
DEFENSE_ATTACKERS = ("camera", "imu")
DEFENSE_BUDGETS = (0.25, 0.5, 1.0)
#: Episodes per Fig. 6/7 cell. Two keep a whole 18-cell cycle near 8 s
#: on the reference host, so a run can repeat it.
DEFENSE_EPISODES = 2
#: SAC steps per training job; BC and evaluation are kept small so the
#: SAC refinement loop dominates the job's wall-clock.
SAC_STEPS = 400
#: The warm-up job: enough steps for a few updates of a 128-sample batch.
WARMUP_SAC_STEPS = 160
SEED_SPACE = 1_000_000


@dataclass(frozen=True)
class Op:
    """One operation: a workload cell and the seeds it runs."""

    cell: tuple
    seeds: tuple[int, ...]


@dataclass
class Outcome:
    """What one op produced, as the output check and metrics need it."""

    #: Simulated control ticks (eval workloads) or SAC steps (training).
    ticks: int
    #: Episodes run (eval workloads; 0 for training).
    episodes: int = 0
    #: The op's :func:`outcomes.digest` (eval workloads).
    digest: dict | None = None
    #: Batch rows x lockstep ticks, when the op ran one lockstep batch.
    slots: int = 0
    problems: list[str] = field(default_factory=list)
    #: Bytes of trace written (traced_sweep).
    trace_bytes: int = 0
    #: Events ingested into the telemetry store (traced_sweep).
    ingested: int = 0


def _shuffled_ops(
    seed: int, index: int, cells: list[tuple], episodes: int
) -> list[Op]:
    rng = np.random.default_rng([seed, index])
    order = rng.permutation(len(cells))
    bases = rng.integers(0, SEED_SPACE, size=len(cells))
    return [
        Op(cells[i], tuple(range(int(base), int(base) + episodes)))
        for i, base in zip(order, bases)
    ]


class Workload:
    """A workload's inputs, set-up and op. Subclasses fill in the parts."""

    name = ""
    #: Scaled wall-clock of one cycle on the reference host when the
    #: benchmark was defined; fixes how many cycles a run of ``--seconds``
    #: makes, so later, faster code does the same work.
    cycle_seconds = 0.0

    def import_modules(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def first_world(self, op: Op) -> None:
        raise NotImplementedError

    def cycle(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self, seed: int) -> list[Op]:
        """Small ops run before timing, so lazy set-up is not timed."""
        raise NotImplementedError

    def run(self, op: Op) -> Outcome:
        raise NotImplementedError


def episode_outcome(results, max_steps: int, lockstep: bool) -> Outcome:
    """Ticks, digest and invariant violations of one op's episodes."""
    steps = [r.steps for r in results]
    outcome = Outcome(
        ticks=sum(steps),
        episodes=len(results),
        digest=digest(results),
        slots=len(steps) * max(steps) if lockstep else 0,
    )
    for index, result in enumerate(results):
        outcome.problems.extend(
            f"episode {index}: {p}" for p in invariants(result, max_steps)
        )
    return outcome


class AttackSweep(Workload):
    """Fig. 4/5 cells through the lockstep engine, 64 seeds each."""

    name = "attack_sweep"
    victims = ATTACK_VICTIMS
    cycle_seconds = 6.4

    def import_modules(self) -> None:
        import repro.eval
        from repro.experiments import registry
        from repro.sim.batch import make_batch_world
        from repro.sim.config import ScenarioConfig

        # Looked up at call time, so the layer tracer's wrapper is seen.
        self.eval = repro.eval
        self.registry = registry
        self.make_batch_world = make_batch_world
        self.scenario = ScenarioConfig()

    def load(self) -> None:
        self.registry.e2e_victim(None)
        for victim in self.victims:
            self.registry.camera_attacker(1.0, victim=victim)

    def first_world(self, op: Op) -> None:
        self.make_batch_world(self.scenario, seeds=list(op.seeds))

    def cycle(self, seed: int, index: int) -> list[Op]:
        # Drawn over every victim, so traced_sweep's ops are exactly the
        # modular ops of attack_sweep for the same seed.
        cells = [(v, b) for v in ATTACK_VICTIMS for b in BUDGETS]
        ops = _shuffled_ops(seed, index, cells, ATTACK_EPISODES)
        return [op for op in ops if op.cell[0] in self.victims]

    def warmup(self, seed: int) -> list[Op]:
        ops = {op.cell[0]: op for op in self.cycle(seed, 0)}
        return [Op((victim, 0.5), op.seeds[:4]) for victim, op in ops.items()]

    def _episodes(self, op: Op, trace=None):
        victim, budget = op.cell
        factory = (
            self.registry.modular_victim
            if victim == "modular"
            else self.registry.e2e_victim
        )
        attacker = (
            None
            if budget == 0.0
            else self.registry.camera_attacker(budget, victim=victim)
        )
        return self.eval.run_episode_batch(
            factory, attacker=attacker, seeds=list(op.seeds), trace=trace
        )

    def run(self, op: Op) -> Outcome:
        return episode_outcome(
            self._episodes(op), self.scenario.max_steps, lockstep=True
        )


class TracedSweep(AttackSweep):
    """attack_sweep's modular cells, traced to JSONL and ingested."""

    name = "traced_sweep"
    victims = ("modular",)
    cycle_seconds = 7.5

    def import_modules(self) -> None:
        super().import_modules()
        from repro.obsv.store import TelemetryStore
        from repro.telemetry.trace import TraceWriter

        self.TelemetryStore = TelemetryStore
        self.TraceWriter = TraceWriter

    def run(self, op: Op) -> Outcome:
        TMP_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=TMP_DIR))
        try:
            path = workdir / "trace.jsonl"
            with self.TraceWriter(path) as writer:
                results = self._episodes(op, trace=writer)
            outcome = episode_outcome(
                results, self.scenario.max_steps, lockstep=True
            )
            outcome.trace_bytes = path.stat().st_size
            store = self.TelemetryStore(workdir / "store.sqlite")
            try:
                outcome.ingested = store.ingest_trace(path).events
                stored = store.episodes()
            finally:
                store.close()
        finally:
            shutil.rmtree(workdir)
        if len(stored) != len(results):
            outcome.problems.append(
                f"store holds {len(stored)} episodes, ran {len(results)}"
            )
        by_id = {episode.episode: episode for episode in stored}
        for seed, result in zip(op.seeds, results):
            episode = by_id.get(seed)
            if (
                episode is None
                or not episode.complete
                or episode.end.get("steps") != result.steps
                or len(episode.ticks) != result.steps
            ):
                outcome.problems.append(
                    f"stored episode {seed} does not match its run"
                )
        return outcome


class DefenseSweep(Workload):
    """Fig. 6/7 cells through ``run_episodes`` as the figure drivers call it."""

    name = "defense_sweep"
    cycle_seconds = 8.3

    def import_modules(self) -> None:
        from repro.eval import run_episodes
        from repro.experiments import registry
        from repro.experiments.fig6 import victim_factory_for
        from repro.sim.config import ScenarioConfig
        from repro.sim.scenario import make_world

        self.run_episodes = run_episodes
        self.registry = registry
        self.victim_factory_for = victim_factory_for
        self.make_world = make_world
        self.scenario = ScenarioConfig()

    def load(self) -> None:
        self.registry.e2e_victim(None)
        self.registry.pnn_column()
        self.registry.finetuned_victim_rho2_policy()
        self.registry.camera_attacker(1.0)
        self.registry.imu_attacker(1.0)

    def first_world(self, op: Op) -> None:
        self.make_world(self.scenario, rng=np.random.default_rng(op.seeds[0]))

    def cycle(self, seed: int, index: int) -> list[Op]:
        cells = [
            (agent, attacker, budget)
            for agent in DEFENSE_AGENTS
            for attacker in DEFENSE_ATTACKERS
            for budget in DEFENSE_BUDGETS
        ]
        return _shuffled_ops(seed, index, cells, DEFENSE_EPISODES)

    def warmup(self, seed: int) -> list[Op]:
        base = self.cycle(seed, 0)[0].seeds[:1]
        return [
            Op((agent, attacker, 1.0), base)
            for agent in DEFENSE_AGENTS
            for attacker in DEFENSE_ATTACKERS
        ]

    def run(self, op: Op) -> Outcome:
        agent, attacker, budget = op.cell
        make_attacker = (
            self.registry.camera_attacker
            if attacker == "camera"
            else self.registry.imu_attacker
        )
        results = self.run_episodes(
            self.victim_factory_for(agent, budget),
            lambda: make_attacker(budget),
            n_episodes=len(op.seeds),
            seed=op.seeds[0],
        )
        return episode_outcome(
            results, self.scenario.max_steps, lockstep=False
        )


class TrainAttacker(Workload):
    """One small camera-attacker training job against the e2e victim."""

    name = "train_attacker"
    cycle_seconds = 2.6

    def import_modules(self) -> None:
        from repro.core.training import AttackTrainConfig, train_camera_attacker
        from repro.experiments import registry
        from repro.rl.bc import BcConfig
        from repro.sim.config import ScenarioConfig
        from repro.sim.scenario import make_world

        self.AttackTrainConfig = AttackTrainConfig
        self.train_camera_attacker = train_camera_attacker
        self.registry = registry
        self.BcConfig = BcConfig
        self.make_world = make_world
        self.scenario = ScenarioConfig()

    def load(self) -> None:
        self.registry.e2e_victim(None)

    def first_world(self, op: Op) -> None:
        self.make_world(self.scenario, rng=np.random.default_rng(op.seeds[0]))

    def config(self, seed: int, sac_steps: int):
        default = self.AttackTrainConfig()
        return self.AttackTrainConfig(
            bc_episodes=2,
            bc=self.BcConfig(epochs=5),
            sac_steps=sac_steps,
            # Critic-only warm-up for the same quarter of the run as the
            # full-size default (1500 of 6000 steps).
            sac=replace(default.sac, actor_delay=sac_steps // 4),
            bc_restarts=1,
            eval_episodes=2,
            seed=seed,
        )

    def cycle(self, seed: int, index: int) -> list[Op]:
        rng = np.random.default_rng([seed, index])
        return [Op(("job",), (int(rng.integers(0, SEED_SPACE)),))]

    def warmup(self, seed: int) -> list[Op]:
        return [Op(("warmup",), self.cycle(seed, 0)[0].seeds)]

    def run(self, op: Op) -> Outcome:
        steps = SAC_STEPS if op.cell == ("job",) else WARMUP_SAC_STEPS
        attacker, metrics = self.train_camera_attacker(
            self.registry.e2e_victim, self.config(op.seeds[0], steps)
        )
        outcome = Outcome(ticks=steps)
        for name, value in metrics.items():
            if not math.isfinite(value):
                outcome.problems.append(f"metric {name} is {value}")
        for name, value in attacker.policy.state_dict().items():
            if not np.all(np.isfinite(value)):
                outcome.problems.append(f"parameter {name} is not finite")
        return outcome


WORKLOADS = {
    w.name: w for w in (AttackSweep, DefenseSweep, TrainAttacker, TracedSweep)
}
