"""Outside-in layer timing: wrap each layer's public calls from outside.

:class:`LayerTracer` replaces the functions and methods named in
:data:`LAYERS` with wrappers that count calls and time them, and puts the
originals back on :meth:`LayerTracer.uninstall`. Nothing in the program
changes: the repository's own span tracer stays off. A call's *self time*
is its duration minus the time spent in wrapped calls it made, so the
self times of all layers add up to at most the wall-clock they ran in.
Spans are kept in memory as per-layer totals and reported at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

#: Per-layer metric prefix -> the ``(module, attribute path)`` calls it
#: wraps. One prefix may sum several classes' methods.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.BatchWorld.tick": (("repro.sim.batch", "BatchWorld.tick"),),
    "sim.make_batch_world": (("repro.sim.batch", "make_batch_world"),),
    "sim.World.tick": (("repro.sim.world", "World.tick"),),
    "sim.make_world": (("repro.sim.scenario", "make_world"),),
    "sim.Road.straight": (("repro.sim.road", "Road.straight"),),
    "sim.BatchWorld.ego_frenet": (("repro.sim.batch", "BatchWorld.ego_frenet"),),
    "sensors.BevCamera.render_batch": (
        ("repro.sensors.camera", "BevCamera.render_batch"),
    ),
    "sensors.BevCamera.render": (("repro.sensors.camera", "BevCamera.render"),),
    "sensors.Imu.observe": (("repro.sensors.imu", "Imu.observe"),),
    "agents.BatchBehaviorPlanner.update": (
        ("repro.agents.modular.behavior", "BatchBehaviorPlanner.update"),
    ),
    "agents.act_batch": (
        ("repro.agents.batch", "BatchModularActor.act_batch"),
        ("repro.agents.batch", "BatchPolicyActor.act_batch"),
    ),
    "agents.BehaviorPlanner.update": (
        ("repro.agents.modular.behavior", "BehaviorPlanner.update"),
    ),
    "agents.act": (
        ("repro.agents.modular.agent", "ModularAgent.act"),
        ("repro.agents.e2e.agent", "EndToEndAgent.act"),
    ),
    "core.deltas": (
        ("repro.core.attackers", "BatchNullAttacker.deltas"),
        ("repro.core.attackers", "BatchOracleAttacker.deltas"),
        ("repro.core.attackers", "BatchLearnedAttacker.deltas"),
    ),
    "core.delta": (("repro.core.attackers", "LearnedAttacker.delta"),),
    "core.rewards": (
        ("repro.agents.e2e.reward", "DrivingReward.step"),
        ("repro.agents.e2e.reward", "DrivingReward.step_batch"),
        ("repro.core.rewards", "AdversarialReward.step"),
        ("repro.core.rewards", "AdversarialReward.step_batch"),
    ),
    "core.AttackEnv.step": (("repro.core.attack_env", "AttackEnv.step"),),
    "rl.Sac.update": (("repro.rl.sac", "Sac.update"),),
    "rl.Sac.act": (("repro.rl.sac", "Sac.act"),),
    "rl.ReplayBuffer.sample": (("repro.rl.replay", "ReplayBuffer.sample"),),
    "rl.BehaviorCloner.fit": (("repro.rl.bc", "BehaviorCloner.fit"),),
    "rl.SquashedGaussianPolicy.act_batch": (
        ("repro.rl.policy", "SquashedGaussianPolicy.act_batch"),
    ),
    "rl.ProgressivePolicy.act": (("repro.rl.pnn", "ProgressivePolicy.act"),),
    "defense.SimplexSwitchedAgent.act": (
        ("repro.defense.pnn_defense", "SimplexSwitchedAgent.act"),
    ),
    "eval.run_episode_batch": (("repro.eval.batch", "run_episode_batch"),),
    "eval.run_episode": (("repro.eval.episodes", "run_episode"),),
    "telemetry.TraceWriter.emit": (("repro.telemetry.trace", "TraceWriter.emit"),),
    "telemetry.TraceWriter.flush": (
        ("repro.telemetry.trace", "TraceWriter.flush"),
        ("repro.telemetry.trace", "TraceWriter.close"),
    ),
    "telemetry.stamp_provenance": (
        ("repro.telemetry.provenance", "stamp_provenance"),
    ),
    "obsv.TelemetryStore.ingest_trace": (
        ("repro.obsv.store", "TelemetryStore.ingest_trace"),
    ),
    "obsv.TelemetryStore.episodes": (
        ("repro.obsv.store", "TelemetryStore.episodes"),
    ),
}


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Counts and times the calls named in :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.stats = {name: LayerStat() for name in LAYERS}
        #: Child time accumulated by each open wrapped call, innermost last.
        self._open: list[list[float]] = []
        self._restore: list = []

    def _wrap(self, fn, stat: LayerStat):
        open_calls = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            open_calls.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_calls.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children[0]
                if open_calls:
                    open_calls[-1][0] += elapsed

        return wrapper

    def _wrap_method(self, cls, name: str, stat: LayerStat) -> None:
        raw = inspect.getattr_static(cls, name)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, stat))
        else:
            wrapped = self._wrap(raw, stat)
        own = name in cls.__dict__
        setattr(cls, name, wrapped)
        self._restore.append((cls, name, raw if own else None))

    def _wrap_function(self, module, name: str, stat: LayerStat) -> None:
        original = getattr(module, name)
        wrapped = self._wrap(original, stat)
        # Rebind every imported copy, e.g. ``from repro.sim.scenario import
        # make_world`` in the episode runners.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        for metric, targets in LAYERS.items():
            stat = self.stats[metric]
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, name = path.split(".")
                    self._wrap_method(getattr(module, cls_name), name, stat)
                else:
                    self._wrap_function(module, path, stat)

    def uninstall(self) -> None:
        """Put every original back (a method inherited before is unset)."""
        while self._restore:
            owner, name, original = self._restore.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False
