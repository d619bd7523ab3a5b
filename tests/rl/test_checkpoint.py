"""Resumable-training tests: state round-trips and resume determinism.

The determinism tests are the in-process acceptance proof for crash-safe
training: each SAC loop is run uninterrupted (control), then run again
with an injected in-process crash (``raise@step=K``) followed by a
resume, and the two final snapshots must be bit-identical. The chaos
suite repeats the exercise with real SIGKILLs in subprocesses.
"""

import numpy as np
import pytest

from repro import faults
from repro.agents.e2e.training import DriverTrainConfig, refine_driver_sac
from repro.agents.modular import ModularAgent
from repro.core import CameraAttackObservation
from repro.core.attack_env import AttackEnv
from repro.faults import FaultInjected
from repro.rl.checkpoint import (
    Snapshotter,
    TrainingHalted,
    capture,
    load_state,
    restore,
    run_sac_loop,
    save_state,
)
from repro.rl.nn.layers import Mlp
from repro.rl.nn.optim import Adam
from repro.rl.policy import SquashedGaussianPolicy
from repro.rl.replay import ReplayBuffer
from repro.rl.sac import Sac, SacConfig
from repro.sim.config import ScenarioConfig
from repro.telemetry.trace import TraceWriter
from repro.utils.serialization import load_checkpoint, save_checkpoint

#: Short episodes -> frequent boundaries -> frequent snapshot windows.
SCENARIO = ScenarioConfig(max_steps=25)
STEPS = 90
EVERY = 30
CRASH_AT = 61  # past at least one snapshot, short of the end


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset_active_plan()
    yield
    faults.reset_active_plan()


def tiny_sac(**overrides):
    defaults = dict(
        hidden=(16, 16),
        batch_size=16,
        buffer_capacity=2_000,
        update_every=4,
    )
    defaults.update(overrides)
    return SacConfig(**defaults)


def run_attack_loop(ckpt_dir, resume=False, trace=None, **sac_overrides):
    """The camera attacker's SAC loop on a fresh policy (``sac-attack``)."""
    rng = np.random.default_rng(42)
    env = AttackEnv(
        lambda w: ModularAgent(w.road),
        CameraAttackObservation(),
        budget=1.0,
        scenario=SCENARIO,
        rng=rng,
    )
    policy = SquashedGaussianPolicy(
        env.observation_dim, 1, (16, 16), np.random.default_rng(2)
    )
    config = tiny_sac(
        checkpoint_every=EVERY, checkpoint_dir=str(ckpt_dir),
        checkpoint_keep=10, resume=resume, **sac_overrides,
    )
    sac = Sac(env.observation_dim, env.action_dim, config, rng=rng,
              actor=policy)
    run_sac_loop(sac, env, STEPS, rng, "sac-attack",
                 trace=trace if trace is not None else TraceWriter())


def run_driver_loop(ckpt_dir, resume=False, trace=None):
    """Driver refinement (``sac-driver``) on a fresh policy."""
    from repro.agents.e2e.observation import DrivingObservation

    rng = np.random.default_rng(42)
    policy = SquashedGaussianPolicy(
        DrivingObservation().observation_dim, 2, (16, 16),
        np.random.default_rng(2),
    )
    config = DriverTrainConfig(sac_steps=STEPS, eval_episodes=1)
    config.sac = tiny_sac(
        checkpoint_every=EVERY, checkpoint_dir=str(ckpt_dir),
        checkpoint_keep=10, resume=resume,
    )
    refine_driver_sac(
        policy, config, rng,
        trace=trace if trace is not None else TraceWriter(),
        scenario=SCENARIO,
    )


class TestOptimizerState:
    def _trained_adam(self):
        rng = np.random.default_rng(0)
        net = Mlp([4, 8, 2], rng=rng)
        opt = Adam(net.parameters(), lr=1e-3)
        for param in opt.params:
            param.grad = rng.standard_normal(param.data.shape)
        opt.step()
        return net, opt, rng

    def test_adam_roundtrip_continues_identically(self):
        net, opt, rng = self._trained_adam()
        state = opt.state_dict()
        weights = {k: v.copy() for k, v in net.state_dict().items()}

        net2 = Mlp([4, 8, 2], rng=np.random.default_rng(99))
        net2.load_state_dict(weights)
        opt2 = Adam(net2.parameters(), lr=1e-3)
        opt2.load_state_dict(state)

        grad = np.random.default_rng(5)
        for p1, p2 in zip(opt.params, opt2.params):
            g = grad.standard_normal(p1.data.shape)
            p1.grad, p2.grad = g.copy(), g.copy()
        opt.step()
        opt2.step()
        for k, v in net.state_dict().items():
            np.testing.assert_array_equal(v, net2.state_dict()[k], err_msg=k)

    def test_adam_shape_mismatch_rejected(self):
        _, opt, _ = self._trained_adam()
        state = opt.state_dict()
        state["m_0"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            opt.load_state_dict(state)


class TestReplayState:
    def test_roundtrip_preserves_contents_and_cursor(self):
        rng = np.random.default_rng(3)
        buf = ReplayBuffer(8, obs_dim=2, action_dim=1)
        for i in range(11):  # wraps: index 3, size 8
            buf.add(np.full(2, i), [i * 0.1], float(i), np.full(2, i + 1), False)
        state = buf.state_dict()
        buf2 = ReplayBuffer(8, obs_dim=2, action_dim=1)
        buf2.load_state_dict(state)
        assert len(buf2) == len(buf) == 8
        assert buf2._index == buf._index == 3
        batch1 = buf.sample(4, np.random.default_rng(7))
        batch2 = buf2.sample(4, np.random.default_rng(7))
        for key in batch1:
            np.testing.assert_array_equal(batch1[key], batch2[key])

    def test_capacity_too_small_rejected(self):
        buf = ReplayBuffer(8, obs_dim=2, action_dim=1)
        for i in range(8):
            buf.add(np.zeros(2), [0.0], 0.0, np.zeros(2), False)
        small = ReplayBuffer(4, obs_dim=2, action_dim=1)
        with pytest.raises(ValueError, match="capacity"):
            small.load_state_dict(buf.state_dict())

    def test_obs_dim_mismatch_rejected(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1)
        buf.add(np.zeros(2), [0.0], 0.0, np.zeros(2), False)
        other = ReplayBuffer(4, obs_dim=3, action_dim=1)
        with pytest.raises(ValueError, match="obs dim"):
            other.load_state_dict(buf.state_dict())


class TestTrainStateRoundtrip:
    def _make_sac(self, seed):
        rng = np.random.default_rng(seed)
        sac = Sac(3, 1, tiny_sac(), rng=rng)
        for i in range(40):
            sac.observe(
                rng.standard_normal(3), rng.uniform(-1, 1, 1),
                float(i), rng.standard_normal(3), False,
            )
        for _ in range(3):
            sac.update()
        return sac, rng

    def test_capture_restore_save_load(self, tmp_path):
        sac, rng = self._make_sac(11)
        state = capture(sac, "test-loop", 57, 4, rng)
        path = save_state(state, tmp_path / "snap")
        loaded = load_state(path)
        assert loaded.counters() == state.counters()
        assert loaded.rng_state == state.rng_state
        assert set(loaded.arrays) == set(state.arrays)

        sac2, rng2 = self._make_sac(99)  # different history entirely
        restore(loaded, sac2, rng2)
        assert sac2.total_updates == sac.total_updates
        assert rng2.bit_generator.state == rng.bit_generator.state
        # Both learners now produce identical updates.
        stats1 = sac.update()
        stats2 = sac2.update()
        assert stats1["critic_loss"] == stats2["critic_loss"]
        for k, v in sac.state_dict().items():
            np.testing.assert_array_equal(v, sac2.state_dict()[k], err_msg=k)

    def test_load_state_rejects_plain_checkpoint(self, tmp_path):
        from repro.utils.serialization import CheckpointCorruptError

        path = save_checkpoint(tmp_path / "plain", {"w": np.ones(2)})
        with pytest.raises(CheckpointCorruptError, match="train_state"):
            load_state(path)


class TestSnapshotter:
    def _state(self, sac, rng, step):
        return capture(sac, "loop", step, 0, rng)

    def test_cadence_and_rotation(self, tmp_path):
        rng = np.random.default_rng(0)
        sac = Sac(2, 1, tiny_sac(), rng=rng)
        snap = Snapshotter(tmp_path, every=10, keep=2, loop="loop")
        for step in (0, 5, 12, 19, 24, 37, 50):
            snap.maybe_save(self._state(sac, rng, step))
        names = [p.name for p in snap.snapshots()]
        # Due at 12, 24, 37, 50; keep=2 retains the newest two.
        assert names == ["state_step00000037.npz", "state_step00000050.npz"]

    def test_latest_state_skips_corrupt_newest(self, tmp_path):
        rng = np.random.default_rng(0)
        sac = Sac(2, 1, tiny_sac(), rng=rng)
        snap = Snapshotter(tmp_path, every=1, keep=5, loop="loop")
        snap.save(self._state(sac, rng, 10))
        good = capture(sac, "loop", 20, 0, rng)
        snap.save(good)
        newest = snap.save(self._state(sac, rng, 30))
        faults.truncate_tail(newest, drop_bytes=200)
        state = snap.latest_state()
        assert state is not None
        assert state.step == 20  # fell back past the torn file

    def test_latest_state_empty_dir(self, tmp_path):
        snap = Snapshotter(tmp_path / "none", every=1, keep=1, loop="loop")
        assert snap.latest_state() is None

    def test_write_failure_degrades_to_warning(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        sac = Sac(2, 1, tiny_sac(), rng=rng)
        snap = Snapshotter(tmp_path, every=1, keep=2, loop="loop")
        monkeypatch.setenv("REPRO_FAULTS", "enospc@save=0,count=99")
        faults.reset_active_plan()
        assert snap.save(self._state(sac, rng, 5)) is None  # no raise
        assert snap.snapshots() == []

    def test_alert_snapshots_excluded_from_resume(self, tmp_path):
        rng = np.random.default_rng(0)
        sac = Sac(2, 1, tiny_sac(), rng=rng)
        snap = Snapshotter(tmp_path, every=1, keep=5, loop="loop")
        snap.save(self._state(sac, rng, 10))
        snap.save(self._state(sac, rng, 99), tag="alert")
        state = snap.latest_state()
        assert state.step == 10

    def test_environment_sets_no_interval(self, tmp_path, monkeypatch):
        """The cadence is the config's alone: a shell that still exports
        the retired REPRO_CHECKPOINT_EVERY knob turns nothing on."""
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "5")
        sac, env, rng = attack_learner(
            checkpoint_every=0, checkpoint_dir=str(tmp_path)
        )
        run_sac_loop(sac, env, STEPS, rng, "sac-attack", trace=TraceWriter())
        assert not (tmp_path / "sac-attack").exists()

    def test_keep_one(self, tmp_path):
        assert SacConfig().checkpoint_keep == 3
        # A periodic snapshot every 30 steps, only one kept.
        sac, env, rng = attack_learner(
            checkpoint_every=EVERY, checkpoint_dir=str(tmp_path),
            checkpoint_keep=1,
        )
        run_sac_loop(sac, env, STEPS, rng, "sac-attack", trace=TraceWriter())
        kept = sorted((tmp_path / "sac-attack").glob("state_step*.npz"))
        assert len(kept) == 1


def attack_learner(**settings):
    """A fresh ``sac-attack`` learner of every default but ``settings``,
    its environment and their shared generator."""
    rng = np.random.default_rng(42)
    env = AttackEnv(
        lambda w: ModularAgent(w.road),
        CameraAttackObservation(),
        budget=1.0,
        scenario=SCENARIO,
        rng=rng,
    )
    sac = Sac(
        env.observation_dim, env.action_dim, SacConfig(**settings), rng=rng
    )
    return sac, env, rng


class TestRunSettings:
    """An out-of-range run setting stops the loop before its first step,
    naming the field, instead of turning into "off" or a clamped value."""

    @pytest.mark.parametrize(
        "field, value",
        [("checkpoint_every", -5), ("health_every", -1), ("checkpoint_keep", 0)],
    )
    def test_out_of_range_setting_refused(self, tmp_path, field, value):
        sac, env, rng = attack_learner(
            checkpoint_dir=str(tmp_path), **{field: value}
        )
        trace = TraceWriter()
        with pytest.raises(ValueError, match=f"SacConfig.{field} must be"):
            run_sac_loop(sac, env, STEPS, rng, "sac-attack", trace=trace)
        assert trace.events == []
        assert list(tmp_path.iterdir()) == []


# -- resume determinism: the tentpole acceptance proof ------------------------------


def _final_state(ckpt_dir, loop):
    snaps = sorted((ckpt_dir / loop).glob("state_step*.npz"))
    assert snaps, f"no snapshots under {ckpt_dir / loop}"
    state = load_state(snaps[-1])
    assert state.final and state.step == STEPS
    return state


def _assert_bit_identical(a, b):
    assert a.counters() == b.counters()
    assert a.rng_state == b.rng_state
    assert set(a.arrays) == set(b.arrays)
    for key in a.arrays:
        np.testing.assert_array_equal(a.arrays[key], b.arrays[key], err_msg=key)


def _crash_then_resume(run, ckpt_dir, loop, monkeypatch):
    """Run ``run`` crashed at CRASH_AT, then resumed; control separately."""
    control_dir = ckpt_dir / "control"
    crashed_dir = ckpt_dir / "crashed"
    run(control_dir, resume=False)

    monkeypatch.setenv("REPRO_FAULTS", f"raise@step={CRASH_AT},loop={loop}")
    faults.reset_active_plan()
    with pytest.raises(FaultInjected):
        run(crashed_dir, resume=False)
    assert sorted((crashed_dir / loop).glob("state_step*.npz")), (
        "crash left no snapshot to resume from"
    )
    monkeypatch.delenv("REPRO_FAULTS")
    faults.reset_active_plan()
    run(crashed_dir, resume=True)

    _assert_bit_identical(
        _final_state(control_dir, loop), _final_state(crashed_dir, loop)
    )


class TestResumeDeterminism:
    def test_attack_loop(self, tmp_path, monkeypatch):
        _crash_then_resume(run_attack_loop, tmp_path, "sac-attack", monkeypatch)

    def test_driver_loop(self, tmp_path, monkeypatch):
        _crash_then_resume(run_driver_loop, tmp_path, "sac-driver", monkeypatch)

    def test_finetune_loop(self, tmp_path, monkeypatch):
        from repro.agents.e2e import EndToEndAgent
        from repro.agents.e2e.observation import DrivingObservation
        from repro.core import (
            InjectionChannel,
            InjectionChannelConfig,
            LearnedAttacker,
        )
        from repro.defense import FinetuneConfig, adversarial_finetune_sac

        sensor = CameraAttackObservation()
        attack_policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, (8,), np.random.default_rng(4)
        )
        attacker = LearnedAttacker(
            attack_policy, sensor,
            channel=InjectionChannel(InjectionChannelConfig(budget=1.0)),
        )
        base = EndToEndAgent(
            SquashedGaussianPolicy(
                DrivingObservation().observation_dim, 2, (16, 16),
                np.random.default_rng(2),
            )
        )

        def run(ckpt_dir, resume):
            config = DriverTrainConfig(sac_steps=STEPS, eval_episodes=1)
            config.sac = tiny_sac(
                checkpoint_every=EVERY, checkpoint_dir=str(ckpt_dir),
                checkpoint_keep=10, resume=resume,
            )
            adversarial_finetune_sac(
                base, attacker, FinetuneConfig(rho=0.5, episodes=1),
                sac_config=config, scenario=SCENARIO,
            )

        _crash_then_resume(run, tmp_path, "sac-finetune", monkeypatch)

    def test_snapshot_with_env_episode_counter(self, tmp_path, monkeypatch):
        """Snapshots from before the loop counted its own episodes carry
        an extra ``env_episode`` counter; they still resume identically."""

        def run(ckpt_dir, resume):
            if not resume:
                run_driver_loop(ckpt_dir)
                return
            snapshots = sorted(
                (ckpt_dir / "sac-driver").glob("state_step*.npz")
            )
            for path in snapshots:
                arrays, meta = load_checkpoint(path)
                meta["train_state"]["env_episode"] = meta["train_state"][
                    "episode"
                ]
                save_checkpoint(path, arrays, meta)
            newest = load_state(snapshots[-1])
            trace = TraceWriter()
            run_driver_loop(ckpt_dir, resume=True, trace=trace)
            # It resumed from the rewritten snapshot, not from scratch.
            first = next(e for e in trace.events if e["event"] == "train_step")
            assert first["step"] == newest.step > 0
            assert first["episode"] == newest.episode

        _crash_then_resume(run, tmp_path, "sac-driver", monkeypatch)


LOOPS = [
    pytest.param(run_attack_loop, "sac-attack", id="attack"),
    pytest.param(run_driver_loop, "sac-driver", id="driver"),
]


class TestLoopContract:
    """Every loop label records and counts episodes the same way."""

    @pytest.mark.parametrize("run, loop", LOOPS)
    def test_train_step_records_carry_episode(self, tmp_path, run, loop):
        trace = TraceWriter()
        run(tmp_path, trace=trace)
        records = [e for e in trace.events if e["event"] == "train_step"]
        assert [e["step"] for e in records] == list(range(STEPS))
        assert {e["loop"] for e in records} == {loop}
        # Episode indices start at 0 and advance after each done step.
        episode = 0
        for record in records:
            assert record["episode"] == episode
            episode += record["done"]
        assert episode >= 2

    @pytest.mark.parametrize("run, loop", LOOPS)
    def test_train_state_counts_finished_episodes(self, tmp_path, run, loop):
        trace = TraceWriter()
        run(tmp_path, trace=trace)
        done_steps = [
            e["step"] for e in trace.events
            if e["event"] == "train_step" and e["done"]
        ]
        snapshots = sorted((tmp_path / loop).glob("state_step*.npz"))
        assert len(snapshots) >= 2
        for path in snapshots:
            state = load_state(path)
            assert state.episode == sum(s < state.step for s in done_steps)
        # The run ends mid-episode: the unfinished one is not counted.
        assert state.final and done_steps[-1] < STEPS - 1
        assert state.episode == len(done_steps)


class TestWatchdogHalt:
    def test_nan_grads_halt_with_emergency_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "nan_grads@update=3")
        faults.reset_active_plan()
        trace = TraceWriter()
        with pytest.raises(TrainingHalted) as excinfo:
            run_attack_loop(tmp_path, trace=trace, halt_on_alert=True)
        halted = excinfo.value
        assert halted.alert.rule == "nan_loss"
        assert halted.checkpoint is not None
        assert halted.checkpoint.exists()
        assert "state_alert_" in halted.checkpoint.name
        assert str(halted.checkpoint) in str(halted)
        # The alert also landed in the trace for post-mortem tooling.
        alerts = [e for e in trace.events if e["event"] == "alert"]
        assert alerts and alerts[0]["severity"] == "critical"
