"""Deterministic fault injection for crash-safety testing.

A fault *plan* is a semicolon-separated spec, normally supplied through
the ``REPRO_FAULTS`` environment variable so it reaches subprocesses
unchanged:

``kill@step=120``
    SIGKILL the current process when a training loop enters step 120 —
    the real crash, not an exception that ``finally`` blocks can soften.
``kill@step=120,loop=sac-driver``
    Same, but only for the named loop.
``raise@step=120``
    Raise :class:`FaultInjected` at step 120 — an in-process stand-in
    for ``kill`` that unit tests can catch.
``nan_grads@update=40``
    Overwrite the critic gradients with NaN on SAC update 40, to
    exercise the watchdog's ``nan_loss`` checkpoint-and-halt path.
``enospc@save=2`` / ``enospc@save=2,count=3``
    Make checkpoint write number 2 (and optionally the next ``count-1``
    writes) fail with ``ENOSPC``, as a full disk would.

Plans are deterministic: the trigger is an exact step/update/write
index, so a crashed-and-resumed run replays identically. Training code
calls the ``on_*`` hooks unconditionally; with no plan configured they
cost one attribute check.
"""

from __future__ import annotations

import errno
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import knobs
from repro.telemetry.log import get_logger

log = get_logger("faults")

ENV_FAULTS = "REPRO_FAULTS"

_KINDS = ("kill", "raise", "nan_grads", "enospc")


class FaultInjected(RuntimeError):
    """An injected fault fired (the catchable ``raise`` flavour)."""


class FaultSpecError(ValueError):
    """The ``REPRO_FAULTS`` spec could not be parsed."""


@dataclass(frozen=True)
class Fault:
    """One trigger: fire ``kind`` when its index matches."""

    kind: str
    at: int
    loop: str | None = None
    count: int = 1


@dataclass
class Plan:
    """A parsed fault plan plus the mutable firing state."""

    faults: tuple[Fault, ...]
    _saves: int = 0
    _fired: set = field(default_factory=set)

    def on_train_step(self, loop: str, step: int) -> None:
        """Hook at the top of each training-loop iteration."""
        for fault in self.faults:
            if fault.kind not in ("kill", "raise"):
                continue
            if fault.loop is not None and fault.loop != loop:
                continue
            if step != fault.at or fault in self._fired:
                continue
            self._fired.add(fault)
            if fault.kind == "kill":
                log.warning("faults.kill", loop=loop, step=step)
                os.kill(os.getpid(), signal.SIGKILL)
            raise FaultInjected(f"injected fault at {loop} step {step}")

    def on_gradients(self, which: str, params, update_index: int) -> None:
        """Hook between ``backward()`` and ``opt.step()`` in SAC updates."""
        for fault in self.faults:
            if fault.kind != "nan_grads" or update_index != fault.at:
                continue
            if fault.loop is not None and fault.loop != which:
                continue
            if fault in self._fired:
                continue
            self._fired.add(fault)
            log.warning("faults.nan_grads", which=which, update=update_index)
            for param in params:
                if getattr(param, "grad", None) is not None:
                    param.grad = np.full_like(param.grad, np.nan)

    def on_checkpoint_write(self, path: Path) -> None:
        """Hook at the start of every ``save_checkpoint`` call."""
        index = self._saves
        self._saves += 1
        for fault in self.faults:
            if fault.kind != "enospc":
                continue
            if fault.at <= index < fault.at + fault.count:
                log.warning("faults.enospc", path=str(path), save=index)
                raise OSError(
                    errno.ENOSPC, "injected: no space left on device", str(path)
                )


def parse_plan(spec: str) -> Plan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`Plan`."""
    faults = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, rest = chunk.partition("@")
        kind = kind.strip()
        if kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} in {chunk!r} "
                f"(expected one of {', '.join(_KINDS)})"
            )
        fields: dict[str, str] = {}
        for pair in rest.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            if not sep:
                raise FaultSpecError(f"expected key=value, got {pair!r}")
            fields[key.strip()] = value.strip()
        index_key = {
            "kill": "step", "raise": "step",
            "nan_grads": "update", "enospc": "save",
        }[kind]
        if index_key not in fields:
            raise FaultSpecError(f"{chunk!r} is missing {index_key}=N")
        try:
            at = int(fields.pop(index_key))
            count = int(fields.pop("count", "1"))
        except ValueError as exc:
            raise FaultSpecError(f"non-integer index in {chunk!r}") from exc
        loop = fields.pop("loop", None)
        if fields:
            raise FaultSpecError(
                f"unknown field(s) {sorted(fields)} in {chunk!r}"
            )
        faults.append(Fault(kind=kind, at=at, loop=loop, count=count))
    return Plan(faults=tuple(faults))


def active_plan() -> Plan | None:
    """The process-wide plan from ``REPRO_FAULTS``, or None if unset.

    The plan, and the faults it has fired, lasts until the knob's text
    changes or :func:`reset_active_plan` runs.
    """
    return knobs.get(ENV_FAULTS)


def reset_active_plan() -> None:
    """Drop the cached plan (tests flip ``REPRO_FAULTS`` between runs)."""
    knobs.forget(ENV_FAULTS)


def truncate_tail(path: str | Path, drop_bytes: int = 512) -> None:
    """Chop ``drop_bytes`` off the end of a file, simulating a torn write.

    Used by the chaos suite to corrupt the newest checkpoint the way a
    crash mid-write would have before writes were atomic.
    """
    path = Path(path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - drop_bytes))


def seeded_step(seed: int, lo: int, hi: int) -> int:
    """A deterministic pseudo-random step index in ``[lo, hi)``.

    The chaos suite uses this so 'kill at an arbitrary step' is both
    arbitrary and reproducible from the test's seed.
    """
    if hi <= lo:
        raise ValueError(f"empty range [{lo}, {hi})")
    return int(np.random.default_rng(seed).integers(lo, hi))
