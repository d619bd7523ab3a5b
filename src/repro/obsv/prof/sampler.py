"""Stdlib sampling profiler: folded stacks from ``sys._current_frames()``.

The span tracer answers "how long does ``agent.e2e.act`` take"; it cannot
answer "which lines *inside* it" without adding spans everywhere. A
sampling profiler can: a background thread wakes at ``hz`` and records
the interpreter's current Python stack, so hot frames (the SAC update's
backward passes, BEV rasterization inner loops) surface statistically with
no per-call instrumentation and no external dependencies.

Samples are aggregated as *folded stacks* — ``frame;frame;frame`` from
root to leaf mapped to a sample count, the flamegraph interchange format
— and rendered by :mod:`repro.obsv.prof.flamegraph`.

The sampler only ever *reads* interpreter state (frames, code objects):
it cannot perturb simulation results or RNG streams, which the
determinism suite proves by replaying episodes recorded while sampling.
The observer cost is the GIL time the sample thread steals; at the
default 97 Hz that is well under 1% and it is exactly zero when the
sampler is off (no thread exists).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from pathlib import Path

#: Default sampling rate when profiling is enabled without an explicit
#: ``REPRO_PROF_HZ``. Prime, so it cannot phase-lock with millisecond-
#: aligned periodic work and systematically miss (or always hit) it.
DEFAULT_HZ = 97.0

#: Frames deeper than this are folded into a ``...`` leaf.
MAX_DEPTH = 96


def frame_label(filename: str, funcname: str) -> str:
    """``repro.sim.world:tick``-style label for one stack frame."""
    parts = Path(filename).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        module = ".".join(parts[index:]).removesuffix(".py")
    else:
        module = Path(filename).stem
    return f"{module}:{funcname}"


class SamplingProfiler:
    """Background-thread stack sampler producing folded stacks.

    Args:
        hz: target samples per second (> 0).
        all_threads: sample every interpreter thread (prefixed with the
            thread name) instead of only the main thread.
    """

    def __init__(self, hz: float = DEFAULT_HZ, all_threads: bool = False):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        self.hz = float(hz)
        self.all_threads = all_threads
        self.samples: Counter[str] = Counter()
        self.sample_count = 0
        self.duration_s = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # -- lifecycle --------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        if self._started_at is not None:
            self.duration_s += time.perf_counter() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- sampling ---------------------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        own_id = threading.get_ident()
        main_id = threading.main_thread().ident
        while not self._stop.wait(interval):
            frames = sys._current_frames()
            for thread_id, frame in frames.items():
                if thread_id == own_id:
                    continue
                if not self.all_threads and thread_id != main_id:
                    continue
                folded = self._fold(frame)
                if not folded:
                    continue
                if self.all_threads and thread_id != main_id:
                    folded = f"thread-{thread_id};{folded}"
                self.samples[folded] += 1
                self.sample_count += 1

    @staticmethod
    def _fold(frame) -> str:
        stack: list[str] = []
        depth = 0
        while frame is not None:
            if depth >= MAX_DEPTH:
                stack.append("...")
                break
            code = frame.f_code
            stack.append(frame_label(code.co_filename, code.co_name))
            frame = frame.f_back
            depth += 1
        stack.reverse()
        return ";".join(stack)

    # -- output -----------------------------------------------------------------

    def folded(self) -> dict[str, int]:
        """Folded stacks -> sample counts (flamegraph input)."""
        return dict(self.samples)

    def folded_text(self) -> str:
        """The classic ``stack count`` text format (one line per stack)."""
        return "".join(
            f"{stack} {count}\n"
            for stack, count in sorted(
                self.samples.items(), key=lambda item: (-item[1], item[0])
            )
        )

    def summary(self) -> dict:
        effective = (
            self.sample_count / self.duration_s if self.duration_s else 0.0
        )
        return {
            "hz": self.hz,
            "effective_hz": round(effective, 1),
            "samples": self.sample_count,
            "duration_s": round(self.duration_s, 3),
            "unique_stacks": len(self.samples),
        }
