"""repro.obsv.prof — the profiling layer.

Answers the questions the span tracer alone cannot:

* **Self time** (:mod:`.selftime`) — inclusive minus direct-children
  time per span path, so ``episode`` stops hiding where the session
  actually went;
* **Sampled stacks** (:mod:`.sampler`) — a stdlib background-thread
  sampler producing folded stacks for line-level hot spots;
* **Flamegraphs** (:mod:`.flamegraph`) — dependency-free single-file
  HTML rendering of either source;
* **Allocations** (:mod:`.memory`) — tracemalloc net/peak per opted-in
  span;
* **FLOP accounting** (with :mod:`repro.rl.nn.flops`) — achieved
  MFLOP/s and arithmetic intensity per span;
* **Sessions** (:mod:`.session`) — one switch that runs all of the
  above and writes the ``PROFILE_*`` report bundle.

Activation: ``REPRO_PROF=<dir|1>`` env (report written at exit),
``repro.obsv profile`` CLI, or :class:`ProfileSession` in code. All off
by default; the disabled cost is zero (no thread, no probes, a pointer
check per NN op) — proven bit-identical by the determinism suite.
"""

from repro.knobs import parse_mem_spec
from repro.obsv.prof.flamegraph import build_tree, render_html, spans_to_folded
from repro.obsv.prof.memory import MemoryProbe
from repro.obsv.prof.sampler import DEFAULT_HZ, SamplingProfiler
from repro.obsv.prof.selftime import SelfTimeRow, attribute
from repro.obsv.prof.session import (
    FlopSpanProbe,
    ProfileConfig,
    ProfileReport,
    ProfileSession,
    env_session,
    install_from_env,
)

__all__ = [
    "DEFAULT_HZ",
    "FlopSpanProbe",
    "MemoryProbe",
    "ProfileConfig",
    "ProfileReport",
    "ProfileSession",
    "SamplingProfiler",
    "SelfTimeRow",
    "attribute",
    "build_tree",
    "env_session",
    "install_from_env",
    "parse_mem_spec",
    "render_html",
    "spans_to_folded",
]
