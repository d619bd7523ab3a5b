"""FLOP/byte accounting for the numpy NN substrate.

Counts the floating-point work and memory traffic of the layers in
:mod:`repro.rl.nn.layers` and the policies built on them (the
``forward_np`` inference path and the SAC and behaviour-cloning training
steps), for achieved MFLOP/s and arithmetic intensity (FLOPs per byte).

Counting is **off by default**: each call site checks :data:`FLOP_HOOK`
once, so disabled runs pay one pointer comparison. When enabled, every
op adds to a process-wide :class:`FlopCounter` and to cached
:mod:`repro.telemetry.metrics` counters (``nn_flops_total{op=...}`` /
``nn_bytes_total{op=...}``), so FLOP totals appear in every metrics
snapshot alongside the span timings.

Conventions (the usual roofline bookkeeping):

* matmul ``[m,k] @ [k,n]`` — ``2*m*k*n`` FLOPs (multiply + add),
  ``8*(m*k + k*n + m*n)`` bytes (read A and B, write C, float64);
* each backward product (a weight gradient or an input gradient) —
  ``2*m*k*n`` FLOPs on its own, under ``matmul_bwd``;
* elementwise ops (bias add, relu, tanh, ...) — one FLOP per element,
  ``16`` bytes per element (read + write). ``tanh`` is counted as one
  FLOP like everything else; hardware cost differs, but the counter
  tracks *work shape*, not cycles.

Counting never touches an RNG and never changes any computed value, so
the determinism proofs hold with it enabled.
"""

from __future__ import annotations

_ITEMSIZE = 8  # float64 throughout the substrate

#: FLOP-accounting hook: ``None`` (the default) means counting is off.
#: :meth:`FlopCounter.enable` sets it to that counter; the layers and
#: policies then report their matmul and elementwise work to it.
FLOP_HOOK: "FlopCounter | None" = None


class FlopCounter:
    """Process-wide accumulator of NN floating-point work and bytes."""

    __slots__ = ("enabled", "flops", "bytes", "grand_flops", "grand_bytes",
                 "_registry_counters")

    def __init__(self) -> None:
        self.enabled = False
        #: op label -> FLOPs / bytes accumulated while enabled.
        self.flops: dict[str, float] = {}
        self.bytes: dict[str, float] = {}
        #: Running totals, so per-span attribution probes read O(1).
        self.grand_flops = 0.0
        self.grand_bytes = 0.0
        self._registry_counters: dict[str, tuple] = {}

    # -- switches ---------------------------------------------------------------

    def enable(self) -> None:
        """Start counting (installs :data:`FLOP_HOOK`)."""
        global FLOP_HOOK
        self.enabled = True
        FLOP_HOOK = self

    def disable(self) -> None:
        global FLOP_HOOK
        self.enabled = False
        if FLOP_HOOK is self:
            FLOP_HOOK = None

    def reset(self) -> None:
        self.flops.clear()
        self.bytes.clear()
        self.grand_flops = 0.0
        self.grand_bytes = 0.0

    # -- recording --------------------------------------------------------------

    def _metrics(self, op: str) -> tuple:
        pair = self._registry_counters.get(op)
        if pair is None:
            from repro.telemetry.metrics import get_registry

            registry = get_registry()
            pair = self._registry_counters[op] = (
                registry.counter("nn_flops_total", op=op),
                registry.counter("nn_bytes_total", op=op),
            )
        return pair

    def _record(self, op: str, flops: float, nbytes: float) -> None:
        self.flops[op] = self.flops.get(op, 0.0) + flops
        self.bytes[op] = self.bytes.get(op, 0.0) + nbytes
        self.grand_flops += flops
        self.grand_bytes += nbytes
        flop_counter, byte_counter = self._metrics(op)
        flop_counter.inc(flops)
        byte_counter.inc(nbytes)

    def matmul(self, m: int, k: int, n: int) -> None:
        """One forward ``[m,k] @ [k,n]`` product."""
        self._record(
            "matmul_fwd", 2.0 * m * k * n, _ITEMSIZE * (m * k + k * n + m * n)
        )

    def matmul_grad(self, m: int, k: int, n: int) -> None:
        """One backward ``[m,k] @ [k,n]`` product.

        The backward passes compute a layer's weight gradient and its
        input gradient only where they are read, so each product is
        reported by itself.
        """
        self._record(
            "matmul_bwd", 2.0 * m * k * n, _ITEMSIZE * (m * k + k * n + m * n)
        )

    def elementwise(self, op: str, count: int) -> None:
        """``count`` one-FLOP-per-element operations (add, relu, tanh...)."""
        self._record(op, float(count), 2.0 * _ITEMSIZE * count)

    # -- reporting --------------------------------------------------------------

    def total_flops(self) -> float:
        return self.grand_flops

    def total_bytes(self) -> float:
        return self.grand_bytes

    def intensity(self) -> float:
        """Arithmetic intensity: FLOPs per byte moved (0 when idle)."""
        moved = self.total_bytes()
        return self.total_flops() / moved if moved else 0.0

    def snapshot(self) -> dict:
        """JSON-serializable state: per-op and total FLOPs/bytes."""
        return {
            "enabled": self.enabled,
            "flops": {op: self.flops[op] for op in sorted(self.flops)},
            "bytes": {op: self.bytes[op] for op in sorted(self.bytes)},
            "total_flops": self.total_flops(),
            "total_bytes": self.total_bytes(),
            "intensity": round(self.intensity(), 4),
        }


_COUNTER = FlopCounter()


def get_flop_counter() -> FlopCounter:
    """The process-wide FLOP counter (disabled until ``enable()``)."""
    return _COUNTER
