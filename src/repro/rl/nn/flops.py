"""FLOP/byte accounting for the numpy NN substrate.

The policy nets are the benchmark's hottest code (200k+ forwards per
bench session), and the planned fused/batched inference work needs the
number that justifies it: achieved MFLOP/s and arithmetic intensity
(FLOPs per byte moved). This module counts floating-point work and
memory traffic of the layers in :mod:`repro.rl.nn.layers` — the taped
autograd path (forward *and* backward), the tape-free ``forward_np``
fast path, and the tape-free SAC update (``forward_train`` and
``backward``).

Counting is **off by default** and hooked in with a single module-global
truthiness check per op (``autograd.FLOP_HOOK``), so disabled runs pay
one pointer comparison — within noise. When enabled, every op adds to a
process-wide :class:`FlopCounter` and to cached
:mod:`repro.telemetry.metrics` counters (``nn_flops_total{op=...}`` /
``nn_bytes_total{op=...}``), so FLOP totals appear in every metrics
snapshot alongside the span timings.

Conventions (the usual roofline bookkeeping):

* matmul ``[m,k] @ [k,n]`` — ``2*m*k*n`` FLOPs (multiply + add),
  ``8*(m*k + k*n + m*n)`` bytes (read A and B, write C, float64);
* its backward — two matmuls, ``4*m*k*n`` FLOPs, or ``2*m*k*n`` for
  each product the tape-free update computes on its own;
* elementwise ops (bias add, relu, tanh, ...) — one FLOP per element,
  ``16`` bytes per element (read + write). ``tanh`` is counted as one
  FLOP like everything else; hardware cost differs, but the counter
  tracks *work shape*, not cycles.

Counting never touches an RNG and never changes any computed value, so
the determinism proofs hold with it enabled.
"""

from __future__ import annotations

_ITEMSIZE = 8  # float64 throughout the substrate


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
        """Start counting (installs the autograd hook)."""
        from repro.rl.nn import autograd

        self.enabled = True
        autograd.FLOP_HOOK = self

    def disable(self) -> None:
        from repro.rl.nn import autograd

        self.enabled = False
        if autograd.FLOP_HOOK is self:
            autograd.FLOP_HOOK = None

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

    def matmul(self, m: int, k: int, n: int, backward: bool = False) -> None:
        """One ``[m,k] @ [k,n]`` product (or its two backward products)."""
        if backward:
            self._record(
                "matmul_bwd",
                4.0 * m * k * n,
                _ITEMSIZE * (3.0 * m * n + 2.0 * m * k + 2.0 * k * n),
            )
        else:
            self._record(
                "matmul_fwd",
                2.0 * m * k * n,
                _ITEMSIZE * (m * k + k * n + m * n),
            )

    def matmul_grad(self, m: int, k: int, n: int) -> None:
        """One backward ``[m,k] @ [k,n]`` product on its own.

        The tape-free SAC update computes a layer's weight gradient and
        its input gradient only where they are read, so it reports each
        backward product by itself, under the taped pair's label.
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
