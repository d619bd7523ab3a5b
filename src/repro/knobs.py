"""Strict parsing of on/off environment knobs.

An on/off knob reads ``1``/``true``/``yes``/``on`` as on and
``0``/``false``/``no``/``off`` (or unset, or blank) as off, in any case.
Any other value raises ``ValueError`` naming the knob, so a misspelt
``REPRO_SPANS=flase`` fails at start-up instead of switching spans on.
"""

from __future__ import annotations

import os

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")


def env_flag(name: str) -> bool:
    """The on/off knob ``name`` read from the environment."""
    raw = os.environ.get(name, "").strip().lower()
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    raise ValueError(
        f"{name} must be one of {', '.join(_TRUE + _FALSE[1:])} "
        f"(or unset), got {os.environ[name]!r}"
    )
