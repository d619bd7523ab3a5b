"""The settings table: every ``REPRO_*`` environment knob, declared and
parsed in one place.

Each :data:`TABLE` row gives a knob's parser and its value when unset; a
knob set to blank text reads as unset (``_BLANK`` lists the exception).
:func:`get` is the one reader. It reads the environment when called,
since tests set knobs after import, and keeps the parsed value until the
text changes, so a knob read in a loop costs one environ lookup. A value
its parser rejects raises ``ValueError`` naming the knob and the value;
``import repro`` runs :func:`check`, so a malformed knob stops the
process at start-up and an undeclared ``REPRO_*`` name is logged. The
``obsv`` CLI flags that set the same value as a knob hand the same
parsers to argparse, so a rejected flag value is a usage error naming
the flag.
"""

from __future__ import annotations

import math
import os

_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")


def parse(parser, text: str, name: str):
    """``text``, stripped, through ``parser``, which raises ``ValueError``
    saying what it accepts; that error is raised again naming ``name``
    and the value."""
    try:
        return parser(text.strip())
    except ValueError as exc:
        raise ValueError(f"{name} must be {exc}, got {text!r}") from None


def on_off(text: str) -> bool:
    word = text.lower()
    if word in _ON:
        return True
    if word in _OFF:
        return False
    raise ValueError(f"one of {', '.join(_ON + _OFF)} (or unset)")


def number(low: float = -math.inf, above: bool = False, kind=float):
    """The parser of finite ``kind`` values >= ``low`` (> ``low`` if
    ``above``); ``kind=int`` reads integers."""
    what = "an integer" if kind is int else "a finite number"
    if low > -math.inf:
        what += f" {'>' if above else '>='} {low:g}"

    def parse_number(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= low) or (
            above and value == low
        ):
            raise ValueError(what)
        return value

    return parse_number


def choice(*words: str):
    """The parser of one of ``words``, in any case."""

    def parse_choice(text: str) -> str:
        word = text.lower()
        if word not in words:
            raise ValueError(f"one of {', '.join(words)}")
        return word

    return parse_choice


def profile_dir(value: str) -> str | None:
    """``REPRO_PROF``: an off spelling is off (None), an on spelling is
    ``profile``, and any other value is the output directory."""
    word = value.lower()
    if word in _OFF:
        return None
    return "profile" if word in _ON else value


def parse_mem_spec(raw: str | None) -> set[str] | None | bool:
    """``REPRO_PROF_MEM``: off or unset -> False, all-ish -> None (track
    every span), else the set of span names/paths to track."""
    raw = (raw or "").strip()
    if raw.lower() in ("", *_OFF):
        return False
    if raw.lower() in (*_ON, "all", "*"):
        return None
    return {part.strip() for part in raw.split(",") if part.strip()}


def fault_plan(spec: str):
    """``REPRO_FAULTS``: a :class:`repro.faults.Plan`, imported only when
    the knob is set."""
    from repro import faults

    try:
        plan = faults.parse_plan(spec)
    except faults.FaultSpecError as exc:
        raise ValueError(f"a fault plan ({exc})") from None
    faults.log.warning("faults.armed", spec=spec)
    return plan


#: name -> (parser, value when unset), in the README's order.
TABLE: dict[str, tuple] = {
    "REPRO_LOG_LEVEL": (
        choice("debug", "info", "warning", "warn", "error"), "info"
    ),
    "REPRO_LOG_JSON": (on_off, False),
    "REPRO_SPANS": (on_off, False),
    "REPRO_TRACE": (str, None),
    "REPRO_ARTIFACTS": (str, None),
    "REPRO_BENCH_BASELINE": (str, None),
    "REPRO_PROF": (profile_dir, None),
    "REPRO_PROF_HZ": (number(0.0), 0.0),
    "REPRO_PROF_MEM": (parse_mem_spec, False),
    "REPRO_HIST_MAX_SAMPLES": (number(0, kind=int), 0),
    "REPRO_RUN_ID": (str, None),
    # None: the WatchConfig default.
    "REPRO_WATCH_Q_LIMIT": (number(0.0, above=True), None),
    "REPRO_FAULTS": (fault_plan, None),
    "REPRO_CHAOS": (on_off, False),
}

#: What a knob set to blank text reads as, where that differs from
#: unset: an empty ``REPRO_BENCH_BASELINE`` turns the bench diff off.
_BLANK = {"REPRO_BENCH_BASELINE": ""}

#: name -> (the text last parsed, its value).
_seen: dict[str, tuple[str | None, object]] = {}


def get(name: str):
    """Knob ``name``'s value. Every caller shares the parsed value (a
    fault plan keeps its firing state) until the knob's text changes."""
    raw = os.environ.get(name)
    seen = _seen.get(name)
    if seen is not None and seen[0] == raw:
        return seen[1]
    parser, default = TABLE[name]
    if raw is None:
        value = default
    elif not raw.strip():
        value = _BLANK.get(name, default)
    else:
        value = parse(parser, raw, name)
    _seen[name] = (raw, value)
    return value


def forget(name: str) -> None:
    """Drop knob ``name``'s kept value; the next :func:`get` parses anew."""
    _seen.pop(name, None)


def check() -> None:
    """Parse every knob that is set, so a malformed one raises now, and
    log the set ``REPRO_*`` names the table does not declare, sorted
    (except the ``REPRO_ALERT_*`` that ``obsv watch --on-alert`` sets)."""
    for name in TABLE:
        if name in os.environ:
            get(name)
    undeclared = sorted(
        name for name in os.environ
        if name.startswith("REPRO_") and name not in TABLE
        and not name.startswith("REPRO_ALERT_")
    )
    if undeclared:
        from repro.telemetry.log import get_logger

        get_logger("knobs").warning(
            "knobs.undeclared", names=",".join(undeclared)
        )
