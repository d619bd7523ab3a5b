"""``python -m repro.obsv`` — analysis and live monitoring of telemetry.

Subcommands:

* ``forensics <trace.jsonl>`` — per-episode post-mortem (markdown, or
  ``--json``); ``--episode ID`` picks one episode, default analyses all.
* ``replay <trace.jsonl>`` — re-simulate episodes from their seeds and
  diff against the recording; exits 1 on any out-of-tolerance field.
* ``dashboard <run>`` — aggregate traces + metrics + bench telemetry
  into markdown (or ``--html``).
* ``compare <a> <b>`` — statistical A/B comparison of two recorded runs
  (``--run-a``/``--run-b`` pick the labelled run inside either side):
  seeded bootstrap CIs, permutation tests, effect sizes, Holm
  correction. Deterministic under a fixed ``--stat-seed``;
  ``--json``/``--html`` for machine/browser output.
* ``regress <current> <baseline>`` — compare bench telemetry snapshots
  (JSON files or stores holding one); exits 1 on threshold breaches
  (``--json`` for the machine-readable breach report). With
  ``--metrics`` the comparison is *scientific* instead: current
  episode metrics (from a metric snapshot JSON or any run) are gated
  against a committed baseline's bootstrap CIs
  (``benchmarks/BASELINE_metrics.json``).
* ``profile [snapshot]`` — self-time attribution, FLOP rates, and
  allocation figures from a profile/bench snapshot (or ``--demo`` for a
  live in-process workload); ``--flamegraph`` renders the HTML
  flamegraph, ``--report-dir`` writes the full ``PROFILE_*`` bundle.
* ``ingest <dir>`` — load a run directory's traces and snapshots into a
  SQLite telemetry store (default ``<dir>/obsv.sqlite``).
* ``query <store>`` — filter/aggregate stored events, export CSV.
* ``watch <trace.jsonl|dir>`` — tail a growing training trace (or
  every trace in a run directory, multiplexed) with a live terminal
  view and watchdog alerts (``--exit-on-alert`` for CI).
* ``verify-artifacts [dir]`` — audit every ``.npz`` checkpoint under a
  directory (default ``artifacts/``) with checksum/load validation;
  exits 1 on corruption.

A run (``<run>``, ``<a>``, ``<b>``) is a JSONL trace file, a run
directory of them, or a telemetry store; traces and directories are
ingested into memory on every read (``ingest`` pays for that once).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from repro import knobs
from repro.obsv import forensics as forensics_mod
from repro.obsv import regress as regress_mod
from repro.obsv import replay as replay_mod
from repro.obsv import watch as watch_mod
from repro.obsv.alerts import WatchConfig
from repro.obsv.dashboard import build_dashboard, to_html
from repro.obsv.loader import load_episodes, select_episode
from repro.obsv.store import (
    DEFAULT_STORE_NAME,
    GROUP_KEYS,
    TelemetryStore,
    export_csv,
    load_snapshot,
)
from repro.telemetry.log import get_logger

log = get_logger("obsv")

#: A negative number given as a flag's value, exponent form and -inf/-nan
#: included: argparse's own pattern accepts only ``-8`` and ``-0.5``, and
#: reads ``-1e1`` as an option, so the flag would stop with "expected one
#: argument" before its parser could judge the value.
_NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
)


def _flag(parser):
    """The argparse ``type`` of a flag read by a :mod:`repro.knobs`
    parser: a value it rejects is a usage error naming the flag."""

    def parse_flag(text: str):
        try:
            return parser(text.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"must be {exc}, got {text!r}")

    return parse_flag


#: ``watch``'s threshold flags: the WatchConfig field, its parser and
#: what it sets. Only ``--q-limit`` shares a knob, REPRO_WATCH_Q_LIMIT.
_WATCH_THRESHOLDS = (
    ("q_limit", knobs.TABLE["REPRO_WATCH_Q_LIMIT"][0],
     "q_divergence threshold on max |Q|; overrides REPRO_WATCH_Q_LIMIT"),
    ("entropy_floor", knobs.number(), "entropy_collapse threshold"),
    ("plateau_window", knobs.number(1, kind=int),
     "episodes without a new best before reward_plateau"),
    ("starvation_updates", knobs.number(1, kind=int),
     "stalled health records before buffer_starvation"),
    ("throughput_ratio", knobs.number(0.0, above=True),
     "fraction of peak steps/s treated as regression"),
)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        log.info("obsv.wrote", path=out, bytes=len(text))
    else:
        sys.stdout.write(text)


def _episodes_for(args) -> list:
    episodes = load_episodes(args.trace, strict=args.strict)
    if args.episode is not None:
        return [select_episode(episodes, args.episode)]
    chosen = [e for e in episodes if e.complete]
    if not chosen:
        raise SystemExit(f"no complete episodes in {args.trace}")
    return chosen


def _cmd_forensics(args) -> int:
    episodes = _episodes_for(args)
    reports = [
        forensics_mod.analyze(e, strike_fraction=args.strike_fraction)
        for e in episodes
    ]
    if args.json:
        payload = [r.to_json() for r in reports]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        chunks = [
            r.to_markdown(ticks=e.ticks)
            for r, e in zip(reports, episodes)
        ]
        _emit("\n".join(chunks), args.out)
    return 0


def _cmd_replay(args) -> int:
    episodes = _episodes_for(args)
    failures = 0
    chunks = []
    for episode in episodes:
        try:
            report = replay_mod.replay_episode(
                episode, tolerance=args.tolerance
            )
        except replay_mod.ReplayError as error:
            failures += 1
            chunks.append(
                f"# Replay — episode {episode.episode}\n\nERROR: {error}\n"
            )
            continue
        if not report.ok:
            failures += 1
        chunks.append(report.to_markdown())
    _emit("\n".join(chunks), args.out)
    return 1 if failures else 0


def _cmd_dashboard(args) -> int:
    try:
        markdown = build_dashboard(args.dir)
    except (OSError, ValueError) as error:
        raise SystemExit(f"dashboard: {error}")
    _emit(to_html(markdown) if args.html else markdown, args.out)
    return 0


def _cmd_compare(args) -> int:
    from repro.obsv import compare as compare_mod

    stat = compare_mod.StatConfig(
        stat_seed=args.stat_seed,
        resamples=args.resamples,
        confidence=args.confidence,
        alpha=args.alpha,
    )
    if args.b is None and not args.snapshot:
        sys.stderr.write("compare: run B is required (or use --snapshot)\n")
        return 1
    try:
        episodes_a, prov_a, label_a = compare_mod.load_run(
            args.a, label=args.run_a
        )
        if not args.snapshot:
            episodes_b, prov_b, label_b = compare_mod.load_run(
                args.b, label=args.run_b
            )
    except ValueError as error:
        sys.stderr.write(f"compare: {error}\n")
        return 1
    if args.snapshot:
        if not episodes_a:
            sys.stderr.write(
                f"compare: no complete episodes in {args.a}\n"
            )
            return 1
        snapshot = compare_mod.metric_snapshot(
            episodes_a, stat, provenance=prov_a
        )
        _emit(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n", args.out
        )
        return 0
    missing = [
        source
        for source, episodes in ((args.a, episodes_a), (args.b, episodes_b))
        if not episodes
    ]
    if missing:
        for source in missing:
            sys.stderr.write(
                f"compare: no complete episodes in {source}\n"
            )
        return 1
    paired = {"auto": None, "yes": True, "no": False}[args.paired]
    comparison = compare_mod.compare_runs(
        episodes_a,
        episodes_b,
        stat=stat,
        label_a=label_a,
        label_b=label_b,
        paired=paired,
        provenance_a=prov_a,
        provenance_b=prov_b,
    )
    if args.json:
        _emit(
            json.dumps(comparison.to_json(), indent=2, sort_keys=True) + "\n",
            args.out,
        )
    else:
        markdown = comparison.to_markdown()
        _emit(to_html(markdown) if args.html else markdown, args.out)
    return 0


def _cmd_regress_metrics(args) -> int:
    from repro.obsv import compare as compare_mod

    try:
        baseline = load_snapshot(args.baseline, kind="metrics")
        stat = compare_mod.stat_config_from_snapshot(baseline)
        current = compare_mod.load_metric_source(args.current, stat)
    except ValueError as error:
        raise SystemExit(f"regress: {error}")
    if current is None:
        sys.stderr.write(
            f"regress: no metrics available from {args.current}\n"
        )
        return 1
    breaches = compare_mod.compare_metric_snapshots(
        current, baseline, min_n=args.min_n
    )
    if args.json:
        sys.stdout.write(regress_mod.report_json(breaches))
    else:
        sys.stdout.write(regress_mod.report(breaches))
    return 1 if breaches else 0


def _cmd_regress(args) -> int:
    if args.metrics:
        return _cmd_regress_metrics(args)
    ratio = args.max_ratio
    thresholds = regress_mod.RegressionThresholds(
        wall_clock_ratio=ratio, span_mean_ratio=ratio, span_self_ratio=ratio
    )
    try:
        current = load_snapshot(args.current)
        baseline = load_snapshot(args.baseline)
    except ValueError as error:
        raise SystemExit(f"regress: {error}")
    breaches = regress_mod.compare_snapshots(current, baseline, thresholds)
    if args.json:
        sys.stdout.write(regress_mod.report_json(breaches))
    else:
        sys.stdout.write(regress_mod.report(breaches))
    return 1 if breaches else 0


def _profile_demo(args):
    """Run a short nominal workload in-process under a profile session.

    Uses the shipped end-to-end driver when its checkpoint exists, else
    the training-free modular pipeline, so the demo works on a fresh
    clone before ``examples/train_all.py``.
    """
    from repro.eval.episodes import run_episode
    from repro.experiments import registry
    from repro.obsv.prof import ProfileConfig, ProfileSession

    if registry.has_artifact(registry.E2E_DRIVER):
        victim_factory, victim = registry.e2e_victim, "e2e"
    else:
        victim_factory, victim = registry.modular_victim, "modular"
    config = ProfileConfig(hz=args.hz, mem=args.mem, flops=True)
    session = ProfileSession(config, reset=True).start()
    for seed in range(args.episodes):
        run_episode(victim_factory, seed=seed)
    report = session.stop()
    log.info(
        "obsv.profile.demo", victim=victim, episodes=args.episodes,
        wall_clock_s=round(report.wall_clock_s, 3),
    )
    return report


def _profile_from_snapshot(path: str):
    """A report reconstructed from profiling/bench output on disk.

    Accepts a ``PROFILE_report.json`` bundle, a ``BENCH_telemetry.json``
    snapshot (schema 1 or 2), or an ingested telemetry store holding one.
    """
    from repro.obsv.prof import ProfileReport
    from repro.obsv.prof.selftime import root_total_s

    try:
        snapshot = load_snapshot(path)
    except ValueError as error:
        raise SystemExit(f"profile: {error}")
    if snapshot.get("kind") == "profile":
        return ProfileReport(
            wall_clock_s=float(snapshot.get("wall_clock_s", 0.0)),
            spans=snapshot.get("spans", {}),
            flops=snapshot.get("flops", {}),
            span_flops=snapshot.get("span_flops", {}),
            memory=snapshot.get("memory", {}),
            memory_unmatched=snapshot.get("memory_unmatched", []),
            sampler=snapshot.get("sampler", {}),
            folded=snapshot.get("sampler", {}).get("folded", {}),
            config=snapshot.get("config", {}),
        )
    spans = snapshot.get("spans", {})
    if not spans:
        raise SystemExit(f"{path}: no span data to profile")
    profile = snapshot.get("profile", {})
    return ProfileReport(
        wall_clock_s=float(
            snapshot.get("wall_clock_s", 0.0) or root_total_s(spans)
        ),
        spans=spans,
        flops=profile.get("flops", {}),
        span_flops=profile.get("span_flops", {}),
        memory=profile.get("memory", {}),
        sampler=profile.get("sampler", {}),
    )


def _cmd_profile(args) -> int:
    if args.demo:
        report = _profile_demo(args)
    elif args.input:
        report = _profile_from_snapshot(args.input)
    else:
        raise SystemExit("profile needs an input snapshot or --demo")
    try:
        text = (
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
            if args.json
            else report.to_markdown(top=args.top)
        )
    except ValueError as error:  # a span snapshot without self times
        raise SystemExit(f"profile: {args.input}: {error}")
    if args.flamegraph:
        report.flamegraph_html(path=args.flamegraph)
        log.info("obsv.profile.flamegraph", path=args.flamegraph)
    if args.report_dir:
        paths = report.write(args.report_dir)
        log.info(
            "obsv.profile.bundle",
            **{key: str(value) for key, value in paths.items()},
        )
    _emit(text, args.out)
    return 0


def _cmd_ingest(args) -> int:
    directory = Path(args.dir)
    store_path = Path(args.store) if args.store else directory / (
        DEFAULT_STORE_NAME
    )
    with TelemetryStore(store_path) as store:
        summary = store.ingest_dir(directory, pattern=args.pattern)
    log.info("obsv.ingested", store=str(store_path), **summary)
    sys.stdout.write(
        f"ingested {summary['traces']} trace(s) / {summary['events']}"
        f" event(s) / {summary['snapshots']} snapshot(s) into"
        f" {store_path}\n"
    )
    return 0


def _cmd_query(args) -> int:
    with TelemetryStore(args.store) as store:
        filters = dict(
            kind=args.kind, episode=args.episode, loop=args.loop,
            run=args.run, name=args.name, label=args.label,
        )
        if args.field and args.agg:
            rows = store.aggregate(
                args.field, agg=args.agg, group_by=args.group_by, **filters
            )
            if args.group_by:
                header = [args.group_by, f"{args.agg}({args.field})"]
            else:
                header = [f"{args.agg}({args.field})"]
            text = export_csv(header, rows, args.csv)
            if args.csv is None:
                sys.stdout.write(text)
            return 0
        if args.field:
            values = store.series(args.field, **filters)
            if args.limit is not None:
                values = values[: args.limit]
            text = export_csv([args.field], ([v] for v in values), args.csv)
            if args.csv is None:
                sys.stdout.write(text)
            return 0
        events = store.events(limit=args.limit, **filters)
        lines = "".join(
            json.dumps(event, separators=(",", ":")) + "\n"
            for event in events
        )
        if args.csv is not None:
            raise SystemExit("--csv needs --field (raw events stay JSONL)")
        sys.stdout.write(lines)
    return 0


def _cmd_verify_artifacts(args) -> int:
    from repro.utils.serialization import (
        load_checkpoint,
        save_checkpoint,
        verify_checkpoint,
    )

    root = Path(args.dir)
    if not root.is_dir():
        raise SystemExit(f"not a directory: {root}")
    targets = sorted(root.rglob("*.npz"))
    if not targets:
        sys.stdout.write(f"no .npz checkpoints under {root}\n")
        return 0
    corrupt = 0
    legacy = 0
    lines = []
    for path in targets:
        report = verify_checkpoint(path)
        if not report.ok:
            corrupt += 1
        elif report.legacy:
            legacy += 1
            if args.upgrade:
                arrays, meta = load_checkpoint(path)
                save_checkpoint(path, arrays, meta)
                lines.append(f"{path}: legacy -> upgraded to checksummed")
                continue
        detail = f" ({report.reason})" if report.reason else ""
        lines.append(
            f"{path}: {report.status} "
            f"[{report.arrays} arrays, {report.size} bytes]{detail}"
        )
    lines.append(
        f"{len(targets)} checkpoint(s): {len(targets) - corrupt - legacy} ok,"
        f" {legacy} legacy, {corrupt} corrupt"
    )
    _emit("\n".join(lines) + "\n", args.out)
    if corrupt:
        return 1
    return 1 if (args.strict and legacy and not args.upgrade) else 0


def _cmd_watch(args) -> int:
    config = WatchConfig.from_env(
        **{fld: getattr(args, fld) for fld, _, _ in _WATCH_THRESHOLDS}
    )
    try:
        baseline = (
            None
            if args.baseline_metrics is None
            else load_snapshot(args.baseline_metrics, kind="metrics")
        )
        return watch_mod.watch_trace(
            args.trace,
            config=config,
            poll=args.poll,
            once=args.once,
            exit_on_alert=args.exit_on_alert,
            total_steps=args.total_steps,
            write_alerts=not args.no_write_alerts,
            idle_exit=args.idle_exit,
            on_alert=args.on_alert,
            baseline_metrics=baseline,
            drift_min_n=args.drift_min_n,
        )
    except ValueError as error:  # a bad baseline or a format-1 trace
        sys.stderr.write(f"watch: {error}\n")
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obsv",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fore = sub.add_parser(
        "forensics", help="per-episode post-mortem from a JSONL trace"
    )
    fore.add_argument("trace", help="JSONL trace file")
    fore.add_argument("--episode", help="analyse only this episode id")
    fore.add_argument(
        "--strike-fraction", type=float, default=0.5,
        help="strike threshold as a fraction of the attack budget",
    )
    fore.add_argument("--json", action="store_true", help="emit JSON")
    fore.add_argument("--strict", action="store_true",
                      help="fail on schema-invalid events")
    fore.add_argument("--out", help="write to this file instead of stdout")
    fore.set_defaults(fn=_cmd_forensics)

    repl = sub.add_parser(
        "replay", help="re-simulate recorded episodes and diff the traces"
    )
    repl.add_argument("trace", help="JSONL trace file")
    repl.add_argument("--episode", help="replay only this episode id")
    repl.add_argument(
        "--tolerance", type=_flag(knobs.number(0.0)), default=None,
        help="uniform absolute tolerance for every compared field",
    )
    repl.add_argument("--strict", action="store_true",
                      help="fail on schema-invalid events")
    repl.add_argument("--out", help="write to this file instead of stdout")
    repl.set_defaults(fn=_cmd_replay)

    dash = sub.add_parser(
        "dashboard", help="aggregate a run into one document"
    )
    dash.add_argument(
        "dir",
        help="run directory of *.jsonl traces, trace file, or telemetry"
             " store",
    )
    dash.add_argument("--html", action="store_true",
                      help="emit a self-contained HTML page")
    dash.add_argument("--out", help="write to this file instead of stdout")
    dash.set_defaults(fn=_cmd_dashboard)

    comp = sub.add_parser(
        "compare",
        help="statistical A/B comparison of two recorded runs",
    )
    comp.add_argument(
        "a", help="run A: JSONL trace, run directory, or telemetry store"
    )
    comp.add_argument(
        "b", nargs="?", default=None,
        help="run B: JSONL trace, run directory, or telemetry store"
             " (omitted with --snapshot)",
    )
    comp.add_argument(
        "--run-a", default=None,
        help="run label inside A (the REPRO_RUN_ID it was recorded under)",
    )
    comp.add_argument(
        "--run-b", default=None, help="run label inside B",
    )
    comp.add_argument(
        "--stat-seed", type=int, default=0,
        help="seed of the bootstrap/permutation RNG (default 0; a fixed"
             " seed makes every CI and p-value bit-reproducible)",
    )
    comp.add_argument(
        "--resamples", type=int, default=2000,
        help="bootstrap/permutation resamples (default 2000)",
    )
    comp.add_argument(
        "--confidence", type=float, default=0.95,
        help="bootstrap CI level (default 0.95)",
    )
    comp.add_argument(
        "--alpha", type=float, default=0.05,
        help="significance level before Holm correction (default 0.05)",
    )
    comp.add_argument(
        "--paired", choices=("auto", "yes", "no"), default="auto",
        help="pair episodes by seed (auto = when both sides ran the"
             " same unique seeds)",
    )
    comp.add_argument("--json", action="store_true", help="emit JSON")
    comp.add_argument(
        "--html", action="store_true",
        help="emit a self-contained HTML report",
    )
    comp.add_argument(
        "--snapshot", action="store_true",
        help="emit a metric snapshot of run A alone (the document"
             " `regress --metrics` and `watch --baseline-metrics` read)"
             " instead of comparing",
    )
    comp.add_argument("--out", help="write to this file instead of stdout")
    comp.set_defaults(fn=_cmd_compare)

    regr = sub.add_parser(
        "regress", help="compare bench telemetry against a baseline"
    )
    regr.add_argument(
        "current",
        help="current BENCH_telemetry.json (or telemetry store); with"
             " --metrics: a metric snapshot JSON, trace, run directory,"
             " or store",
    )
    regr.add_argument(
        "baseline",
        help="baseline BENCH_telemetry.json (or telemetry store); with"
             " --metrics: a committed metric snapshot, e.g."
             " benchmarks/BASELINE_metrics.json",
    )
    regr.add_argument(
        "--max-ratio", type=_flag(knobs.number(0.0, above=True)),
        default=regress_mod.RegressionThresholds.wall_clock_ratio,
        help="wall-clock / span mean ratio treated as a breach"
             " (default %(default)s)",
    )
    regr.add_argument(
        "--metrics", action="store_true",
        help="gate scientific episode metrics against the baseline's"
             " bootstrap CIs instead of span timings",
    )
    regr.add_argument(
        "--min-n", type=int, default=5,
        help="--metrics: skip samples smaller than this (default 5)",
    )
    regr.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable breach report",
    )
    regr.set_defaults(fn=_cmd_regress)

    prof = sub.add_parser(
        "profile",
        help="self-time / FLOP / allocation report and flamegraph",
    )
    prof.add_argument(
        "input", nargs="?", default=None,
        help="PROFILE_report.json, BENCH_telemetry.json, or telemetry"
             " store to analyse offline",
    )
    prof.add_argument(
        "--demo", action="store_true",
        help="profile a short in-process episode workload instead of a"
             " snapshot",
    )
    prof.add_argument(
        "--episodes", type=int, default=3,
        help="episodes the --demo workload runs (default 3)",
    )
    prof.add_argument(
        "--hz", type=_flag(knobs.TABLE["REPRO_PROF_HZ"][0]), default=0.0,
        help="--demo sampling-profiler rate (0 = spans only; try 97)",
    )
    prof.add_argument(
        "--mem", type=knobs.parse_mem_spec, default=False,
        help="--demo allocation tracking: span names, or 'all'",
    )
    prof.add_argument(
        "--top", type=int, default=15,
        help="rows per table in the markdown report (default 15)",
    )
    prof.add_argument(
        "--flamegraph", metavar="PATH",
        help="also write a self-contained HTML flamegraph to PATH",
    )
    prof.add_argument(
        "--report-dir", metavar="DIR",
        help="also write the full PROFILE_* bundle into DIR",
    )
    prof.add_argument("--json", action="store_true", help="emit JSON")
    prof.add_argument("--out", help="write to this file instead of stdout")
    prof.set_defaults(fn=_cmd_profile)

    ing = sub.add_parser(
        "ingest", help="load a run directory into a SQLite telemetry store"
    )
    ing.add_argument("dir", help="directory holding *.jsonl traces")
    ing.add_argument(
        "--store", help=f"store path (default <dir>/{DEFAULT_STORE_NAME})"
    )
    ing.add_argument(
        "--pattern", default="*.jsonl", help="trace filename glob"
    )
    ing.set_defaults(fn=_cmd_ingest)

    quer = sub.add_parser(
        "query", help="filter/aggregate events in a telemetry store"
    )
    quer.add_argument("store", help="telemetry store path")
    quer.add_argument("--kind", help="event kind (tick, update_health, ...)")
    quer.add_argument("--episode", help="episode id filter")
    quer.add_argument("--loop", help="training-loop label filter")
    quer.add_argument("--run", type=int, help="ingested run id filter")
    quer.add_argument(
        "--name", help="span/profile name filter (e.g. episode/world.tick)"
    )
    quer.add_argument(
        "--label", default=None,
        help="run label filter (the REPRO_RUN_ID the trace was recorded"
             " under)",
    )
    quer.add_argument(
        "--field", help="numeric event field to extract/aggregate"
    )
    quer.add_argument(
        "--agg", choices=("count", "mean", "min", "max", "sum"),
        help="aggregate the field instead of listing values",
    )
    quer.add_argument(
        "--group-by",
        choices=GROUP_KEYS,
        help="group the aggregate by this key (provenance keys label /"
             " git_sha / config_hash join each event to its run row)",
    )
    quer.add_argument("--limit", type=int, help="cap returned rows")
    quer.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the CSV to PATH (needs --field)",
    )
    quer.set_defaults(fn=_cmd_query)

    ver = sub.add_parser(
        "verify-artifacts",
        help="audit .npz checkpoints for corruption (exit 1 on any)",
    )
    ver.add_argument(
        "dir", nargs="?", default="artifacts",
        help="directory to scan recursively (default artifacts/)",
    )
    ver.add_argument(
        "--strict", action="store_true",
        help="also fail on legacy (pre-checksum) checkpoints",
    )
    ver.add_argument(
        "--upgrade", action="store_true",
        help="re-save loadable legacy checkpoints with checksums",
    )
    ver.add_argument("--out", help="write the report to this file")
    ver.set_defaults(fn=_cmd_verify_artifacts)

    wat = sub.add_parser(
        "watch", help="live-monitor a growing training trace"
    )
    wat.add_argument(
        "trace",
        help="JSONL trace file being written, or a run directory of"
             " traces (multiplexed into one view)",
    )
    wat.add_argument(
        "--poll", type=_flag(knobs.number(watch_mod.MIN_POLL_S)),
        default=watch_mod.DEFAULT_POLL_S,
        help=f"seconds between polls, >= {watch_mod.MIN_POLL_S}"
             " (default %(default)s)",
    )
    wat.add_argument(
        "--once", action="store_true",
        help="single pass over the current contents, then exit",
    )
    wat.add_argument(
        "--exit-on-alert", action="store_true",
        help="exit nonzero as soon as any watchdog rule fires",
    )
    wat.add_argument(
        "--total-steps", type=int, default=None,
        help="planned env steps (enables the ETA readout)",
    )
    wat.add_argument(
        "--idle-exit", type=float, default=None,
        help="stop after this many seconds without new events",
    )
    wat.add_argument(
        "--no-write-alerts", action="store_true",
        help="do not append alert events to the trace file",
    )
    wat.add_argument(
        "--on-alert", metavar="CMD", default=None,
        help="shell command run per alert (checkpoint-on-alert hook);"
             " sees REPRO_ALERT_* env vars",
    )
    wat.add_argument(
        "--baseline-metrics", metavar="FILE", default=None,
        help="metric snapshot (obsv compare --snapshot), or a store"
             " holding one, to annotate live per-cell drift against",
    )
    wat.add_argument(
        "--drift-min-n", type=int, default=watch_mod.DRIFT_MIN_N,
        help="live episodes per cell before drift is judged",
    )
    for fld, parse, text in _WATCH_THRESHOLDS:
        wat.add_argument(
            "--" + fld.replace("_", "-"), type=_flag(parse),
            help=f"{text} (default {getattr(WatchConfig(), fld):g})",
        )
    wat.set_defaults(fn=_cmd_watch)
    for command in (parser, *sub.choices.values()):
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
