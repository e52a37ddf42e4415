"""Command-line front end: regenerate the paper's experiments.

Usage::

    python -m repro fig1                 # sample schedule diagram
    python -m repro fig2                 # average power comparison
    python -m repro sweep-schedulers     # ablation A-sched
    python -m repro sweep-bursts         # ablation A-burst
    python -m repro campaign ...         # declarative parameter-grid campaigns
    python -m repro analytic ...         # closed-form predictors, no simulator
    python -m repro crossval ...         # sim-vs-model agreement gate
    python -m repro report STORE -o FILE # self-contained HTML dashboard
    python -m repro trace                # run a scenario, summarise its trace
    python -m repro --version
    python -m repro --help

Every subcommand accepts the observability flags ``--trace FILE``
(JSONL event stream), ``--chrome-trace FILE`` (Perfetto-loadable),
``--profile`` (kernel wall-clock profile), ``--metrics`` (registry
summary table) and ``--timeseries FILE`` (in-run sampled counters at
``--timeseries-interval`` simulated seconds).  Without any of them the
run is bit-identical to an un-instrumented one.

Input outside a spec field's domain ends in one ``error: ...`` line on
stderr and exit status 2, before anything runs.

The sweep commands and ``campaign`` run through the
:mod:`repro.exp` engine: add ``--jobs N`` to fan runs out across a
worker pool and ``--store DIR`` to cache completed runs on disk, so an
interrupted or repeated invocation only computes what is missing.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import package_version
from repro._domain import SpecError, coerce
from repro.analytic import PREDICTORS
from repro.analytic.crossval import DEFAULT_TOLERANCE, SUITES, ToleranceContract, run_crossval
from repro.analytic.models import predictor_entry
from repro.analytic.surrogate import SCORE_MODES, refine_campaign
from repro.build import WorldBuilder
from repro.build.presets import (
    city_grid_world,
    fleet_hotspot_world,
    hotspot_world,
    unscheduled_world,
)
from repro.core.scheduling import scheduler_names
from repro.exp import (
    DEFAULT_FIELDS,
    CampaignReport,
    CampaignSpec,
    ResultStore,
    aggregate,
    campaign_payload,
    dumps_strict,
    recorded_run,
    run_campaign,
    scenario_entries,
    scenario_entry,
    scenario_names,
    summary_rows,
    write_csv,
)
from repro.metrics import format_table, render_schedule_timeline
from repro.metrics.energy import wnic_power_saving_fraction
from repro.obs import ObsSession, radio_dwell_table, top_kinds_table


def _finish_obs(obs: ObsSession | None) -> None:
    """Flush files and print any requested obs reports."""
    if obs is None:
        return
    obs.close()
    if obs.profiler is not None:
        print()
        print(obs.profiler.report())
    if obs.registry is not None and obs.registry_requested:
        print()
        print(obs.registry.report())


def _emit_rows(
    args: argparse.Namespace,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    json_payload: Any,
    title: str,
    sort_json: bool = False,
) -> None:
    """Shared row sink for sweeps and campaigns: table or ``--json``.

    ``sort_json`` sorts object keys — campaigns need it so records
    loaded from the cache (key-sorted JSON) and freshly computed ones
    (insertion order) serialise identically; the sweeps keep their
    original field order.
    """
    if getattr(args, "json", False):
        print(dumps_strict(json_payload, indent=2, sort_keys=sort_json))
    else:
        print(format_table(headers, rows, title=title))


def _report_failures(report: CampaignReport) -> None:
    """One stderr line per failed run: which run, which exception."""
    for failure in report.failures():
        error = failure.error or {}
        print(
            f"failed: {failure.spec.label}: "
            f"{error.get('type', '?')}: {error.get('message', '')} "
            f"(attempts={error.get('attempts', 1)})",
            file=sys.stderr,
        )
    if report.failed:
        print(
            f"note: {report.failed} failed run(s) quarantined; "
            "a re-invocation with the same --store retries only those",
            file=sys.stderr,
        )


def _check_points(spec: CampaignSpec) -> None:
    """Build every grid point's world once, before any run is dispatched,
    so that a bad value raises :class:`SpecError` here, not in a worker."""
    factory = scenario_entry(spec.scenario).spec_factory
    if factory is None:
        return
    signature = inspect.signature(factory)
    for params in spec.points():
        try:
            signature.bind(**params, seed=spec.seeds[0])
        except TypeError as exc:
            raise SpecError(f"scenario {spec.scenario!r}: {exc}") from None
        factory(**params, seed=spec.seeds[0])


def _run_campaign_command(
    args: argparse.Namespace,
    spec: CampaignSpec,
    run=run_campaign,
    shared_obs: bool = False,
    **options: Any,
):
    """Run a campaign-shaped command through ``run`` (:func:`run_campaign`
    or ``run_crossval``): check every grid point, open the obs flags' one
    session when ``shared_obs`` (forcing ``--jobs 1``), open and close the
    ``--store``, and print the status and failure lines to stderr."""
    _check_points(spec)
    obs = ObsSession.from_args(args) if shared_obs else None
    jobs = args.jobs
    if obs is not None:
        if jobs != 1:
            flags = ", ".join(
                "--" + name.replace("_", "-")
                for name in ObsSession.ARG_NAMES
                if getattr(args, name)
            )
            print(
                f"note: forcing --jobs 1 (in-process execution is needed for {flags})",
                file=sys.stderr,
            )
            jobs = 1
        options["obs"] = obs
    store = ResultStore(args.store) if args.store else None
    try:
        report = run(spec, store=store, jobs=jobs, **options)
    finally:
        if store is not None:
            store.close()
    # run_crossval wraps its simulator campaign in a CrossvalReport.
    campaign = getattr(report, "campaign", report)
    print(campaign.status_line(), file=sys.stderr)
    _report_failures(campaign)
    _finish_obs(obs)
    return report


def _run_world(obs: ObsSession | None, label: str, spec):
    """Build and run ``spec`` as run ``label`` of ``obs``, as a campaign
    runs a scenario on a shared session."""
    return recorded_run(obs, label, lambda: WorldBuilder(spec).run(obs=obs))


def _figure_world(args: argparse.Namespace, switch_s: float):
    """The figures' Hotspot world: Bluetooth quality drops from 1.0 to
    0.2 at ``switch_s``, which forces the switchover to WLAN."""
    return hotspot_world(
        n_clients=args.clients,
        duration_s=args.duration,
        scheduler=args.scheduler,
        bluetooth_quality_script=[(0.0, 1.0), (switch_s, 0.2)],
        seed=args.seed,
    )


def cmd_fig1(args: argparse.Namespace) -> int:
    obs = ObsSession.from_args(args)
    result = _run_world(obs, "fig1/hotspot", _figure_world(args, args.duration * 2 / 3))
    print(render_schedule_timeline(result.radios, 0.0, args.duration, columns=96))
    print(f"\nQoS maintained: {result.qos_maintained()}")
    _finish_obs(obs)
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    obs = ObsSession.from_args(args)
    wlan, bt = [
        _run_world(
            obs,
            f"fig2/unscheduled-{interface}",
            unscheduled_world(
                interface, n_clients=args.clients, duration_s=args.duration,
                seed=args.seed,
            ),
        )
        for interface in ("wlan", "bluetooth")
    ]
    hotspot = _run_world(obs, "fig2/hotspot", _figure_world(args, args.duration * 3 / 4))
    saving = wnic_power_saving_fraction(
        wlan.mean_wnic_power_w(), hotspot.mean_wnic_power_w()
    )
    configurations = (wlan, bt, hotspot)
    if args.json:
        payload = {
            "clients": args.clients,
            "duration_s": args.duration,
            "seed": args.seed,
            "configurations": [
                {
                    "label": r.label,
                    "wnic_power_w": r.mean_wnic_power_w(),
                    "device_power_w": r.mean_total_power_w(),
                    "qos_maintained": r.qos_maintained(),
                }
                for r in configurations
            ],
            "wnic_saving_fraction": saving,
        }
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            [r.label, r.mean_wnic_power_w(), r.mean_total_power_w(), r.qos_maintained()]
            for r in configurations
        ]
        print(
            format_table(
                ["configuration", "WNIC power (W)", "device power (W)", "QoS"],
                rows,
                title=f"Figure 2 ({args.clients} clients, {args.duration:.0f}s)",
            )
        )
        print(f"\nWNIC saving vs unscheduled WLAN: {saving * 100:.1f}%  [paper: 97%]")
    _finish_obs(obs)
    return 0


#: The ablation sweeps over the Hotspot scenario, by command: the grid
#: axis, its values, fixed parameters beyond the workload's, derived
#: parameters, the axis's table header and the table title.
_SWEEPS = {
    "sweep-schedulers": (
        "scheduler", scheduler_names, {}, None, "scheduler", "Scheduler sweep"
    ),
    "sweep-bursts": (
        "burst_bytes",
        lambda: [10_000, 20_000, 40_000, 80_000, 160_000],
        {"interfaces": ["wlan"], "server_prefetch_s": 60.0},
        lambda p: {"client_buffer_bytes": int(p["burst_bytes"] * 2.4)},
        "min burst (B)",
        "Burst-size sweep (WLAN-only)",
    ),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    axis, values, fixed, derive, header, title = _SWEEPS[args.command]
    spec = CampaignSpec(
        name=args.command,
        scenario="hotspot",
        base={"n_clients": args.clients, "duration_s": args.duration, **fixed},
        grid={axis: values()},
        derive=derive,
        seeds=[args.seed],
    )
    report = _run_campaign_command(args, spec, shared_obs=True)
    rows = [
        [r.params[axis], r.record["wnic_power_w"], r.record["qos_maintained"]]
        for r in report.results
        if r.ok
    ]
    _emit_rows(
        args,
        headers=[header, "WNIC power (W)", "QoS"],
        rows=rows,
        json_payload=[
            {axis: value, "wnic_power_w": power, "qos_maintained": qos}
            for value, power, qos in rows
        ],
        title=title,
    )
    return 0


def _parse_value(text: str) -> Any:
    """Parse a CLI parameter value: JSON, else a float (``inf``, ``nan``),
    else the bare string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_axis(option: str) -> tuple[str, List[Any]]:
    """Parse ``--param name=v1,v2,...`` (or ``name=[json,list]``)."""
    name, sep, values = option.partition("=")
    if not sep or not name or not values:
        raise argparse.ArgumentTypeError(
            f"expected NAME=V1,V2,... got {option!r}"
        )
    if values.lstrip().startswith("["):
        parsed = _parse_value(values)
        if not isinstance(parsed, list):
            raise argparse.ArgumentTypeError(f"{option!r}: not a JSON list")
        return name, parsed
    return name, [_parse_value(v) for v in values.split(",")]


def _split_setting(option: str) -> tuple[str, str]:
    """Split ``--set name=value`` into the name and the value's text."""
    name, sep, value = option.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {option!r}")
    return name, value


def _parse_int_list(text: str) -> List[int]:
    """Parse ``1,2,4`` into a list of ints."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N1,N2,... got {text!r}")


def _parse_float_list(text: str) -> List[float]:
    """Parse ``128e3,6e6`` into a list of floats."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected F1,F2,... got {text!r}")


def cmd_campaign(args: argparse.Namespace) -> int:
    grid: Dict[str, List[Any]] = {}
    for option in args.param or []:
        name, values = _parse_axis(option)
        grid[name] = values
    base: Dict[str, Any] = {}
    for option in args.set or []:
        name, text = _split_setting(option)
        base[name] = _parse_value(text)
    if args.timeseries is not None and not args.store:
        print(
            "error: --timeseries streams per-run samples into the result "
            "store; add --store DIR",
            file=sys.stderr,
        )
        return 2
    spec = CampaignSpec(
        name=args.name or f"campaign-{args.scenario}",
        scenario=args.scenario,
        base=base,
        grid=grid,
        seeds=[args.seed + i for i in range(args.seeds)],
        collect_metrics=args.metrics,
        timeseries_interval_s=args.timeseries,
    )
    report = _run_campaign_command(
        args,
        spec,
        refresh=args.fresh,
        run_timeout_s=args.run_timeout,
        retries=args.retries,
        retry_backoff_s=args.retry_backoff,
    )
    summaries = aggregate(report.results)
    fields = (
        [f.strip() for f in args.fields.split(",") if f.strip()]
        if args.fields
        else None
    )
    if args.csv:
        write_csv(
            args.csv,
            summaries,
            spec.grid_keys,
            fields=fields or DEFAULT_FIELDS,
        )
        print(f"wrote {args.csv}", file=sys.stderr)
    headers, rows = summary_rows(
        summaries, spec.grid_keys, fields=fields or DEFAULT_FIELDS
    )
    _emit_rows(
        args,
        headers=headers,
        rows=rows,
        json_payload=campaign_payload(report, summaries),
        title=f"Campaign {spec.name} "
        f"({spec.scenario}, {len(spec.seeds)} seed(s))",
        sort_json=True,
    )
    return 0


def _flatten_record(record: Dict[str, Any], prefix: str = "") -> List[List[object]]:
    """Prediction record as ``field, value`` rows (nested dicts dotted)."""
    rows: List[List[object]] = []
    for name, value in record.items():
        path = f"{prefix}{name}"
        if isinstance(value, dict):
            rows.extend(_flatten_record(value, prefix=f"{path}."))
        else:
            rows.append([path, value])
    return rows


def cmd_analytic(args: argparse.Namespace) -> int:
    """List or evaluate the closed-form predictors (no simulator)."""
    if not args.predictor:
        if args.json:
            payload = [
                {
                    "name": entry.name,
                    "description": entry.description,
                    "params": entry.params_type().describe(),
                }
                for entry in PREDICTORS.values()
            ]
            print(dumps_strict(payload, indent=2, sort_keys=True))
            return 0
        rows = [
            [entry.name, entry.params_type.__name__, entry.description]
            for entry in PREDICTORS.values()
        ]
        print(
            format_table(
                ["predictor", "params", "description"],
                rows,
                title="Closed-form predictors (repro.analytic)",
            )
        )
        return 0
    entry = predictor_entry(args.predictor)
    overrides: Dict[str, Any] = {}
    for option in args.set or []:
        name, text = _split_setting(option)
        overrides[name] = coerce(entry.params_type, name, text)
    record = entry.evaluate(overrides)
    if args.json:
        print(dumps_strict(record, indent=2, sort_keys=True))
        return 0
    print(
        format_table(
            ["field", "value"],
            _flatten_record(record),
            title=f"{args.predictor} prediction",
        )
    )
    return 0


def cmd_crossval(args: argparse.Namespace) -> int:
    """Cross-validate the analytic models against the simulator."""
    import os

    # Only the flags given go on, so each suite's defaults live in its
    # spec builder alone.
    given = {
        "name": args.name or None,
        "n_stations": args.n_clients,
        "packet_bytes": args.packet_bytes,
        "first_seed": args.seed,
        "n_seeds": args.seeds,
    }
    screen_only = {
        "--surrogate-metric": args.surrogate_metric,
        "--surrogate-mode": args.surrogate_mode,
        "--surrogate-target": args.surrogate_target,
    }
    # Every flag given where it cannot act; the first one ends the run.
    errors = [
        f"{flag} needs --surrogate-fraction"
        for flag, value in screen_only.items()
        if value is not None and args.surrogate_fraction is None
    ]
    if args.surrogate_target is not None and args.surrogate_mode != "target":
        errors.append("--surrogate-target needs --surrogate-mode target")
    if args.suite == "unap":
        psm_only = {
            "--listen": args.listen,
            "--direction": args.direction,
            "--light-duration": args.light_duration,
            "--surrogate-fraction": args.surrogate_fraction,
        }
        errors += [
            f"{flag} applies to --suite psm only"
            for flag, value in psm_only.items()
            if value is not None
        ]
        if args.offered is not None and len(args.offered) != 1:
            errors.append("--offered takes one value with --suite unap")
        given.update(
            offered_load_bps=args.offered[0] if args.offered else None,
            duration_s=args.saturated_duration,
        )
    else:
        given.update(
            offered_load_bps=args.offered,
            listen_interval=args.listen,
            direction=args.direction,
            light_duration_s=args.light_duration,
            saturated_duration_s=args.saturated_duration,
        )
    if errors:
        print(f"error: {errors[0]}", file=sys.stderr)
        return 2
    build, metrics = SUITES[args.suite]
    spec = build(**{name: value for name, value in given.items() if value is not None})
    contract = (
        ToleranceContract(
            relative={m.name: args.tolerance for m in metrics}
        )
        if args.tolerance is not None
        else DEFAULT_TOLERANCE
    )
    surrogate_payload: Optional[Dict[str, Any]] = None
    if args.surrogate_fraction is not None:
        screened = {m.name: m for m in metrics}[args.surrogate_metric or "throughput_bps"]
        refinement = refine_campaign(
            spec,
            predictor=screened.predictor,
            metric=screened.model_field,
            mode=args.surrogate_mode or "gradient",
            target=args.surrogate_target,
            fraction=args.surrogate_fraction,
        )
        surrogate_payload = refinement.as_payload()
        spec = refinement.spec
        print(
            f"surrogate screen: {surrogate_payload['dispatched']}/"
            f"{surrogate_payload['grid_points']} grid points dispatched "
            f"({surrogate_payload['dispatch_fraction'] * 100:.0f}%)",
            file=sys.stderr,
        )
    report = _run_campaign_command(
        args,
        spec,
        run=run_crossval,
        contract=contract,
        metrics=metrics,
        refresh=args.fresh,
    )
    payload = report.as_payload()
    if surrogate_payload is not None:
        payload["surrogate"] = surrogate_payload
    if args.store:
        artifact = os.path.join(args.store, "crossval.json")
        with open(artifact, "w", encoding="utf-8") as stream:
            stream.write(dumps_strict(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {artifact}", file=sys.stderr)
    headers, rows = report.table_rows()
    _emit_rows(
        args,
        headers=headers,
        rows=rows,
        json_payload=payload,
        title=f"Cross-validation {spec.name} "
        f"({len(spec.seeds)} seed(s), tolerance "
        f"{(contract.limit_for(metrics[0].name) or 0) * 100:.0f}%)",
        sort_json=True,
    )
    if not report.ok:
        for point, residual in report.violations():
            print(
                f"violation: {point.params} {residual.metric}: "
                f"model {residual.model:.5g} vs sim {residual.sim:.5g} "
                f"({residual.rel_err * 100:.2f}% > "
                f"{(residual.limit or 0) * 100:.0f}%)",
                file=sys.stderr,
            )
        failed_points = [p for p in report.points if p.failed]
        if failed_points:
            print(
                f"{len(failed_points)} grid point(s) had failed simulator "
                "runs",
                file=sys.stderr,
            )
        return 1
    worst = report.worst()
    if worst is not None and worst.limit:
        print(
            f"agreement: worst residual {worst.metric} "
            f"{worst.rel_err * 100:.2f}% (limit {worst.limit * 100:.0f}%)",
            file=sys.stderr,
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a campaign store as one self-contained HTML dashboard."""
    from repro.exp.report import write_report

    summary = write_report(args.store_dir, args.out, title=args.title)
    if args.json:
        print(dumps_strict(summary, indent=2))
        return 0
    print(
        f"wrote {summary['path']} ({summary['bytes']} bytes): "
        f"{summary['runs']} run(s), {summary['failed']} failed, "
        f"{summary['timeseries']} timeseries, "
        f"{summary['heartbeats']} heartbeat(s)"
    )
    return 0


def _parse_grid(value: str) -> tuple:
    """Parse ``--grid ROWSxCOLS``; the spec checks the dimensions."""
    try:
        rows, cols = value.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects ROWSxCOLS (e.g. 3x3), got {value!r}"
        ) from None


def _fleet_spec_from_args(args: argparse.Namespace):
    if args.grid:
        rows, cols = args.grid
        return city_grid_world(
            n_clients=args.clients,
            grid_rows=rows,
            grid_cols=cols,
            duration_s=args.duration,
            scheduler=args.scheduler,
            utilisation_cap=args.utilisation_cap,
            seed=args.seed,
        )
    return fleet_hotspot_world(
        n_clients=args.clients,
        n_aps=args.aps,
        duration_s=args.duration,
        scheduler=args.scheduler,
        utilisation_cap=args.utilisation_cap,
        seed=args.seed,
    )


def _print_fleet_record(record: Dict[str, Any], shards: int) -> None:
    """The fleet summary record as cell table, handoff and power lines."""
    cell_rows = [
        [name, stats["clients"], stats["adoptions"], stats["load_fraction"],
         stats["bursts_served"], stats["bursts_failed"]]
        for name, stats in record["cells"].items()
    ]
    heading = "Sharded fleet" if shards else "Fleet"
    sharding = f", {shards} shard(s)" if shards else ""
    print(
        format_table(
            ["cell", "clients", "adoptions", "load", "bursts", "failed"],
            cell_rows,
            title=f"{heading} {record['label']} "
            f"({record['n_aps']} APs, {record['n_clients']} clients, "
            f"{record['duration_s']:.0f}s{sharding})",
        )
    )
    print(
        f"\nhandoffs: {record['handoffs']} "
        f"(declined {record['handoffs_declined']}, "
        f"suspended {record['handoff_suspensions']}), "
        f"association churn: {record['association_churn']}"
    )
    print(
        f"mean WNIC power: {record['wnic_power_w']:.4f} W, "
        f"QoS maintained: {record['qos_maintained']}"
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run the multi-AP fleet scenario and summarise roaming + energy."""
    spec = _fleet_spec_from_args(args)
    obs = None
    if args.shards:
        from repro.shard import run_sharded_fleet

        record = run_sharded_fleet(
            spec,
            shards=args.shards,
            store_dir=args.store,
            metrics=bool(args.metrics),
        )["record"]
    else:
        obs = ObsSession.from_args(args)
        label = "fleet/city-grid" if args.grid else "fleet/fleet-hotspot"
        record = _run_world(obs, label, spec).summary_record()
    if args.json:
        print(dumps_strict(record, indent=2))
    else:
        _print_fleet_record(record, args.shards)
        if args.shards and args.store:
            print(f"store: {args.store} (merged.json, shards/, progress.jsonl)")
    _finish_obs(obs)
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List registered scenarios with their spec-introspected parameters."""
    entries = (
        [scenario_entry(args.scenario)] if args.scenario else scenario_entries()
    )
    if args.json:
        print(dumps_strict([entry.describe() for entry in entries], indent=2))
        return 0
    for index, entry in enumerate(entries):
        if index:
            print()
        tag = " (declarative spec)" if entry.spec_factory is not None else ""
        print(f"{entry.name}{tag}")
        if entry.description:
            print(f"  {entry.description}")
        for parameter in entry.parameters:
            annotation = f": {parameter.annotation}" if parameter.annotation else ""
            print(
                f"    {parameter.name}{annotation} = {parameter.default_repr()}"
            )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the hotspot scenario fully traced and summarise the stream."""
    # The trace subcommand always collects metrics (they feed the top-N
    # table); the registry report itself still hinges on --metrics.
    obs = ObsSession(
        trace_path=args.trace,
        chrome_trace_path=args.chrome_trace,
        profile=args.profile,
        collect_metrics=True,
    )
    obs.registry_requested = args.metrics
    result = _run_world(obs, "trace/hotspot", _figure_world(args, args.duration * 3 / 4))
    print(top_kinds_table(obs.registry, top_n=args.top))
    print()
    print(radio_dwell_table(result.radios))
    _finish_obs(obs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="experiment seed")
    shared.add_argument(
        "--scheduler",
        default="edf",
        choices=scheduler_names(),
        help="burst scheduler for the Hotspot",
    )
    shared.add_argument(
        "--trace",
        metavar="FILE",
        help="stream every trace event to FILE as JSON lines",
    )
    shared.add_argument(
        "--chrome-trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON (Perfetto-loadable) to FILE",
    )
    shared.add_argument(
        "--profile",
        action="store_true",
        help="profile the simulation kernel (per-event-kind wall-clock)",
    )
    shared.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics-registry summary table after the run",
    )
    shared.add_argument(
        "--timeseries",
        metavar="FILE",
        help="sample in-run counters (energy, sleep occupancy, backlog, "
        "kernel rate) to FILE as columnar JSON lines",
    )
    shared.add_argument(
        "--timeseries-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="sampling cadence for --timeseries, in simulated seconds",
    )
    # A separate parent for workload sizing: parents= shares the action
    # objects by reference, so a subparser that wants different defaults
    # (fleet: 24 clients, 120 s) must add its own copies rather than
    # set_defaults() on the shared actions — that would mutate every
    # other subcommand's defaults too.
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument(
        "--clients", type=int, default=3, help="number of clients"
    )
    workload.add_argument(
        "--duration", type=float, default=60.0, help="simulated seconds"
    )
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = in-process; results are identical)",
    )
    pool.add_argument(
        "--store",
        metavar="DIR",
        help="cache completed runs in DIR/results.jsonl and resume from it",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Power Saving Techniques for Wireless LANs' (DATE 2005)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "fig1",
        parents=[shared, workload],
        help="render the sample schedule (paper Figure 1)",
    )
    sub.add_parser(
        "fig2",
        parents=[shared, workload, json_flag],
        help="average power comparison (paper Figure 2)",
    )
    sub.add_parser(
        "sweep-schedulers",
        parents=[shared, workload, json_flag, pool],
        help="scheduler ablation",
    )
    sub.add_parser(
        "sweep-bursts",
        parents=[shared, workload, json_flag, pool],
        help="burst-size ablation",
    )
    campaign = sub.add_parser(
        "campaign",
        parents=[json_flag, pool],
        help="run a declarative parameter-grid campaign "
        "(cached, resumable, parallel)",
        description="Expand a parameter grid over a named scenario, run "
        "every (point, seed) combination across a worker pool, cache "
        "completed runs by content hash, and aggregate mean/stdev/CI "
        "across seeds.  Example: repro campaign --scenario hotspot "
        "--param burst_bytes=20000,40000 --param n_clients=1,2 "
        "--set duration_s=20 --seeds 3 --jobs 4 --store .campaigns/demo",
    )
    campaign.add_argument(
        "--scenario",
        default="hotspot",
        choices=scenario_names(),
        help="registered scenario to sweep",
    )
    campaign.add_argument(
        "--param",
        action="append",
        metavar="NAME=V1,V2,...",
        help="grid axis (repeatable); values parse as JSON when possible",
    )
    campaign.add_argument(
        "--set",
        action="append",
        metavar="NAME=VALUE",
        help="fixed scenario parameter (repeatable)",
    )
    campaign.add_argument(
        "--seed", type=int, default=0, help="first seed of the replication set"
    )
    campaign.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help="seeds per grid point (seed, seed+1, ...); statistics span them",
    )
    campaign.add_argument("--name", help="campaign name (labels and artifacts)")
    campaign.add_argument(
        "--fields",
        metavar="F1,F2",
        help="record fields to aggregate in the table/CSV "
        "(default: wnic_power_w,device_power_w)",
    )
    campaign.add_argument(
        "--csv", metavar="FILE", help="also write the aggregated grid as CSV"
    )
    campaign.add_argument(
        "--metrics",
        action="store_true",
        help="collect a per-run metrics snapshot and merge it per grid point",
    )
    campaign.add_argument(
        "--fresh",
        action="store_true",
        help="ignore cached results (recompute and overwrite the store)",
    )
    campaign.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts per failing run before it is quarantined",
    )
    campaign.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock budget; an over-budget run fails with "
        "a timeout envelope (POSIX main thread only)",
    )
    campaign.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="base of the exponential backoff slept between attempts",
    )
    campaign.add_argument(
        "--timeseries",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sample an in-run timeseries every SECONDS of simulated time "
        "per run, streamed to timeseries/<run key>.jsonl in the store "
        "(requires --store)",
    )
    analytic = sub.add_parser(
        "analytic",
        parents=[json_flag],
        help="evaluate the closed-form predictors (no simulator)",
        description="List the registered closed-form predictors, or "
        "evaluate one at a parameter point.  Example: repro analytic "
        "psm-energy --set n_stations=2 --set offered_load_bps=6e6 --json",
    )
    analytic.add_argument(
        "predictor",
        nargs="?",
        help="predictor to evaluate (omit to list them all)",
    )
    analytic.add_argument(
        "--set",
        action="append",
        metavar="NAME=VALUE",
        help="model parameter override (repeatable); values parse as JSON",
    )
    crossval = sub.add_parser(
        "crossval",
        parents=[json_flag, pool],
        help="cross-validate the analytic models against the simulator",
        description="Run a PSM parameter grid through both the simulator "
        "and the closed-form predictors, compare aggregate throughput and "
        "per-station WNIC power point by point, and fail (exit 1) when "
        "any relative error exceeds the tolerance contract.  Predictions "
        "are cached in the --store next to the runs, and --surrogate-"
        "fraction pre-screens the grid with the model so only the "
        "interesting points are simulated.  --suite unap swaps in the "
        "unap-hotspot grid (power_policy unap vs cam) judged by the "
        "unap-energy predictor.  Example: repro crossval "
        "--n-clients 1,2 --offered 128e3,6e6 --listen 1 --seeds 2 "
        "--store .campaigns/crossval",
    )
    crossval.add_argument(
        "--suite",
        default="psm",
        choices=tuple(SUITES),
        help="which sim-vs-model suite to run (default: psm)",
    )
    crossval.add_argument(
        "--n-clients",
        type=_parse_int_list,
        metavar="N1,N2,...",
        help="station-count axis (default: 1,2 for psm; 4 for unap)",
    )
    crossval.add_argument(
        "--offered",
        type=_parse_float_list,
        metavar="B1,B2,...",
        help="per-station offered load axis, bits/s (default: 128e3,6e6 "
        "for psm; 256e3 for unap, which takes one value)",
    )
    crossval.add_argument(
        "--listen",
        type=_parse_int_list,
        metavar="L1,L2,...",
        help="listen-interval axis, psm suite only (default: 1,2)",
    )
    crossval.add_argument(
        "--direction",
        choices=("downlink", "uplink"),
        help="traffic direction, psm suite only (default: downlink)",
    )
    crossval.add_argument(
        "--packet-bytes", type=int, help="payload per frame (default: 1000)"
    )
    crossval.add_argument(
        "--seed", type=int, help="first seed of the replication set (default: 0)"
    )
    crossval.add_argument(
        "--seeds", type=int, metavar="N", help="seeds per point (default: 2)"
    )
    crossval.add_argument(
        "--light-duration",
        type=float,
        metavar="SECONDS",
        help="run length for unsaturated points, psm suite only "
        "(Poisson noise ~ 1/sqrt(T); default: 30)",
    )
    crossval.add_argument(
        "--saturated-duration",
        type=float,
        metavar="SECONDS",
        help="run length for saturated psm points and for the unap suite "
        "(default: 10)",
    )
    crossval.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="max relative error for both metrics (default: the 0.10 contract)",
    )
    crossval.add_argument(
        "--fresh",
        action="store_true",
        help="ignore cached results (recompute and overwrite the store)",
    )
    crossval.add_argument("--name", help="campaign name (labels and artifacts)")
    crossval.add_argument(
        "--surrogate-fraction",
        type=float,
        default=None,
        metavar="FRAC",
        help="pre-screen the grid with the model and simulate only the "
        "top FRAC of points",
    )
    crossval.add_argument(
        "--surrogate-metric",
        choices=tuple(metric.name for metric in SUITES["psm"].metrics),
        help="prediction field the surrogate screen scores on",
    )
    crossval.add_argument(
        "--surrogate-mode",
        choices=SCORE_MODES,
        help="score by predicted-metric gradient or by target proximity",
    )
    crossval.add_argument(
        "--surrogate-target",
        type=float,
        default=None,
        metavar="VALUE",
        help="target metric value for --surrogate-mode target",
    )
    report_parser = sub.add_parser(
        "report",
        parents=[json_flag],
        help="render a campaign store as a self-contained HTML dashboard",
        description="Read a campaign result store (results.jsonl, "
        "progress.jsonl heartbeats, timeseries/*.jsonl) and write one "
        "static HTML file — inline CSS/JS, no external resources — with "
        "the campaign overview, the failed/quarantined run table, per-run "
        "time-series charts and the kernel-performance table.  Example: "
        "repro report .campaigns/demo -o report.html",
    )
    report_parser.add_argument(
        "store_dir",
        metavar="STORE",
        help="campaign store directory (the --store of a previous campaign)",
    )
    report_parser.add_argument(
        "-o",
        "--out",
        default="report.html",
        metavar="FILE",
        help="output HTML path (default: report.html)",
    )
    report_parser.add_argument(
        "--title",
        default="Campaign report",
        help="dashboard title",
    )
    fleet = sub.add_parser(
        "fleet",
        parents=[shared, json_flag],
        help="multi-AP fleet with roaming clients (repro.net)",
        description="A corridor of hotspot cells serving a population of "
        "random-waypoint walkers: admissions steer to the least-loaded "
        "covering cell and the handoff controller roams clients between "
        "cells as they move.  Example: repro fleet --aps 4 --clients 24 "
        "--duration 120",
    )
    fleet.add_argument(
        "--aps", type=int, default=4, help="number of access-point sites"
    )
    fleet.add_argument(
        "--clients", type=int, default=24, help="number of roaming clients"
    )
    fleet.add_argument(
        "--duration", type=float, default=120.0, help="simulated seconds"
    )
    fleet.add_argument(
        "--utilisation-cap",
        type=float,
        default=0.9,
        help="admission-control utilisation cap per cell channel",
    )
    fleet.add_argument(
        "--grid",
        type=_parse_grid,
        metavar="ROWSxCOLS",
        help="use a ROWSxCOLS city-grid deployment (e.g. 3x3) instead of "
        "the linear corridor; overrides --aps",
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=0,
        help="space-parallel sharded run: partition the cells across N "
        "worker processes synchronised at epoch barriers (repro.shard); "
        "0 = classic single-kernel run",
    )
    fleet.add_argument(
        "--store",
        metavar="DIR",
        help="(with --shards) write per-cell partials, merged.json and "
        "progress.jsonl heartbeats to DIR",
    )
    scenarios_parser = sub.add_parser(
        "scenarios",
        parents=[json_flag],
        help="list registered scenarios with their parameters and defaults",
        description="Every scenario a campaign can sweep, with the "
        "parameters and defaults introspected from its declarative spec "
        "factory (repro.build.presets).",
    )
    scenarios_parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        help="show a single scenario instead of all of them",
    )
    trace_parser = sub.add_parser(
        "trace",
        parents=[shared, workload],
        help="run the hotspot scenario traced; print top event kinds "
        "and per-radio dwell breakdown",
    )
    trace_parser.add_argument(
        "--top", type=int, default=12, help="number of event kinds to list"
    )
    return parser


_COMMANDS = {
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "sweep-schedulers": cmd_sweep,
    "sweep-bursts": cmd_sweep,
    "campaign": cmd_campaign,
    "analytic": cmd_analytic,
    "crossval": cmd_crossval,
    "report": cmd_report,
    "fleet": cmd_fleet,
    "scenarios": cmd_scenarios,
    "trace": cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
