"""Experiment campaigns: declarative grids, parallel runs, cached results.

The engine behind ``repro campaign`` and the rebuilt sweep commands:

- :mod:`repro.exp.spec` — :class:`CampaignSpec` (scenario name + base
  params + grid + seeds) expanding deterministically into
  :class:`RunSpec` runs, each identified by a SHA-256 content hash;
- :mod:`repro.exp.grid` — cartesian grid expansion in declaration order;
- :mod:`repro.exp.store` — append-only JSONL :class:`ResultStore`;
  completed runs are flushed line-by-line so interrupted campaigns
  resume instead of recomputing;
- :mod:`repro.exp.runner` — :func:`run_campaign`: cache lookup, fan-out
  over a ``multiprocessing`` pool, order-preserving assembly (``jobs=1``
  and ``jobs=N`` give byte-identical campaign artifacts);
- :mod:`repro.exp.aggregate` — mean/stdev/95 % CI across seeds per grid
  point, metrics-snapshot merging, table/JSON/CSV rendering;
- :mod:`repro.exp.scenarios` — the name → scenario-function registry
  campaign specs reference.

Quick programmatic use::

    from repro.exp import CampaignSpec, ResultStore, aggregate, run_campaign

    spec = CampaignSpec(
        name="burst-sweep",
        scenario="hotspot",
        base={"duration_s": 30.0},
        grid={"burst_bytes": [20_000, 40_000, 80_000]},
        seeds=[0, 1, 2],
    )
    report = run_campaign(spec, store=ResultStore(".campaigns/burst"), jobs=4)
    for point in aggregate(report.results):
        print(point.params, point.stats["wnic_power_w"].render())
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "aggregate": (
            "DEFAULT_FIELDS",
            "FieldStats",
            "GridPointSummary",
            "aggregate",
            "campaign_payload",
            "dump_json",
            "merge_metric_snapshots",
            "summary_rows",
            "summary_table",
            "t_critical_95",
            "write_csv",
        ),
        "grid": ("expand_grid",),
        "jsonio": ("dumps_strict", "sanitize_nonfinite"),
        "progress": (
            "CampaignProgress",
            "ProgressLog",
            "StderrProgress",
            "read_progress",
        ),
        "runner": (
            "CampaignReport",
            "RunResult",
            "RunTimeoutError",
            "WorkItem",
            "error_envelope",
            "execute_run",
            "execute_run_guarded",
            "guarded_call",
            "recorded_run",
            "run_campaign",
        ),
        "scenarios": (
            "ScenarioEntry",
            "ScenarioParameter",
            "get_scenario",
            "register_scenario",
            "scenario_entries",
            "scenario_entry",
            "scenario_names",
        ),
        "spec": (
            "CampaignSpec",
            "RunSpec",
            "canonical_json",
            "canonical_params",
            "run_key",
        ),
        "store": ("ResultStore",),
    },
)
