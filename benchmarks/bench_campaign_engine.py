"""Campaign engine — parallel grid regeneration of the burst ablation.

The ablation of bench_ablation_burst_size rebuilt as a declarative
campaign: the engine expands the burst grid, fans runs over a worker
pool, and aggregates across seeds.  Asserts the paper's shape (power
falls with burst size, QoS holds) *and* the engine's contract: a
re-invocation against the same store completes with zero scenario
re-executions and identical aggregated output.
"""

from conftest import run_once

from repro.exp import (
    CampaignSpec,
    ResultStore,
    aggregate,
    campaign_payload,
    dump_json,
    run_campaign,
    summary_table,
)

DURATION_S = 60.0
BURSTS = (10_000, 20_000, 40_000, 80_000, 160_000)


def burst_spec():
    return CampaignSpec(
        name="bench-burst-grid",
        scenario="hotspot",
        base={
            "duration_s": DURATION_S,
            "n_clients": 3,
            "interfaces": ["wlan"],
            "server_prefetch_s": 60.0,
        },
        grid={"burst_bytes": list(BURSTS)},
        derive=lambda p: {
            "client_buffer_bytes": max(int(p["burst_bytes"] * 2.4), 24_000)
        },
        seeds=[0, 1],
    )


def run_burst_campaign(store_dir):
    with ResultStore(store_dir) as store:
        report = run_campaign(burst_spec(), store=store, jobs=4)
    return report


def test_bench_campaign_burst_grid(emit, tmp_path):
    store_dir = str(tmp_path / "store")
    report = run_once(run_burst_campaign, store_dir)
    summaries = aggregate(report.results)
    emit(
        summary_table(
            summaries,
            ("burst_bytes",),
            fields=("wnic_power_w",),
            title=f"Campaign burst grid ({DURATION_S:.0f}s, 3 clients, 2 seeds)",
        )
    )
    # Paper shape: bigger bursts -> longer sleeps -> lower power.  QoS
    # holds everywhere except possibly the marginal smallest burst,
    # where seed replication exposes occasional underruns (exactly what
    # multi-seed campaigns are for).
    powers = [s.stats["wnic_power_w"].mean for s in summaries]
    assert powers[0] > powers[-1]
    assert all(
        s.qos_maintained for s in summaries if s.params["burst_bytes"] >= 20_000
    )
    assert report.executed == len(BURSTS) * 2

    # Engine contract: the resumed campaign recomputes nothing and
    # aggregates byte-identically.
    with ResultStore(store_dir) as store:
        resumed = run_campaign(burst_spec(), store=store, jobs=1)
    assert resumed.executed == 0
    assert resumed.cached == len(BURSTS) * 2
    assert dump_json(campaign_payload(resumed)) == dump_json(
        campaign_payload(report)
    )
