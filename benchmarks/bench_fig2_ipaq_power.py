"""Figure 2 — average iPAQ power, three concurrent MP3 clients.

Paper: three iPAQ 3970 clients receive high-quality MP3 audio, first
through standard WLAN and Bluetooth with no additional scheduling, then
with Hotspot scheduling (Bluetooth first, seamless switch to WLAN as the
link degrades).  QoS is maintained while saving ~97 % of WNIC power.

This bench regenerates all four bars: WNIC-only and whole-device average
power per configuration, plus the saving fraction.
"""

from conftest import run_once

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world, psm_baseline_world, unscheduled_world
from repro.metrics import ascii_bar_chart, format_table
from repro.metrics.energy import wnic_power_saving_fraction

DURATION_S = 120.0


def run_figure2():
    rows = []
    wlan = WorldBuilder(unscheduled_world("wlan", duration_s=DURATION_S)).run()
    bt = WorldBuilder(unscheduled_world("bluetooth", duration_s=DURATION_S)).run()
    psm = WorldBuilder(psm_baseline_world(duration_s=60.0)).run()
    hotspot = WorldBuilder(
        hotspot_world(
            duration_s=DURATION_S,
            bluetooth_quality_script=[(0.0, 1.0), (90.0, 0.2)],
        )
    ).run()
    for result in (wlan, bt, psm, hotspot):
        rows.append(
            [
                result.label,
                result.mean_wnic_power_w(),
                result.mean_total_power_w(),
                result.qos_maintained(),
            ]
        )
    return rows, wlan, hotspot


def test_bench_fig2_ipaq_power(benchmark, emit):
    rows, wlan, hotspot = run_once(benchmark, run_figure2)
    saving = wnic_power_saving_fraction(rows[0][1], rows[-1][1])
    emit(
        format_table(
            ["configuration", "WNIC avg power (W)", "device avg power (W)", "QoS"],
            rows,
            title="Figure 2: average iPAQ power, 3 concurrent 128 kb/s MP3 clients",
        )
        + "\n\n"
        + ascii_bar_chart(
            [str(r[0]) for r in rows],
            [float(r[1]) for r in rows],
            unit=" W",
            title="WNIC average power",
        )
        + f"\n\nWNIC power saving (hotspot vs unscheduled WLAN): {saving * 100:.1f}%"
        + "  [paper: 97%]"
    )
    # Shape assertions, per the paper's claims.
    by_label = {row[0]: row for row in rows}
    assert by_label["hotspot[edf]"][3], "QoS must be maintained"
    assert saving >= 0.90, "order-of-magnitude WNIC saving expected"
    # Ordering: hotspot < unscheduled BT < 802.11 PSM < unscheduled WLAN.
    assert (
        by_label["hotspot[edf]"][1]
        < by_label["unscheduled[bluetooth]"][1]
        < by_label["802.11-psm"][1]
        < by_label["unscheduled[wlan]"][1]
    )
