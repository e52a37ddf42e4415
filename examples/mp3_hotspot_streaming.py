#!/usr/bin/env python3
"""The paper's evaluation scenario, end to end, with the Figure-1 diagram.

Three iPAQ 3970 clients stream high-quality MP3 audio through a Hotspot.
The resource manager starts everyone on Bluetooth (lowest power), bursts
tens of kilobytes at a time, and parks the radios in between.  At t=40 s
the Bluetooth link degrades; the server seamlessly switches delivery to
WLAN, whose card is kept *off* between bursts.

The script prints the schedule timeline (the paper's Figure 1), the
power figures (Figure 2) and per-client QoS.

Run:  python examples/mp3_hotspot_streaming.py
"""

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world, unscheduled_world
from repro.metrics import format_table, render_schedule_timeline
from repro.metrics.energy import wnic_power_saving_fraction


def main() -> None:
    duration_s = 60.0
    degrade_at_s = 40.0

    hotspot = WorldBuilder(
        hotspot_world(
            n_clients=3,
            duration_s=duration_s,
            bitrate_bps=128_000.0,
            scheduler="edf",
            bluetooth_quality_script=[(0.0, 1.0), (degrade_at_s, 0.2)],
        )
    ).run()

    print("=" * 72)
    print("Figure 1 — sample schedule (X = data transfer, rows per WNIC)")
    print("=" * 72)
    print(render_schedule_timeline(hotspot.radios, 0.0, duration_s, columns=96))

    print()
    print("=" * 72)
    print("Figure 2 — average power")
    print("=" * 72)
    wlan_baseline = WorldBuilder(unscheduled_world("wlan", duration_s=duration_s)).run()
    bt_baseline = WorldBuilder(unscheduled_world("bluetooth", duration_s=duration_s)).run()
    rows = [
        [r.label, r.mean_wnic_power_w(), r.mean_total_power_w(), r.qos_maintained()]
        for r in (wlan_baseline, bt_baseline, hotspot)
    ]
    print(
        format_table(
            ["configuration", "WNIC power (W)", "device power (W)", "QoS"], rows
        )
    )
    saving = wnic_power_saving_fraction(
        wlan_baseline.mean_wnic_power_w(), hotspot.mean_wnic_power_w()
    )
    print(f"\nWNIC power saving vs unscheduled WLAN: {saving * 100:.1f}%")

    print()
    print("Per-client detail:")
    for client in hotspot.clients:
        log = ", ".join(f"{name}@{t:.1f}s" for t, name in client.interface_log)
        print(
            f"  {client.name}: {client.bursts} bursts, "
            f"{client.bytes_received} B, interfaces [{log}], "
            f"underruns {client.qos.underruns}"
        )


if __name__ == "__main__":
    main()
