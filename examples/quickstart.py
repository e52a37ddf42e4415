#!/usr/bin/env python3
"""Quickstart: reproduce the paper's headline result in ~20 lines.

Three iPAQ clients stream 128 kb/s MP3 audio.  Without power management
the WLAN card listens constantly (~0.83 W).  With the Hotspot resource
manager scheduling large bursts over Bluetooth/WLAN, the WNIC sleeps
between bursts and average power drops by an order of magnitude — the
paper's "97 % WNIC power saving with QoS maintained".

Run:  python examples/quickstart.py
"""

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world, unscheduled_world
from repro.metrics import format_table
from repro.metrics.energy import wnic_power_saving_fraction


def main() -> None:
    duration_s = 60.0

    baseline = WorldBuilder(unscheduled_world("wlan", duration_s=duration_s)).run()
    hotspot = WorldBuilder(
        hotspot_world(
            duration_s=duration_s,
            # Bluetooth degrades at t=45 s: the server switches to WLAN.
            bluetooth_quality_script=[(0.0, 1.0), (45.0, 0.2)],
        )
    ).run()

    rows = [
        [result.label, result.mean_wnic_power_w(), result.qos_maintained()]
        for result in (baseline, hotspot)
    ]
    print(format_table(["configuration", "WNIC power (W)", "QoS held"], rows))

    saving = wnic_power_saving_fraction(
        baseline.mean_wnic_power_w(), hotspot.mean_wnic_power_w()
    )
    print(f"\nWNIC power saving: {saving * 100:.1f}%  (paper reports 97%)")
    for client in hotspot.clients:
        switches = [name for _t, name in client.interface_log]
        print(
            f"  {client.name}: {client.bursts} bursts, "
            f"interfaces {' -> '.join(switches)}, "
            f"underruns {client.qos.underruns}"
        )


if __name__ == "__main__":
    main()
