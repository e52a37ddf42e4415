"""Ablation — interface-selection policy.

Paper: the resource manager "dynamically selects the appropriate wireless
network interface on each client (e.g. Bluetooth, WLAN)"; the evaluation
scenario starts on Bluetooth and switches to WLAN when the link degrades.

Compares Bluetooth-only, WLAN-only and the adaptive policy on a scenario
whose Bluetooth link degrades midway.  Shape: adaptive tracks
Bluetooth-only power while the link is clean, then pays WLAN power but
keeps QoS; Bluetooth-only loses throughput headroom when degraded (here:
modelled via the quality signal steering only the adaptive policy).
"""

from conftest import run_once

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world
from repro.core import InterfaceSelectionPolicy
from repro.metrics import format_table

DURATION_S = 60.0
DEGRADE_AT_S = 30.0
SCRIPT = [(0.0, 1.0), (DEGRADE_AT_S, 0.2)]


def run_interface_sweep():
    rows = []
    configurations = [
        ("bluetooth-only", ("bluetooth",), None),
        ("wlan-only", ("wlan",), None),
        ("adaptive", ("bluetooth", "wlan"), None),
        (
            "adaptive (sticky)",
            ("bluetooth", "wlan"),
            InterfaceSelectionPolicy(quality_threshold=0.1),
        ),
    ]
    for label, interfaces, policy in configurations:
        result = WorldBuilder(
            hotspot_world(
                n_clients=3,
                duration_s=DURATION_S,
                interfaces=interfaces,
                bluetooth_quality_script=SCRIPT,
                interface_policy=policy,
            )
        ).run()
        switchovers = sum(c.switchovers for c in result.clients)
        rows.append(
            {
                "policy": label,
                "power_w": result.mean_wnic_power_w(),
                "qos": result.qos_maintained(),
                "switchovers": switchovers,
            }
        )
    return rows


def test_bench_interface(emit):
    rows = run_once(run_interface_sweep)
    emit(
        format_table(
            ["policy", "mean WNIC power (W)", "QoS", "switchovers"],
            [[r["policy"], r["power_w"], r["qos"], r["switchovers"]] for r in rows],
            title="Ablation: interface selection (BT degrades at t=30s)",
        )
    )
    by_name = {r["policy"]: r for r in rows}
    # Adaptive switches exactly once per client (3 clients).
    assert by_name["adaptive"]["switchovers"] == 3
    # The sticky policy (low threshold) never leaves Bluetooth.
    assert by_name["adaptive (sticky)"]["switchovers"] == 0
    # WLAN-only pays the most power (every burst pays the 0.25 J wake).
    assert by_name["wlan-only"]["power_w"] > by_name["bluetooth-only"]["power_w"]
    # Adaptive lands between the two single-interface extremes.
    assert (
        by_name["bluetooth-only"]["power_w"]
        < by_name["adaptive"]["power_w"]
        < by_name["wlan-only"]["power_w"] + 0.02
    )
    assert all(r["qos"] for r in rows)
