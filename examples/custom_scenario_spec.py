#!/usr/bin/env python3
"""A custom scenario as a declarative spec — no hand-wiring, <30 lines.

Two WLAN-only clients stream Poisson packet traffic (web-ish, 64 kb/s)
under the Hotspot resource manager; a third heavyweight client streams
256 kb/s MP3 over Bluetooth-then-WLAN.  No preset exists for this mix:
the spec *is* the scenario, and the builder assembles the rest.

Run:  python examples/custom_scenario_spec.py
"""

from repro.build import (
    InterfaceSpec, NodeSpec, TrafficSpec, WorldBuilder, WorldSpec, uniform_nodes,
)

wlan = InterfaceSpec("wlan")
browsers = uniform_nodes(
    2, [wlan], TrafficSpec(kind="poisson", bitrate_bps=64_000.0),
    name_format="browser{index}",
)
listener = NodeSpec(
    name="listener",
    interfaces=(InterfaceSpec("bluetooth", quality_script=[(0.0, 1.0), (30.0, 0.2)]), wlan),
    traffic=TrafficSpec(kind="mp3", bitrate_bps=256_000.0),
    buffer_bytes=192_000,
)
spec = WorldSpec(delivery="hotspot", duration_s=60.0, seed=0,
                 clients=browsers + (listener,), label="mixed-workload")
result = WorldBuilder(spec).run()
for client in result.clients:
    print(f"{client.name}: {client.wnic_average_power_w:.3f} W, "
          f"{client.bursts} bursts, underruns {client.qos.underruns}")
