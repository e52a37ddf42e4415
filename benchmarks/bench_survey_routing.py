"""Survey claim — "a number of energy efficient ad-hoc routing protocols
have been proposed."

On random multihop topologies, compares minimum-hop, minimum-energy and
maximum-lifetime routing: per-packet energy and network lifetime (packets
before the first node death).
"""

import random

from conftest import run_once

from repro.link import (
    AdHocNetwork,
    max_lifetime_route,
    min_energy_route,
    min_hop_route,
)
from repro.link.routing import simulate_routing
from repro.metrics import format_table

N_NODES = 25
AREA_M = 100.0
N_TOPOLOGIES = 5


def random_network(seed):
    rng = random.Random(seed)
    positions = {
        f"n{i}": (rng.uniform(0, AREA_M), rng.uniform(0, AREA_M))
        for i in range(N_NODES)
    }
    return AdHocNetwork(
        positions,
        comm_range_m=35.0,
        battery_j=0.01,
        path_loss_exponent=2.0,
        rx_energy_per_bit_j=1e-10,
    )


def run_routing():
    policies = {
        "min-hop": min_hop_route,
        "min-energy": min_energy_route,
        "max-lifetime": max_lifetime_route,
    }
    totals = {name: {"lifetime": 0, "energy": 0.0, "runs": 0} for name in policies}
    for topology_seed in range(N_TOPOLOGIES):
        flows = [("n0", f"n{N_NODES - 1}"), (f"n{N_NODES // 2}", "n1")]
        for name, policy in policies.items():
            network = random_network(topology_seed)
            # Per-packet energy of the first route, before any depletion.
            route = policy(network, *flows[0], 8000)
            if route is None:
                continue
            energy = network.route_energy_j(route, 8000)
            summary = simulate_routing(network, flows, policy, bits=8000)
            totals[name]["lifetime"] += summary["packets_before_first_death"]
            totals[name]["energy"] += energy
            totals[name]["runs"] += 1
    rows = []
    for name, agg in totals.items():
        runs = max(agg["runs"], 1)
        rows.append(
            {
                "policy": name,
                "mean_lifetime_packets": agg["lifetime"] / runs,
                "mean_route_energy_j": agg["energy"] / runs,
            }
        )
    return rows


def test_bench_routing(emit):
    rows = run_once(run_routing)
    emit(
        format_table(
            ["policy", "packets before first death", "first-route energy (J)"],
            [[r["policy"], r["mean_lifetime_packets"], r["mean_route_energy_j"]] for r in rows],
            title="Survey: energy-aware ad-hoc routing (mean over topologies)",
        )
    )
    by_name = {r["policy"]: r for r in rows}
    # Min-energy finds the cheapest first route.
    assert (
        by_name["min-energy"]["mean_route_energy_j"]
        <= by_name["min-hop"]["mean_route_energy_j"] + 1e-12
    )
    # Max-lifetime keeps the network alive at least as long as min-energy.
    assert (
        by_name["max-lifetime"]["mean_lifetime_packets"]
        >= 0.95 * by_name["min-energy"]["mean_lifetime_packets"]
    )
