"""Survey claim — "with PAMAS nodes independently enter sleep state based
on their battery levels."

Heterogeneous nodes (different initial charge) run battery-aware versus
battery-blind policies; the aware policy stretches the weakest node's
lifetime by sacrificing its availability.
"""

from conftest import run_once

from repro.devices import wlan_cf_card
from repro.mac import PamasNode, aggressive_sleep_policy, linear_sleep_policy
from repro.metrics import format_table
from repro.phy import Battery, Radio
from repro.sim import Simulator

HORIZON_S = 400.0
CHARGES_J = (20.0, 40.0, 80.0)


def run_fleet(policy_factory, label):
    rows = []
    for charge in CHARGES_J:
        sim = Simulator()
        radio = Radio(sim, wlan_cf_card())
        battery = Battery(capacity_j=charge)
        node = PamasNode(sim, radio, battery, policy=policy_factory())
        sim.run(until=HORIZON_S)
        rows.append(
            {
                "policy": label,
                "initial_j": charge,
                "lifetime_s": node.stats.died_at_s or HORIZON_S,
                "availability": node.stats.availability,
            }
        )
    return rows


def run_pamas():
    blind = run_fleet(lambda: aggressive_sleep_policy(duty=0.0), "always-awake")
    aware = run_fleet(
        lambda: linear_sleep_policy(threshold=0.9, max_sleep_fraction=0.9),
        "battery-aware",
    )
    return blind + aware


def test_bench_pamas(emit):
    rows = run_once(run_pamas)
    emit(
        format_table(
            ["policy", "initial charge (J)", "lifetime (s)", "availability"],
            [[r["policy"], r["initial_j"], r["lifetime_s"], r["availability"]] for r in rows],
            title="Survey: PAMAS battery-aware sleep vs always-awake",
        )
    )
    blind = [r for r in rows if r["policy"] == "always-awake"]
    aware = [r for r in rows if r["policy"] == "battery-aware"]
    for b, a in zip(blind, aware):
        # Battery-aware life extension on every node...
        assert a["lifetime_s"] > 1.5 * b["lifetime_s"]
        # ...paid for with availability.
        assert a["availability"] < b["availability"]
    # Weakest node benefits the most is not required, but all must gain.
