"""Survey claim — OS-level power management includes "more traditional
CPU voltage scaling and scheduling."

Sweeps task-set utilisation and reports the EDF-feasible operating point
DVS selects and the energy saved versus always running at maximum
frequency.  Shape: big savings at low utilisation, none at full load.
"""

from conftest import run_once

from repro.metrics import format_table
from repro.oslayer import DvsSchedule, PeriodicTask


def task_set(utilisation):
    """Two tasks summing to the requested utilisation at f_max."""
    period_a, period_b = 0.02, 0.05
    share = utilisation / 2.0
    return [
        PeriodicTask("codec", wcet_at_fmax_s=share * period_a, period_s=period_a),
        PeriodicTask("net", wcet_at_fmax_s=share * period_b, period_s=period_b),
    ]


def run_dvs():
    rows = []
    for utilisation in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0):
        schedule = DvsSchedule.plan(task_set(utilisation))
        rows.append(
            {
                "utilisation": utilisation,
                "frequency_mhz": schedule.chosen.frequency_hz / 1e6,
                "voltage_v": schedule.chosen.voltage_v,
                "saving": schedule.saving_fraction(),
                "feasible": schedule.is_feasible(),
            }
        )
    return rows


def test_bench_dvs(emit):
    rows = run_once(run_dvs)
    emit(
        format_table(
            ["U at f_max", "chosen f (MHz)", "V (V)", "energy saving", "EDF feasible"],
            [[r["utilisation"], r["frequency_mhz"], r["voltage_v"], r["saving"], r["feasible"]] for r in rows],
            title="Survey: CPU DVS under EDF schedulability",
        )
    )
    assert all(r["feasible"] for r in rows)
    # Frequency is monotone in utilisation; saving is anti-monotone.
    frequencies = [r["frequency_mhz"] for r in rows]
    savings = [r["saving"] for r in rows]
    assert frequencies == sorted(frequencies)
    assert savings == sorted(savings, reverse=True)
    # Low load runs at the bottom point with large savings; full load
    # cannot save anything.
    assert rows[0]["frequency_mhz"] == 100.0
    assert rows[0]["saving"] > 0.5
    assert rows[-1]["saving"] == 0.0
