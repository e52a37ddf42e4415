"""The faulty-hotspot scenario: failover, QoS under faults, determinism.

These pin the PR's acceptance criteria: a mid-stream WLAN outage makes
the resource manager fail clients over to Bluetooth and back, QoS holds
throughout, WNIC power saving stays within a few points of the healthy
figure, and identical seeds give byte-identical results.
"""

import pytest

from repro.build import WorldBuilder
from repro.build.presets import faulty_hotspot_world, unscheduled_world
from repro.metrics.energy import wnic_power_saving_fraction


def faulty(**overrides):
    kwargs = dict(
        n_clients=2,
        duration_s=60.0,
        outage_start_s=20.0,
        outage_duration_s=15.0,
        seed=0,
    )
    kwargs.update(overrides)
    return WorldBuilder(faulty_hotspot_world(**kwargs)).run()


class TestFailover:
    def test_outage_forces_wlan_to_bluetooth_and_back(self):
        result = faulty()
        for outcome in result.clients:
            names = [name for _t, name in outcome.interface_log]
            assert names[0] == "wlan"  # WLAN-first preference
            assert "bluetooth" in names  # failover happened
            assert names[-1] == "wlan"  # failback after revival
            switch_times = [t for t, name in outcome.interface_log]
            # Failover lands within one scheduling epoch of the outage.
            failover = switch_times[names.index("bluetooth")]
            assert 20.0 <= failover <= 21.0
        assert result.extras["radio_outages"] == 2
        assert result.extras["faults_injected"] == 2

    def test_qos_maintained_through_outage(self):
        result = faulty()
        assert result.qos_maintained()
        for outcome in result.clients:
            assert outcome.qos.underruns == 0

    def test_power_saving_within_five_points_of_healthy(self):
        unsched = WorldBuilder(
            unscheduled_world(
                "wlan", n_clients=2, duration_s=60.0, seed=0
            )
        ).run()
        # Same WLAN-first configuration, no faults: the comparison
        # isolates what the outage costs, not the interface preference.
        healthy = faulty(outage_duration_s=0.0)
        stressed = faulty()
        baseline = unsched.mean_wnic_power_w()
        healthy_saving = wnic_power_saving_fraction(
            baseline, healthy.mean_wnic_power_w()
        )
        faulty_saving = wnic_power_saving_fraction(
            baseline, stressed.mean_wnic_power_w()
        )
        assert abs(healthy_saving - faulty_saving) < 0.05

    def test_no_outage_means_no_failover(self):
        result = faulty(outage_duration_s=0.0)
        for outcome in result.clients:
            names = {name for _t, name in outcome.interface_log}
            assert names == {"wlan"}
        assert result.extras == {}  # no injector ran


class TestDeterminism:
    def test_same_seed_byte_identical_summary(self):
        from repro.core.outcome import VOLATILE_TIMING_FIELDS

        def pinned(result):
            return {
                k: v
                for k, v in result.summary_record().items()
                if k not in VOLATILE_TIMING_FIELDS
            }

        first = faulty(churn_clients=1, interference_rate_per_min=2.0)
        second = faulty(churn_clients=1, interference_rate_per_min=2.0)
        assert pinned(first) == pinned(second)

    def test_different_seeds_diverge_with_random_faults(self):
        first = faulty(interference_rate_per_min=4.0, seed=0)
        second = faulty(interference_rate_per_min=4.0, seed=1)
        assert first.summary_record() != second.summary_record()


class TestChurn:
    def test_churned_client_pauses_without_underruns(self):
        result = faulty(churn_clients=1)
        assert result.qos_maintained()
        # The churned client left and rejoined: the injector saw the
        # outage fault per client plus one churn record.
        assert result.extras["faults_injected"] == 3

    def test_churn_clients_bounds_checked(self):
        with pytest.raises(ValueError, match="churn_clients"):
            faulty(churn_clients=5)


class TestSummaryRecord:
    def test_extras_ride_into_summary_record(self):
        record = faulty().summary_record()
        assert record["label"] == "faulty-hotspot[edf]"
        assert record["faults_injected"] == 2
        assert record["radio_outages"] == 2
        assert "bursts_failed" in record
