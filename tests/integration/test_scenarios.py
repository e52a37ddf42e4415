"""End-to-end scenario tests: the paper's Figure 1 / Figure 2 claims.

These are the headline integration tests: they run the full Hotspot
system and both baselines and assert the *shape* of the paper's results
(who wins, by roughly what factor, QoS maintained).
"""

import pytest

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world, psm_baseline_world, unscheduled_world
from repro.metrics import render_schedule_timeline
from repro.metrics.energy import wnic_power_saving_fraction

DURATION = 60.0


@pytest.fixture(scope="module")
def unscheduled_wlan():
    return WorldBuilder(unscheduled_world("wlan", duration_s=DURATION)).run()


@pytest.fixture(scope="module")
def unscheduled_bt():
    return WorldBuilder(unscheduled_world("bluetooth", duration_s=DURATION)).run()


@pytest.fixture(scope="module")
def hotspot():
    return WorldBuilder(
        hotspot_world(
            duration_s=DURATION,
            bluetooth_quality_script=[(0.0, 1.0), (45.0, 0.2)],
        )
    ).run()


class TestBaselines:
    def test_unscheduled_wlan_power_near_idle(self, unscheduled_wlan):
        # The card listens the whole time: ~0.83 W idle + rx deltas.
        assert 0.8 < unscheduled_wlan.mean_wnic_power_w() < 1.0

    def test_unscheduled_bluetooth_much_cheaper_than_wlan(
        self, unscheduled_wlan, unscheduled_bt
    ):
        assert (
            unscheduled_bt.mean_wnic_power_w()
            < 0.2 * unscheduled_wlan.mean_wnic_power_w()
        )

    def test_baselines_maintain_qos(self, unscheduled_wlan, unscheduled_bt):
        assert unscheduled_wlan.qos_maintained()
        assert unscheduled_bt.qos_maintained()

    def test_unscheduled_receives_full_stream(self, unscheduled_wlan):
        expected = 128_000 / 8 * DURATION
        for client in unscheduled_wlan.clients:
            assert client.bytes_received == pytest.approx(expected, rel=0.05)


class TestHotspotHeadline:
    def test_qos_maintained(self, hotspot):
        """The paper: 'QoS is maintained...'"""
        assert hotspot.qos_maintained()

    def test_wnic_power_saving_at_least_90_percent(
        self, hotspot, unscheduled_wlan
    ):
        """'...while saving 97% in WNIC power consumption.'  Our calibrated
        models land >= 90 % (97 % exactly depends on the paper's exact
        hardware split)."""
        saving = wnic_power_saving_fraction(
            unscheduled_wlan.mean_wnic_power_w(), hotspot.mean_wnic_power_w()
        )
        assert saving >= 0.90

    def test_hotspot_beats_even_unscheduled_bluetooth(
        self, hotspot, unscheduled_bt
    ):
        assert hotspot.mean_wnic_power_w() < unscheduled_bt.mean_wnic_power_w()

    def test_switchover_happens_once_per_client(self, hotspot):
        """'as conditions in the link change, it seamlessly switches
        communication over to WLAN'"""
        for client in hotspot.clients:
            assert client.switchovers == 1
            interfaces = [name for _t, name in client.interface_log]
            assert interfaces == ["bluetooth", "wlan"]

    def test_bursts_are_tens_of_kilobytes(self, hotspot):
        """'larger bursts of data (10s of Kbytes at a time)'"""
        total_bytes = sum(c.bytes_received for c in hotspot.clients)
        total_bursts = sum(c.bursts for c in hotspot.clients)
        mean_burst = total_bytes / total_bursts
        assert 10_000 < mean_burst < 100_000

    def test_all_clients_served_equally(self, hotspot):
        received = [c.bytes_received for c in hotspot.clients]
        assert max(received) - min(received) < 0.2 * max(received)

    def test_deterministic_for_fixed_seed(self):
        a = WorldBuilder(hotspot_world(duration_s=20.0, seed=5)).run()
        b = WorldBuilder(hotspot_world(duration_s=20.0, seed=5)).run()
        assert a.mean_wnic_power_w() == b.mean_wnic_power_w()
        assert [c.bursts for c in a.clients] == [c.bursts for c in b.clients]


class TestPsmBaseline:
    @pytest.fixture(scope="class")
    def psm(self):
        return WorldBuilder(psm_baseline_world(duration_s=30.0)).run()

    def test_psm_sits_between_extremes(self, psm, unscheduled_wlan, hotspot):
        psm_power = psm.mean_wnic_power_w()
        assert hotspot.mean_wnic_power_w() < psm_power
        assert psm_power < unscheduled_wlan.mean_wnic_power_w()

    def test_psm_maintains_qos(self, psm):
        assert psm.qos_maintained()

    def test_psm_delivers_the_stream(self, psm):
        expected = 128_000 / 8 * 30.0
        for client in psm.clients:
            assert client.bytes_received == pytest.approx(expected, rel=0.1)


class TestFigure1Timeline:
    def test_timeline_renders_all_clients(self, hotspot):
        text = render_schedule_timeline(hotspot.radios, 0.0, DURATION)
        for name in hotspot.radios:
            assert f"{name} data" in text
        # Transfers visible as X marks.
        assert "X" in text

    def test_burst_gap_structure_visible(self, hotspot):
        """Bursts must be separated by sleep: the data row is mostly
        blank with isolated X clusters."""
        text = render_schedule_timeline(hotspot.radios, 0.0, DURATION, columns=100)
        data_rows = [
            line
            for line in text.splitlines()
            if " data" in line and line.rstrip().endswith("|")
        ]
        total_marks = 0
        for row in data_rows:
            cells = row.split("|")[1]
            # Sparse: far more sleep than transfer in every row.  (A row
            # can show zero marks when its bursts are shorter than one
            # column's span — e.g. 64 ms WLAN bursts at 0.6 s/column.)
            assert cells.count("X") < 60
            total_marks += cells.count("X")
        assert total_marks > 0


class TestScenarioValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            WorldBuilder(hotspot_world(n_clients=0)).run()
        with pytest.raises(ValueError):
            WorldBuilder(hotspot_world(duration_s=0.0)).run()
        with pytest.raises(ValueError):
            WorldBuilder(unscheduled_world("zigbee")).run()
        with pytest.raises(ValueError):
            WorldBuilder(hotspot_world(interfaces=())).run()
