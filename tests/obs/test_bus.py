"""Tests for the TraceBus: emission, ring buffer, filtering, enablement."""

import pytest

from repro.obs import TraceBus, TraceEvent
from repro.sim import Simulator


class TestEmission:
    def test_emit_records_clock_and_fields(self):
        bus = TraceBus()
        bus.bind_clock(lambda: 42.5)
        bus.emit("phy", "client0/wlan", "state", source="idle", target="doze")
        (event,) = bus.events()
        assert event == TraceEvent(
            42.5, "phy", "client0/wlan", "state",
            {"source": "idle", "target": "doze"},
        )

    def test_as_dict_flattens_fields(self):
        event = TraceEvent(1.0, "mac", "ap", "beacon", {"number": 3})
        assert event.as_dict() == {
            "time_s": 1.0,
            "layer": "mac",
            "entity": "ap",
            "kind": "beacon",
            "number": 3,
        }

    def test_emitted_counts_all_events(self):
        bus = TraceBus(capacity=2)
        for i in range(5):
            bus.emit("sim", "kernel", "dispatch", i=i)
        assert bus.emitted == 5

    def test_ring_buffer_keeps_newest(self):
        bus = TraceBus(capacity=3)
        for i in range(10):
            bus.emit("sim", "kernel", "dispatch", i=i)
        assert len(bus) == 3
        assert [e.fields["i"] for e in bus.events()] == [7, 8, 9]

    def test_zero_capacity_retains_nothing_but_streams(self):
        bus = TraceBus(capacity=0)
        seen = []
        bus.subscribe(seen.append)
        bus.emit("mac", "ap", "beacon")
        assert len(bus) == 0 and bus.events() == []
        assert len(seen) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceBus(capacity=-1)

    def test_clear_empties_ring(self):
        bus = TraceBus()
        bus.emit("mac", "ap", "beacon")
        bus.clear()
        assert bus.events() == []


class TestFiltering:
    def fill(self, bus):
        bus.emit("phy", "client0/wlan", "state")
        bus.emit("phy", "client1/wlan", "state")
        bus.emit("mac", "ap", "beacon")
        bus.emit("mac", "ap", "collision")

    def test_events_filtered_by_layer_entity_kind(self):
        bus = TraceBus()
        self.fill(bus)
        assert len(bus.events(layer="phy")) == 2
        assert len(bus.events(entity="ap")) == 2
        assert len(bus.events(kind="beacon")) == 1
        assert len(bus.events(layer="phy", entity="client1/wlan")) == 1
        assert bus.events(layer="link") == []

    def test_subscription_filters(self):
        bus = TraceBus()
        phy_only, beacons = [], []
        bus.subscribe(phy_only.append, layers=["phy"])
        bus.subscribe(beacons.append, layers=["mac"], kinds=["beacon"])
        self.fill(bus)
        assert [e.entity for e in phy_only] == ["client0/wlan", "client1/wlan"]
        assert [e.kind for e in beacons] == ["beacon"]

    def test_unsubscribe_stops_delivery(self):
        bus = TraceBus()
        seen = []
        callback = bus.subscribe(seen.append)
        bus.emit("mac", "ap", "beacon")
        bus.unsubscribe(callback)
        bus.emit("mac", "ap", "beacon")
        assert len(seen) == 1
        assert bus.subscriber_count == 0


class TestEnablement:
    def test_disabled_bus_emits_nothing(self):
        bus = TraceBus(enabled=False)
        seen = []
        bus.subscribe(seen.append)
        bus.emit("phy", "radio", "state")
        assert not bus.enabled
        assert bus.emitted == 0
        assert bus.events() == []
        assert seen == []

    def test_disable_then_enable(self):
        bus = TraceBus()
        bus.disable()
        bus.emit("mac", "ap", "beacon")
        bus.enable()
        bus.emit("mac", "ap", "beacon")
        assert bus.emitted == 1

    def test_enabled_is_a_plain_attribute_not_a_property(self):
        # The hot-path guard (`if bus.enabled:`) must cost one attribute
        # read — a property would add a descriptor call to every
        # potential emit site in the instrumented stack.
        import inspect

        attr = inspect.getattr_static(TraceBus, "enabled")
        assert not isinstance(attr, property)

    def test_disabled_emit_does_zero_work(self):
        bus = TraceBus(enabled=False)
        calls = []
        bus.subscribe(calls.append)
        clock_reads = []
        bus.bind_clock(lambda: clock_reads.append(1) or 0.0)
        for _ in range(100):
            bus.emit("phy", "radio", "state", source="idle", target="doze")
        # No subscriber ran, no clock read happened, nothing was
        # retained or counted: the disabled path allocates no event.
        assert calls == []
        assert clock_reads == []
        assert bus.emitted == 0
        assert len(bus) == 0

    def test_default_simulator_uses_disabled_sentinel(self):
        sim = Simulator()
        assert not sim.trace.enabled
        # The sentinel's emit is a no-op, not an error.
        sim.trace.emit("sim", "kernel", "dispatch")


class TestSimulatorIntegration:
    def test_attached_bus_sees_kernel_dispatch(self):
        bus = TraceBus()
        sim = Simulator(trace=bus)

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        dispatches = bus.events(layer="sim", kind="dispatch")
        assert dispatches
        assert any(
            d.time_s == 1.0 and d.fields["event"] == "Timeout" for d in dispatches
        )

    def test_untraced_simulator_has_no_step_shadow(self):
        sim = Simulator()
        assert "step" not in sim.__dict__
        # A trace is read inside step(); attaching one shadows nothing.
        assert "step" not in Simulator(trace=TraceBus()).__dict__
        assert "step" not in Simulator().__dict__
