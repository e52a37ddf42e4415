"""WorldSpec and friends: validation, normalisation, description."""

import math
from dataclasses import replace

import pytest

from repro._domain import SpecError
from repro.build import (
    FleetSpec,
    InterfaceSpec,
    NodeSpec,
    TrafficSpec,
    WorldSpec,
    fleet_hotspot_world,
    hotspot_world,
    uniform_nodes,
)


class TestInterfaceSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="InterfaceSpec.kind must be one of"):
            InterfaceSpec(kind="zigbee")

    def test_quality_script_normalised_to_float_tuples(self):
        spec = InterfaceSpec(kind="bluetooth", quality_script=[(0, 1), (40, 0.2)])
        assert spec.quality_script == ((0.0, 1.0), (40.0, 0.2))

    def test_hashable_for_spec_reuse(self):
        assert hash(InterfaceSpec("wlan")) == hash(InterfaceSpec("wlan"))


class TestTrafficSpec:
    def test_rejects_nonpositive_bitrate(self):
        with pytest.raises(ValueError, match="bitrate"):
            TrafficSpec(bitrate_bps=0.0)

    def test_dict_options_normalised_sorted(self):
        spec = TrafficSpec(kind="onoff", options={"on_s": 2.0, "off_s": 1.0})
        assert spec.options == (("off_s", 1.0), ("on_s", 2.0))
        assert spec.option_dict == {"on_s": 2.0, "off_s": 1.0}


class TestNodeSpec:
    def test_requires_interfaces(self):
        with pytest.raises(ValueError, match="NodeSpec.interfaces must be non-empty"):
            NodeSpec(name="c0", interfaces=())

    def test_contract_rate_defaults_to_traffic_bitrate(self):
        node = NodeSpec(
            name="c0",
            interfaces=(InterfaceSpec("wlan"),),
            traffic=TrafficSpec(bitrate_bps=64_000.0),
        )
        assert node.contract_rate_bps == 64_000.0

    def test_contract_rate_override(self):
        node = NodeSpec(
            name="c0",
            interfaces=(InterfaceSpec("wlan"),),
            stream_rate_bps=256_000.0,
        )
        assert node.contract_rate_bps == 256_000.0


class TestWorldSpec:
    def test_rejects_unknown_delivery(self):
        with pytest.raises(ValueError, match="WorldSpec.delivery must be one of"):
            WorldSpec(delivery="multicast")

    def test_rejects_duplicate_client_names(self):
        node = NodeSpec(name="dup", interfaces=(InterfaceSpec("wlan"),))
        with pytest.raises(ValueError, match="unique"):
            WorldSpec(clients=(node, node))

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, -5.0])
    def test_rejects_non_finite_or_negative_duration(self, duration):
        with pytest.raises(ValueError, match="duration_s must be finite"):
            WorldSpec(duration_s=duration)

    @pytest.mark.parametrize("policy", ["cam", "psm", "unap"])
    @pytest.mark.parametrize("delivery", ["hotspot", "unscheduled", "fleet", "pamas", "ecmac"])
    def test_power_policy_outside_psm_rejected(self, delivery, policy):
        # Only the psm world reads power_policy; anywhere else it was a
        # validated knob that changed nothing.
        with pytest.raises(SpecError, match=r"^WorldSpec\.power_policy applies only to "):
            WorldSpec(delivery=delivery, power_policy=policy)

    def test_power_policy_rejected_on_a_hotspot_preset(self):
        with pytest.raises(SpecError, match=r"^WorldSpec\.power_policy "):
            replace(hotspot_world(n_clients=2, duration_s=10), power_policy="unap")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("psm_listen_interval", 0),
            ("psm_listen_interval", "two"),
            ("psm_listen_interval", 1.5),
            ("psm_direction", "sideways"),
            ("rts_threshold_bytes", -1),
            ("rts_threshold_bytes", "500"),
            ("pamas_capacity_j", 0),
            ("pamas_capacity_j", math.inf),
            ("pamas_cycle_s", -1.0),
            ("pamas_threshold", 0.0),
            ("pamas_threshold", 1.5),
            ("ecmac_superframe_s", 0),
            ("ecmac_superframe_s", None),
        ],
    )
    def test_builder_extras_checked_at_validation(self, key, value):
        pattern = rf"^WorldSpec\.extras\[{key!r}\] must be .*; got "
        with pytest.raises(SpecError, match=pattern):
            WorldSpec(extras={key: value})

    @pytest.mark.parametrize(
        "extras",
        [
            {"psm_listen_interval": 2, "psm_direction": "uplink"},
            {"rts_threshold_bytes": None},
            {"pamas_capacity_j": 5, "pamas_cycle_s": 0.5, "pamas_threshold": 1.0},
            {"ecmac_superframe_s": 0.1},
            {"anything_else": object(), "offered_load_bps": -1},
        ],
    )
    def test_valid_and_unknown_extras_pass_through_untouched(self, extras):
        assert WorldSpec(extras=extras).extras is extras

    @pytest.mark.parametrize(
        "field, value",
        [
            ("speed_range_m_s", (2.0, -1.0)),
            ("speed_range_m_s", (0.0, 1.0)),
            ("speed_range_m_s", (2.0, 1.0)),
            ("speed_range_m_s", (0.5, math.inf)),
            ("speed_range_m_s", (math.nan, 1.0)),
            ("speed_range_m_s", (1.0,)),
            ("pause_range_s", (5.0, 0.0)),
            ("pause_range_s", (-1.0, 5.0)),
            ("pause_range_s", (True, 5.0)),
            ("handoff_latency_range_s", (0.2, 0.05)),
            ("handoff_latency_range_s", (-0.1, 0.2)),
            ("handoff_latency_range_s", 0.1),
        ],
    )
    def test_fleet_range_pairs_checked_at_validation(self, field, value):
        pattern = rf"^FleetSpec\.{field} must be a finite \(low, high\) pair .*; got "
        with pytest.raises(SpecError, match=pattern):
            FleetSpec(**{field: value})
        # Presets build the spec eagerly, before any WorldBuilder call.
        with pytest.raises(SpecError, match=pattern):
            fleet_hotspot_world(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("speed_range_m_s", [1.0, 1.0]),
            ("pause_range_s", (0, 0)),
            ("handoff_latency_range_s", (0.0, 0.3)),
        ],
    )
    def test_fleet_range_pairs_at_the_bounds_pass(self, field, value):
        spec = FleetSpec(**{field: value})
        assert getattr(spec, field) == tuple(value)

    def test_fleet_delivery_gets_default_fleet_spec(self):
        spec = WorldSpec(delivery="fleet")
        assert isinstance(spec.fleet, FleetSpec)

    def test_describe_is_json_shaped(self):
        spec = WorldSpec(
            clients=uniform_nodes(
                2,
                [InterfaceSpec("bluetooth"), InterfaceSpec("wlan")],
                TrafficSpec(),
            )
        )
        view = spec.describe()
        assert view["delivery"] == "hotspot"
        assert [c["name"] for c in view["clients"]] == ["client0", "client1"]
        assert [i["kind"] for i in view["clients"][0]["interfaces"]] == [
            "bluetooth",
            "wlan",
        ]


class TestUniformNodes:
    def test_rejects_empty_population(self):
        with pytest.raises(ValueError, match="uniform_nodes.count must be an integer >= 1"):
            uniform_nodes(0, [InterfaceSpec("wlan")], TrafficSpec())

    def test_names_follow_format(self):
        nodes = uniform_nodes(
            3, [InterfaceSpec("wlan")], TrafficSpec(), name_format="sta{index}"
        )
        assert [n.name for n in nodes] == ["sta0", "sta1", "sta2"]

    def test_node_kwargs_forwarded(self):
        nodes = uniform_nodes(
            1, [InterfaceSpec("wlan")], TrafficSpec(), buffer_bytes=12_345
        )
        assert nodes[0].buffer_bytes == 12_345

    def test_copies_equal_nodes_built_one_by_one(self):
        interfaces = [InterfaceSpec("bluetooth"), InterfaceSpec("wlan")]
        kwargs = dict(buffer_bytes=50_000, prefetch_s=2.0, weight=3.0)
        nodes = uniform_nodes(3, interfaces, TrafficSpec(), **kwargs)
        built = tuple(
            NodeSpec(f"client{i}", tuple(interfaces), TrafficSpec(), **kwargs)
            for i in range(3)
        )
        assert nodes == built
        assert [hash(n) for n in nodes] == [hash(n) for n in built]
        assert [n.describe() for n in nodes] == [n.describe() for n in built]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(buffer_bytes=0), "NodeSpec.buffer_bytes must be an integer > 0; got 0"),
            (dict(prefetch_s=math.nan), "NodeSpec.prefetch_s must be finite and >= 0; got nan"),
            (dict(name_format=""), "NodeSpec.name must be a non-empty string; got ''"),
        ],
    )
    def test_bad_field_message_is_the_node_spec_one(self, kwargs, message):
        with pytest.raises(SpecError) as info:
            uniform_nodes(3, [InterfaceSpec("wlan")], TrafficSpec(), **kwargs)
        assert str(info.value) == message

    def test_each_generated_name_is_checked(self):
        class FirstOnly(str):
            """Names only index 0; a copied node must still check its name."""

            def format(self, index):
                return "" if index else "client0"

        with pytest.raises(SpecError, match="NodeSpec.name must be a non-empty string; got ''"):
            uniform_nodes(
                2, [InterfaceSpec("wlan")], TrafficSpec(), name_format=FirstOnly()
            )
