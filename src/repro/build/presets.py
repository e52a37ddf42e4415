"""Spec factories for the registered scenarios.

Each factory maps one scenario's keyword arguments onto a
:class:`~repro.build.spec.WorldSpec`; run one with
``WorldBuilder(hotspot_world(...)).run()``.  The scenario registry
(:mod:`repro.exp.scenarios`) derives every built-in runnable from these
factories the same way, so campaigns and direct callers build identical
worlds.  A spec validates its own fields (:mod:`repro._domain`); a
factory checks only the parameters no spec field holds.  Either way an
invalid spec fails with a :class:`~repro._domain.SpecError` before
anything is simulated.

These are also the reference examples for writing new scenarios as
specs — a new workload is a ~20-line factory, not a hand-wired runner.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro._domain import Domain, SpecError
from repro.build.spec import (
    FleetSpec,
    InterfaceSpec,
    TrafficSpec,
    WorldSpec,
    uniform_nodes,
)
from repro.core.server import InterfaceSelectionPolicy
from repro.faults import ClientChurn, FaultPlan, RadioOutage

_POSITIVE = Domain(float, gt=0)
_NON_NEGATIVE = Domain(float, ge=0)
_PACKET_BYTES = Domain(int, gt=0)
_LISTEN_INTERVAL = Domain(int, ge=1)
_DIRECTION = Domain(str, choices=("downlink", "uplink"))
_UNAP_POLICY = Domain(str, choices=("unap", "cam"))
_BASELINE_INTERFACE = Domain(str, choices=("wlan", "bluetooth"))


def hotspot_world(
    n_clients: int = 3,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    scheduler="edf",
    burst_bytes: int = 40_000,
    client_buffer_bytes: int = 96_000,
    interfaces: Sequence[str] = ("bluetooth", "wlan"),
    bluetooth_quality_script: Optional[Sequence[Tuple[float, float]]] = None,
    epoch_s: float = 0.25,
    seed: int = 0,
    platform=None,
    interface_policy=None,
    server_prefetch_s: float = 30.0,
    fault_plan=None,
    utilisation_cap: float = 0.9,
    label: Optional[str] = None,
) -> WorldSpec:
    """The paper's system: Hotspot-scheduled bursts, interface switching."""
    iface_specs = []
    if "bluetooth" in interfaces:
        iface_specs.append(
            InterfaceSpec(
                "bluetooth",
                quality_script=(
                    tuple(tuple(point) for point in bluetooth_quality_script)
                    if bluetooth_quality_script
                    else None
                ),
            )
        )
    if "wlan" in interfaces:
        iface_specs.append(InterfaceSpec("wlan"))
    if not iface_specs:
        raise SpecError(f"hotspot_world.interfaces names no known interface: {interfaces!r}")
    return WorldSpec(
        delivery="hotspot",
        duration_s=duration_s,
        seed=seed,
        label=label,
        clients=uniform_nodes(
            n_clients,
            iface_specs,
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            buffer_bytes=client_buffer_bytes,
            prefetch_s=server_prefetch_s,
        ),
        scheduler=scheduler,
        epoch_s=epoch_s,
        min_burst_bytes=min(burst_bytes, client_buffer_bytes),
        utilisation_cap=utilisation_cap,
        interface_policy=interface_policy,
        platform=platform,
        fault_plan=fault_plan,
    )


def faulty_hotspot_world(
    n_clients: int = 3,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    scheduler="edf",
    burst_bytes: int = 40_000,
    client_buffer_bytes: int = 96_000,
    outage_interface: str = "wlan",
    outage_start_s: float = 40.0,
    outage_duration_s: float = 30.0,
    churn_clients: int = 0,
    interference_rate_per_min: float = 0.0,
    epoch_s: float = 0.25,
    seed: int = 0,
    platform=None,
    server_prefetch_s: float = 30.0,
) -> WorldSpec:
    """The Hotspot under stress: mid-stream radio death with failover.

    The fault plan is a *factory* resolved at build time against the
    world's seeded streams — churn and interference times come from
    ``faults/*`` substreams, so plans are insensitive to foreign draws.
    """
    _NON_NEGATIVE.check("faulty_hotspot_world.outage_start_s", outage_start_s)
    _NON_NEGATIVE.check("faulty_hotspot_world.outage_duration_s", outage_duration_s)
    if not 0 <= churn_clients <= n_clients:
        raise SpecError(
            f"faulty_hotspot_world.churn_clients must be in [0, {n_clients}]; got {churn_clients}"
        )

    def plan_factory(streams) -> FaultPlan:
        plan = FaultPlan()
        if outage_duration_s > 0:
            plan.add(
                RadioOutage(
                    target=f"*/{outage_interface}",
                    start_s=outage_start_s,
                    duration_s=outage_duration_s,
                )
            )
        for index in range(churn_clients):
            name = f"client{index}"
            leave = streams.uniform(
                f"faults/churn/{name}", 0.15 * duration_s, 0.45 * duration_s
            )
            away = streams.uniform(
                f"faults/churn/{name}", 0.10 * duration_s, 0.25 * duration_s
            )
            plan.add(
                ClientChurn(client=name, leave_s=leave, rejoin_s=leave + away)
            )
        if interference_rate_per_min > 0:
            backup = "bluetooth" if outage_interface == "wlan" else "wlan"
            plan = FaultPlan(
                plan.faults
                + FaultPlan.random(
                    streams,
                    duration_s,
                    interface_names=[
                        f"client{i}/{backup}" for i in range(n_clients)
                    ],
                    outage_rate_per_min=0.0,
                    interference_rate_per_min=interference_rate_per_min,
                ).faults
            )
        return plan

    policy = InterfaceSelectionPolicy(
        preference=(outage_interface,)
        + tuple(
            name
            for name in ("bluetooth", "wlan", "gprs")
            if name != outage_interface
        )
    )
    scheduler_name = (
        scheduler if isinstance(scheduler, str) else scheduler.name
    )
    return hotspot_world(
        n_clients=n_clients,
        duration_s=duration_s,
        bitrate_bps=bitrate_bps,
        scheduler=scheduler,
        burst_bytes=burst_bytes,
        client_buffer_bytes=client_buffer_bytes,
        interfaces=("bluetooth", "wlan"),
        epoch_s=epoch_s,
        seed=seed,
        platform=platform,
        interface_policy=policy,
        server_prefetch_s=server_prefetch_s,
        fault_plan=plan_factory,
        label=f"faulty-hotspot[{scheduler_name}]",
    )


def unscheduled_world(
    interface: str = "wlan",
    n_clients: int = 3,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """Figure-2 baseline: streaming with no power management at all."""
    _BASELINE_INTERFACE.check("unscheduled_world.interface", interface)
    return WorldSpec(
        delivery="unscheduled",
        duration_s=duration_s,
        seed=seed,
        label=f"unscheduled[{interface}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec(interface)],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            # No resource manager: an effectively unbounded buffer.
            buffer_bytes=1 << 30,
            prefetch_s=0.0,
        ),
        platform=platform,
    )


def psm_baseline_world(
    n_clients: int = 3,
    duration_s: float = 60.0,
    bitrate_bps: float = 128_000.0,
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """Standard 802.11 PSM on the full packet-level MAC."""
    return WorldSpec(
        delivery="psm",
        duration_s=duration_s,
        seed=seed,
        label="802.11-psm",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan")],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
        ),
        platform=platform,
    )


def psm_crossval_world(
    n_clients: int = 1,
    duration_s: float = 10.0,
    offered_load_bps: float = 128_000.0,
    packet_bytes: int = 1000,
    listen_interval: int = 1,
    direction: str = "downlink",
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """Analytic cross-validation workload on the packet-level MAC.

    Fixed-size Poisson frames at a controllable offered load, so every
    knob maps one-to-one onto :class:`repro.analytic.models.PsmParams`:
    push ``offered_load_bps`` past the drain capacity and the run
    saturates.  ``direction="downlink"`` drains AP-buffered frames via
    PSM; ``"uplink"`` sends from always-on CAM stations to the AP.
    """
    _PACKET_BYTES.check("psm_crossval_world.packet_bytes", packet_bytes)
    _LISTEN_INTERVAL.check("psm_crossval_world.listen_interval", listen_interval)
    _DIRECTION.check("psm_crossval_world.direction", direction)
    return WorldSpec(
        delivery="psm",
        duration_s=duration_s,
        seed=seed,
        label=f"psm-crossval[{direction}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan")],
            TrafficSpec(
                "poisson",
                bitrate_bps=offered_load_bps,
                options={"packet_bytes": packet_bytes},
            ),
            # No resource manager in the loop: unbounded sink buffer.
            buffer_bytes=1 << 30,
            prefetch_s=0.0,
        ),
        platform=platform,
        extras={
            "psm_listen_interval": listen_interval,
            "psm_direction": direction,
            "offered_load_bps": offered_load_bps,
            "packet_bytes": packet_bytes,
        },
    )


def unap_hotspot_world(
    n_clients: int = 4,
    duration_s: float = 10.0,
    offered_load_bps: float = 256_000.0,
    packet_bytes: int = 1000,
    rts_threshold_bytes: int = 500,
    power_policy: str = "unap",
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """μNap micro-sleep workload: uplink senders overhearing each other.

    Every station contends for the same AP on a broadcast-overheard
    medium with RTS/CTS protection, so each data exchange announces a
    NAV reservation the *other* stations can nap through.
    ``power_policy="unap"`` naps (the μNap technique);
    ``power_policy="cam"`` builds the same stations, medium and radios
    but never sleeps — the fair baseline for the energy-saving claim.
    """
    _PACKET_BYTES.check("unap_hotspot_world.packet_bytes", packet_bytes)
    _UNAP_POLICY.check("unap_hotspot_world.power_policy", power_policy)
    return WorldSpec(
        delivery="psm",
        duration_s=duration_s,
        seed=seed,
        label=f"unap-hotspot[{power_policy}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan")],
            TrafficSpec(
                "poisson",
                bitrate_bps=offered_load_bps,
                options={"packet_bytes": packet_bytes},
            ),
            buffer_bytes=1 << 30,
            prefetch_s=0.0,
        ),
        platform=platform,
        power_policy=power_policy,
        extras={
            "rts_threshold_bytes": rts_threshold_bytes,
            "offered_load_bps": offered_load_bps,
            "packet_bytes": packet_bytes,
        },
    )


def pamas_world(
    n_clients: int = 8,
    duration_s: float = 120.0,
    capacity_j: float = 50.0,
    cycle_s: float = 1.0,
    threshold: float = 0.8,
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """PAMAS battery-aware sleeping: availability vs lifetime, no AP.

    Every node runs the linear sleep policy — fully awake above
    ``threshold`` state-of-charge, sleeping progressively more as the
    battery drains below it.
    """
    _POSITIVE.check("pamas_world.capacity_j", capacity_j)
    return WorldSpec(
        delivery="pamas",
        duration_s=duration_s,
        seed=seed,
        label="pamas",
        clients=uniform_nodes(n_clients, [InterfaceSpec("wlan")], TrafficSpec()),
        platform=platform,
        extras={
            "pamas_capacity_j": capacity_j,
            "pamas_cycle_s": cycle_s,
            "pamas_threshold": threshold,
        },
    )


def ecmac_world(
    n_clients: int = 3,
    duration_s: float = 30.0,
    bitrate_bps: float = 128_000.0,
    superframe_s: float = 0.050,
    seed: int = 0,
    platform=None,
) -> WorldSpec:
    """EC-MAC scheduled downlink: exact doze windows, no contention."""
    _POSITIVE.check("ecmac_world.superframe_s", superframe_s)
    return WorldSpec(
        delivery="ecmac",
        duration_s=duration_s,
        seed=seed,
        label="ec-mac",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan")],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            buffer_bytes=1 << 30,
            prefetch_s=0.0,
        ),
        platform=platform,
        extras={"ecmac_superframe_s": superframe_s},
    )


def city_grid_world(
    n_clients: int = 54,
    grid_rows: int = 3,
    grid_cols: int = 3,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    scheduler="edf",
    burst_bytes: int = 80_000,
    client_buffer_bytes: int = 192_000,
    ap_spacing_m: float = 50.0,
    epoch_s: float = 0.25,
    utilisation_cap: float = 0.9,
    seed: int = 0,
    platform=None,
    server_prefetch_s: float = 30.0,
    label: Optional[str] = None,
) -> WorldSpec:
    """A city block of WLAN hotspot cells on a square grid.

    The shard-scale deployment: WLAN-only clients (no per-client
    Bluetooth beacon load, so 10k-client populations stay tractable)
    roaming a ``grid_rows x grid_cols`` lattice of cells.
    """
    scheduler_name = scheduler if isinstance(scheduler, str) else scheduler.name
    return WorldSpec(
        delivery="fleet",
        duration_s=duration_s,
        seed=seed,
        label=label or f"city-grid[{scheduler_name}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("wlan")],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            buffer_bytes=client_buffer_bytes,
            prefetch_s=server_prefetch_s,
        ),
        scheduler=scheduler,
        epoch_s=epoch_s,
        min_burst_bytes=min(burst_bytes, client_buffer_bytes),
        utilisation_cap=utilisation_cap,
        platform=platform,
        fleet=FleetSpec(
            deployment="grid",
            grid_rows=grid_rows,
            grid_cols=grid_cols,
            ap_spacing_m=ap_spacing_m,
        ),
    )


def fleet_hotspot_world(
    n_clients: int = 24,
    n_aps: int = 4,
    duration_s: float = 120.0,
    bitrate_bps: float = 128_000.0,
    scheduler="edf",
    burst_bytes: int = 80_000,
    client_buffer_bytes: int = 192_000,
    epoch_s: float = 0.25,
    ap_spacing_m: float = 50.0,
    arena_depth_m: float = 30.0,
    speed_range_m_s: tuple = (0.5, 2.0),
    pause_range_s: tuple = (0.0, 5.0),
    utilisation_cap: float = 0.9,
    coverage_threshold: float = 0.05,
    handoff_check_interval_s: float = 1.0,
    hysteresis_margin: float = 0.1,
    min_dwell_s: float = 5.0,
    handoff_latency_range_s: tuple = (0.05, 0.2),
    gauge_interval_s: float = 5.0,
    seed: int = 0,
    platform=None,
    server_prefetch_s: float = 30.0,
    label: Optional[str] = None,
) -> WorldSpec:
    """A multi-cell hotspot fleet with roaming random-waypoint clients."""
    scheduler_name = (
        scheduler if isinstance(scheduler, str) else scheduler.name
    )
    return WorldSpec(
        delivery="fleet",
        duration_s=duration_s,
        seed=seed,
        label=label or f"fleet-hotspot[{scheduler_name}]",
        clients=uniform_nodes(
            n_clients,
            [InterfaceSpec("bluetooth"), InterfaceSpec("wlan")],
            TrafficSpec("mp3", bitrate_bps=bitrate_bps),
            buffer_bytes=client_buffer_bytes,
            prefetch_s=server_prefetch_s,
        ),
        scheduler=scheduler,
        epoch_s=epoch_s,
        min_burst_bytes=min(burst_bytes, client_buffer_bytes),
        utilisation_cap=utilisation_cap,
        platform=platform,
        fleet=FleetSpec(
            n_aps=n_aps,
            ap_spacing_m=ap_spacing_m,
            arena_depth_m=arena_depth_m,
            speed_range_m_s=tuple(speed_range_m_s),
            pause_range_s=tuple(pause_range_s),
            coverage_threshold=coverage_threshold,
            handoff_check_interval_s=handoff_check_interval_s,
            hysteresis_margin=hysteresis_margin,
            min_dwell_s=min_dwell_s,
            handoff_latency_range_s=tuple(handoff_latency_range_s),
            gauge_interval_s=gauge_interval_s,
            load_aware_selection=True,
        ),
    )
