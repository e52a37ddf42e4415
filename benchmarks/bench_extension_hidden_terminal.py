"""Extension — hidden terminals and the RTS/CTS + NAV rescue.

Two senders that cannot hear each other push frames through a shared
access point: their carrier sense never defers, so data frames collide
at the AP.  With RTS/CTS, the AP's CTS (audible to both) arms the hidden
sender's NAV and the data phase is protected — collisions shrink to the
cheap control frames.
"""

from conftest import run_once

from repro.mac import DcfConfig, DcfStation, SpatialMedium, audibility_from_groups
from repro.metrics import format_table
from repro.sim import RandomStreams, Simulator

N_FRAMES = 40
FRAME_BYTES = 1400


def run_configuration(rts_threshold, seed=5):
    sim = Simulator()
    medium = SpatialMedium(
        sim, audibility=audibility_from_groups({"a", "b"}, {"b", "c"})
    )
    streams = RandomStreams(seed=seed)
    received = []
    DcfStation(
        sim, medium, "b", rng=streams.stream("b"),
        on_receive=lambda f: received.append(f),
    )
    config = DcfConfig(rts_threshold_bytes=rts_threshold, rate_bps=2e6)
    senders = [
        DcfStation(sim, medium, name, rng=streams.stream(name), config=config)
        for name in ("a", "c")
    ]

    def burst(sim, station):
        for i in range(N_FRAMES):
            yield station.send("b", FRAME_BYTES, payload=i)

    for sender in senders:
        sim.process(burst(sim, sender))
    sim.run(until=120.0)
    return {
        "config": "RTS/CTS + NAV" if rts_threshold else "bare DCF",
        "delivered": len(received),
        "drops": sum(s.frames_dropped for s in senders),
        "retries": sum(s.retransmissions for s in senders),
        "collisions": medium.frames_collided,
        "airtime_s": medium.busy_time_s,
    }


def run_hidden_terminal_comparison():
    return [run_configuration(None), run_configuration(500)]


def test_bench_hidden_terminal(emit):
    rows = run_once(run_hidden_terminal_comparison)
    emit(
        format_table(
            ["configuration", "delivered", "drops", "retries", "collisions", "airtime (s)"],
            [
                [r["config"], r["delivered"], r["drops"], r["retries"], r["collisions"], r["airtime_s"]]
                for r in rows
            ],
            title=(
                "Extension: hidden-terminal pair through one AP "
                f"({2 * N_FRAMES} frames offered)"
            ),
        )
    )
    bare, protected = rows
    assert bare["collisions"] > 5 * protected["collisions"] or bare["drops"] > 0
    assert protected["delivered"] == 2 * N_FRAMES
    assert protected["drops"] == 0
    assert protected["retries"] < bare["retries"]