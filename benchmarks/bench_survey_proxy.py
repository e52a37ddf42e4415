"""Survey claim — "Most proxy adaptations to date have been relatively
simple, such as dropping video content and delivering only audio in
adverse conditions."

An audio+video stream crosses a proxy while the link degrades mid-run;
the bench reports bytes forwarded/dropped and the resulting WNIC energy
of delivering the (reduced) stream over a managed WLAN interface.
"""

from conftest import run_once

from repro.apps import MediaProxy, Mp3Stream, VideoStream
from repro.apps.traffic import merge_arrivals
from repro.core.interfaces import wlan_interface
from repro.metrics import format_table
from repro.phy import ScriptedLinkQuality
from repro.sim import Simulator

DURATION_S = 60.0
DEGRADE_AT_S = 30.0


def delivery_energy_j(arrivals):
    """Energy to receive the arrival list over a managed WLAN interface,
    bursting every second and sleeping in between."""
    sim = Simulator()
    interface = wlan_interface(sim)
    by_second: dict[int, int] = {}
    for time_s, nbytes, _kind in arrivals:
        by_second[int(time_s)] = by_second.get(int(time_s), 0) + nbytes

    def driver(sim):
        yield interface.sleep()
        for second in range(int(DURATION_S)):
            target = float(second)
            if target > sim.now:
                yield sim.timeout(target - sim.now)
            nbytes = by_second.get(second, 0)
            if nbytes:
                yield interface.wake()
                yield interface.transfer(nbytes)
                yield interface.sleep()

    sim.process(driver(sim))
    sim.run(until=DURATION_S)
    return interface.radio.energy_j()


def run_proxy():
    stream = merge_arrivals(
        [Mp3Stream(bitrate_bps=128_000.0), VideoStream(frame_rate_fps=15.0)],
        until_s=DURATION_S,
    )
    quality = ScriptedLinkQuality([(0.0, 1.0), (DEGRADE_AT_S, 0.2)])
    proxy = MediaProxy(quality_signal=quality.quality)
    adapted = proxy.filter_stream(stream)
    rows = [
        {
            "config": "no proxy",
            "bytes": sum(n for _t, n, _k in stream),
            "energy_j": delivery_energy_j(stream),
            "audio_intact": True,
        },
        {
            "config": "drop-video proxy",
            "bytes": sum(n for _t, n, _k in adapted),
            "energy_j": delivery_energy_j(adapted),
            "audio_intact": sum(
                1 for _t, _n, k in adapted if k == "audio"
            ) == sum(1 for _t, _n, k in stream if k == "audio"),
        },
    ]
    return rows, proxy


def test_bench_proxy(emit):
    rows, proxy = run_once(run_proxy)
    emit(
        format_table(
            ["configuration", "bytes delivered", "WNIC energy (J)", "audio intact"],
            [[r["config"], r["bytes"], r["energy_j"], r["audio_intact"]] for r in rows],
            title="Survey: proxy drops video, keeps audio in adverse conditions",
        )
        + f"\n\nbytes saved by proxy: {proxy.stats.bytes_saved_fraction * 100:.1f}% "
        f"(all after t={DEGRADE_AT_S:.0f}s degradation)"
    )
    baseline, adapted = rows
    assert adapted["audio_intact"], "audio must survive adaptation"
    assert adapted["bytes"] < baseline["bytes"]
    assert adapted["energy_j"] < baseline["energy_j"]
    # Video flowed before the degradation, so savings are partial.
    assert 0.1 < proxy.stats.bytes_saved_fraction < 0.9
