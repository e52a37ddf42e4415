"""Tests for ARQ protocols over a lossy bit pipe."""

import random

import pytest

from repro.link import BitPipe, StopAndWaitArq
from repro.sim import Simulator

ALL_ARQ = [StopAndWaitArq]


def run_transfer(arq_cls, n_frames, loss_rate=0.0, seed=0, **kwargs):
    sim = Simulator()
    rng = random.Random(seed)
    error = (
        (lambda bits, now: True)
        if loss_rate == 0.0
        else (lambda bits, now: rng.random() >= loss_rate)
    )
    pipe = BitPipe(sim, rate_bps=1e6, error_process=error)
    arq = arq_cls(sim, pipe, **kwargs)
    results = []

    def body(sim):
        stats = yield arq.transfer(n_frames)
        results.append(stats)

    sim.process(body(sim))
    sim.run()
    return arq, results[0]


class TestBitPipe:
    def test_airtime_includes_header(self):
        sim = Simulator()
        pipe = BitPipe(sim, rate_bps=1e6, header_bits=224)
        assert pipe.airtime_s(8000) == pytest.approx((8000 + 224) / 1e6)

    def test_energy_charged_both_ends(self):
        sim = Simulator()
        pipe = BitPipe(sim, rate_bps=1e6, tx_power_w=2.0, rx_power_w=1.0)
        from repro.link import ArqStats

        stats = ArqStats()
        results = []

        def body(sim):
            ok = yield pipe.send(8000, stats)
            results.append(ok)

        sim.process(body(sim))
        sim.run()
        airtime = pipe.airtime_s(8000)
        assert results == [True]
        assert stats.tx_energy_j == pytest.approx(2.0 * airtime)
        assert stats.rx_energy_j == pytest.approx(1.0 * airtime)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BitPipe(sim, rate_bps=0.0)
        with pytest.raises(ValueError):
            BitPipe(sim, rate_bps=1e6, prop_delay_s=-1.0)


@pytest.mark.parametrize("arq_cls", ALL_ARQ)
class TestArqCommon:
    def test_clean_channel_delivers_in_order(self, arq_cls):
        arq, stats = run_transfer(arq_cls, 15)
        assert arq.delivered == list(range(15))
        assert stats.data_transmissions == 15
        assert stats.delivered_payload_bits == 15 * 8000

    def test_lossy_channel_still_delivers_everything(self, arq_cls):
        arq, stats = run_transfer(arq_cls, 25, loss_rate=0.2, seed=3)
        assert arq.delivered == list(range(25))
        assert stats.data_transmissions > 25  # retries happened

    def test_zero_frames_is_trivial(self, arq_cls):
        arq, stats = run_transfer(arq_cls, 0)
        assert arq.delivered == []
        assert stats.total_energy_j == 0.0
        assert stats.energy_per_delivered_bit_j == float("inf")

    def test_energy_grows_with_loss(self, arq_cls):
        _arq_clean, clean = run_transfer(arq_cls, 30, loss_rate=0.0)
        _arq_lossy, lossy = run_transfer(arq_cls, 30, loss_rate=0.3, seed=5)
        assert (
            lossy.energy_per_delivered_bit_j > clean.energy_per_delivered_bit_j
        )

    def test_elapsed_recorded(self, arq_cls):
        _arq, stats = run_transfer(arq_cls, 5)
        assert stats.elapsed_s > 0


class TestStopAndWait:
    def test_attempt_count_geometrically_plausible(self):
        # Data AND ACK each survive with p=0.5, so a full exchange succeeds
        # with p=0.25 -> about 4 data transmissions per frame.
        _arq, stats = run_transfer(StopAndWaitArq, 200, loss_rate=0.5, seed=11)
        per_frame = stats.data_transmissions / 200
        assert 3.0 < per_frame < 5.2

    def test_validation(self):
        sim = Simulator()
        pipe = BitPipe(sim, rate_bps=1e6)
        with pytest.raises(ValueError):
            StopAndWaitArq(sim, pipe, frame_bits=0)
        with pytest.raises(ValueError):
            StopAndWaitArq(sim, pipe, max_attempts=0)
        arq = StopAndWaitArq(sim, pipe)
        with pytest.raises(ValueError):
            arq.transfer(-1)
