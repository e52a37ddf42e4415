"""Property-based tests: ARQ delivery invariants under arbitrary loss.

The defining property of ARQ: whatever the loss pattern, the receiver
sees each frame **exactly once, in order**.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.link import BitPipe, StopAndWaitArq
from repro.sim import Simulator


class ScriptedLoss:
    """Deterministic loss pattern: a (cyclic) list of survive booleans."""

    def __init__(self, pattern):
        # Never all-loss: guarantee eventual delivery.
        self.pattern = pattern if any(pattern) else pattern + [True]
        self.index = 0

    def __call__(self, bits, now):
        survives = self.pattern[self.index % len(self.pattern)]
        self.index += 1
        return survives


def run_with_pattern(n_frames, pattern):
    sim = Simulator()
    pipe = BitPipe(sim, rate_bps=1e6, error_process=ScriptedLoss(pattern))
    # A modest retry budget: patterns with any True slot deliver within
    # one cycle of attempts.
    arq = StopAndWaitArq(sim, pipe, max_attempts=200)
    done = []

    def body(sim):
        stats = yield arq.transfer(n_frames)
        done.append(stats)

    sim.process(body(sim))
    sim.run()
    assert done, "transfer must terminate"
    return arq, done[0]


loss_patterns = st.lists(st.booleans(), min_size=1, max_size=40)
frame_counts = st.integers(min_value=0, max_value=12)


@settings(max_examples=60, deadline=None)
@given(frame_counts, loss_patterns)
def test_stop_and_wait_exactly_once_in_order(n_frames, pattern):
    arq, stats = run_with_pattern(n_frames, pattern)
    assert arq.delivered == list(range(n_frames))
    assert stats.delivered_payload_bits == n_frames * arq.frame_bits


@settings(max_examples=40, deadline=None)
@given(frame_counts, loss_patterns)
def test_energy_accounting_is_consistent(n_frames, pattern):
    """tx energy == data+ack transmissions x their airtimes x powers."""
    arq, stats = run_with_pattern(n_frames, pattern)
    pipe = arq.forward
    expected_tx = (
        stats.data_transmissions * pipe.airtime_s(arq.frame_bits)
        + stats.ack_transmissions * pipe.airtime_s(arq.ack_bits)
    ) * pipe.tx_power_w
    assert stats.tx_energy_j == pytest.approx(expected_tx, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(loss_patterns)
def test_transmission_counts_never_below_frame_count(pattern):
    n_frames = 5
    _arq, stats = run_with_pattern(n_frames, pattern)
    assert stats.data_transmissions >= n_frames
