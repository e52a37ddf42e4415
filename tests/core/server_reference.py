"""Test-only reference: the Hotspot round joined with an ``AllOf``.

``HotspotServer._scheduling_loop`` waits on each channel's serving
process in turn, so a round ends in the dispatch of its last channel.
Before that it joined the channels with ``sim.all_of(serving)``, an
event of its own that fires one dispatch after the last channel.  That
loop is kept here as the oracle ``test_server_join.py`` compares the
sequential join against.  The body is the ``AllOf`` form's, unchanged,
except that it logs the channel count of every join that fired.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.scheduling import BurstRequest


def all_of_scheduling_loop(joins: List[int]):
    """A ``HotspotServer._scheduling_loop`` that joins with ``AllOf`` and
    appends each fired join's channel count to ``joins``."""

    def loop(self):
        while True:
            yield self.sim.timeout(self.epoch_s)
            self.rounds += 1
            requests = self._build_requests()
            if not requests:
                continue
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "core",
                    "server",
                    "round",
                    number=self.rounds,
                    requests=len(requests),
                    scheduler=self.scheduler.name,
                )
            ordered = self.scheduler.order(requests, self.sim.now)
            by_channel: Dict[str, List[BurstRequest]] = {}
            for request in ordered:
                session = self.sessions.get(request.client)
                if session is None:
                    continue  # handed off between build and dispatch
                by_channel.setdefault(session.interface or "", []).append(request)
            serving = [
                self.sim.process(
                    self._serve_channel(channel, channel_requests),
                    name=f"serve:{channel}",
                )
                for channel, channel_requests in by_channel.items()
            ]
            yield self.sim.all_of(serving)
            joins.append(len(serving))

    return loop
