"""Kernel profiler: wall-clock cost of the simulator's event dispatch.

:class:`KernelProfiler` wraps :meth:`Simulator.step` (by shadowing the
bound method with an instance attribute, so an unprofiled simulator pays
nothing) and records, per event kind (the event's class name):

- how many events of that kind were dispatched,
- total and mean wall-clock time spent dispatching them,

plus queue-depth samples, giving future optimisation PRs a baseline for
"where does the kernel actually spend its time".

Wall-clock numbers never enter the TraceBus — traces stay deterministic;
the profiler's output is a separate report table.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.metrics.report import format_table
from repro.obs.metrics import StreamingHistogram
from repro.sim.stats import RunningStat

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class KindProfile:
    """Accumulated dispatch cost for one event kind."""

    __slots__ = ("kind", "count", "total_s", "max_s")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


class KernelProfiler:
    """Per-event-kind wall-clock profile of ``Simulator.step``.

    Parameters
    ----------
    queue_sample_every:
        Sample the event-queue depth every N steps (1 = every step).
    """

    def __init__(self, queue_sample_every: int = 16) -> None:
        if queue_sample_every < 1:
            raise ValueError("queue sampling period must be >= 1")
        self.kinds: Dict[str, KindProfile] = {}
        self.steps = 0
        self.total_wall_s = 0.0
        self.queue_depth = RunningStat()
        self.queue_depth_hist = StreamingHistogram("kernel.queue_depth")
        self._queue_sample_every = queue_sample_every
        self._sims: List["Simulator"] = []

    # -- installation --------------------------------------------------------

    def install(self, sim: "Simulator") -> None:
        """Shadow ``sim.step`` with the profiled wrapper."""
        if "step" in sim.__dict__:
            raise RuntimeError("a profiler is already installed on this simulator")
        original_step = sim.step
        clock = time.perf_counter

        def profiled_step() -> None:
            head = sim._peek_event()
            kind = type(head).__name__ if head is not None else "<empty>"
            start = clock()
            original_step()
            elapsed = clock() - start
            profile = self.kinds.get(kind)
            if profile is None:
                profile = self.kinds[kind] = KindProfile(kind)
            profile.record(elapsed)
            self.steps += 1
            self.total_wall_s += elapsed
            if self.steps % self._queue_sample_every == 0:
                depth = sim.queue_depth
                self.queue_depth.add(depth)
                self.queue_depth_hist.add(depth)

        sim.step = profiled_step  # type: ignore[method-assign]
        self._sims.append(sim)

    def uninstall(self, sim: "Simulator") -> None:
        """Remove the wrapper, restoring the class's ``step``."""
        for index, installed in enumerate(self._sims):
            if installed is sim:
                del sim.__dict__["step"]
                del self._sims[index]
                return
        raise RuntimeError("profiler is not installed on this simulator")

    def uninstall_all(self) -> None:
        for sim in list(self._sims):
            self.uninstall(sim)

    # -- reporting -----------------------------------------------------------

    def report(self, title: Optional[str] = "Kernel profile") -> str:
        """Per-kind wall-clock table plus a queue-depth summary line."""
        ranked = sorted(
            self.kinds.values(), key=lambda p: (-p.total_s, p.kind)
        )
        total = self.total_wall_s
        rows = [
            [
                profile.kind,
                profile.count,
                profile.total_s * 1e3,
                profile.mean_s * 1e6,
                f"{profile.total_s / total * 100:.1f}%" if total else "0%",
            ]
            for profile in ranked
        ]
        table = format_table(
            ["event kind", "count", "total (ms)", "mean (µs)", "share"],
            rows,
            title=title,
        )
        depth = self.queue_depth
        # depth.max is NaN until the first (every-Nth-step) sample lands;
        # render the depth block only once something was measured.
        depth_part = (
            f"queue depth: mean={depth.mean:.1f} max={depth.max:.0f} "
            f"p95={self.queue_depth_hist.quantile(0.95):.0f}"
            if depth.count
            else "queue depth: unsampled"
        )
        summary = (
            f"steps: {self.steps}  wall: {total * 1e3:.2f} ms  {depth_part}"
            if self.steps
            else "steps: 0"
        )
        return f"{table}\n{summary}"

    def __repr__(self) -> str:
        return f"<KernelProfiler steps={self.steps} kinds={len(self.kinds)}>"
