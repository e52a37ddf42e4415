"""Tests for the kernel profiler's install/uninstall and accounting."""

import pytest

from repro.obs import KernelProfiler, TraceBus
from repro.sim import Simulator


def run_timeouts(sim, n=20):
    def proc():
        for _ in range(n):
            yield sim.timeout(0.1)

    sim.process(proc())
    sim.run()


class TestInstallation:
    def test_install_counts_steps_and_kinds(self):
        sim = Simulator()
        profiler = KernelProfiler(queue_sample_every=1)
        profiler.install(sim)
        run_timeouts(sim)
        assert profiler.steps > 0
        assert "Timeout" in profiler.kinds
        assert profiler.kinds["Timeout"].count > 0
        assert profiler.total_wall_s > 0
        assert profiler.queue_depth.count == profiler.steps

    def test_uninstall_restores_class_step(self):
        sim = Simulator()
        profiler = KernelProfiler()
        profiler.install(sim)
        assert "step" in sim.__dict__
        profiler.uninstall(sim)
        assert "step" not in sim.__dict__

    def test_uninstall_restores_traced_step(self):
        # Tracing lives in the class's step(); uninstalling the profiler
        # from a traced simulator leaves no shadow and keeps the trace.
        bus = TraceBus()
        sim = Simulator(trace=bus)
        profiler = KernelProfiler()
        profiler.install(sim)
        profiler.uninstall(sim)
        assert "step" not in sim.__dict__
        steps = 0
        sim.timeout(0.1)
        sim.timeout(0.2)
        while sim.peek() < float("inf"):
            sim.step()
            steps += 1
        assert steps == 2
        assert len(bus.events(layer="sim", kind="dispatch")) == steps

    def test_double_install_rejected(self):
        sim = Simulator()
        profiler = KernelProfiler()
        profiler.install(sim)
        with pytest.raises(RuntimeError):
            profiler.install(sim)

    def test_uninstall_without_install_rejected(self):
        with pytest.raises(RuntimeError):
            KernelProfiler().uninstall(Simulator())

    def test_uninstall_all(self):
        sims = [Simulator(), Simulator()]
        profiler = KernelProfiler()
        for sim in sims:
            profiler.install(sim)
        profiler.uninstall_all()
        for sim in sims:
            assert "step" not in sim.__dict__

    def test_invalid_sampling_period(self):
        with pytest.raises(ValueError):
            KernelProfiler(queue_sample_every=0)


class TestSimulationUnchanged:
    def test_profiled_run_reaches_same_state(self):
        plain, profiled = Simulator(), Simulator()
        profiler = KernelProfiler()
        profiler.install(profiled)
        run_timeouts(plain)
        run_timeouts(profiled)
        assert profiled.now == plain.now


class TestReport:
    def test_report_contains_kinds_and_queue_depth(self):
        sim = Simulator()
        profiler = KernelProfiler(queue_sample_every=1)
        profiler.install(sim)
        run_timeouts(sim)
        report = profiler.report()
        assert "Timeout" in report
        assert "queue depth" in report

    def test_empty_report(self):
        assert "steps: 0" in KernelProfiler().report()
