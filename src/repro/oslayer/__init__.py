"""Operating-system level power management.

The survey (§1): *"At operating system level a number of techniques for
controlling when wireless devices are on have been proposed in addition
to more traditional CPU voltage scaling and scheduling.  Decisions are
made independently of any application information, and thus must rely on
the quality of the predictive techniques."*

- :mod:`repro.oslayer.shutdown` — dynamic power management of a wireless
  device: fixed-timeout, adaptive-timeout and predictive (exponential
  average) shutdown policies, with the break-even analysis that governs
  when sleeping pays;
- :mod:`repro.oslayer.dvs` — CPU dynamic voltage scaling under an EDF
  schedulability constraint.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "shutdown": (
            "AdaptiveTimeoutPolicy",
            "AlwaysOnPolicy",
            "DevicePowerManager",
            "FixedTimeoutPolicy",
            "OraclePolicy",
            "PredictiveEwmaPolicy",
            "break_even_time_s",
        ),
        "dvs": (
            "CpuFrequency",
            "DvsSchedule",
            "PeriodicTask",
            "select_lowest_feasible_frequency",
        ),
    },
)
