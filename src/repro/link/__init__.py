"""Logical link layer: error control, channel prediction, routing.

Implements the survey's link-layer techniques:

- :mod:`repro.link.arq` — stop-and-wait ARQ with full energy accounting
  ("trading off retransmissions ...");
- :mod:`repro.link.fec` — parametric block FEC ("longer packet sizes due
  to Forward Error Correction") and hybrid ARQ/FEC;
- :mod:`repro.link.adaptive` — error-control adaptation to the current
  channel state;
- :mod:`repro.link.prediction` — channel-state predictors and their
  cost/accuracy/energy trade-off;
- :mod:`repro.link.routing` — energy-efficient ad-hoc routing policies.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "arq": (
            "ArqStats",
            "BitPipe",
            "StopAndWaitArq",
        ),
        "fec": ("FecCode", "HybridArqFec", "fec_energy_per_good_bit"),
        "adaptive": ("AdaptiveErrorControl", "ErrorControlScheme"),
        "prediction": (
            "EwmaPredictor",
            "LastStatePredictor",
            "MarkovPredictor",
            "evaluate_predictor",
        ),
        "routing": (
            "AdHocNetwork",
            "max_lifetime_route",
            "min_energy_route",
            "min_hop_route",
        ),
    },
)
