"""repro — reproduction of "Power Saving Techniques for Wireless LANs" (DATE 2005).

The package is organised by protocol layer, mirroring the paper's survey:

- :mod:`repro.sim` — discrete-event simulation kernel (substrate).
- :mod:`repro.phy` — radio power-state machines, channel models, batteries.
- :mod:`repro.mac` — 802.11 DCF/PSM, EC-MAC, aggregation, PAMAS, Bluetooth.
- :mod:`repro.link` — ARQ, FEC, adaptive error control, channel prediction,
  energy-aware routing.
- :mod:`repro.transport` — UDP and a simplified TCP Reno, plus wireless
  mitigations (split connection, snoop).
- :mod:`repro.oslayer` — OS-level device shutdown policies and CPU DVS.
- :mod:`repro.apps` — application traffic generators and proxy adaptations.
- :mod:`repro.core` — the paper's contribution: the Hotspot server and
  client resource managers, QoS contracts and burst schedulers.
- :mod:`repro.devices` — calibrated device power profiles (iPAQ 3970,
  802.11b CF card, Bluetooth module, GPRS).
- :mod:`repro.metrics` — energy accounting, QoS metrics, timelines and
  report rendering.
"""

from repro._namespace import lazy_namespace

__version__ = "1.0.0"


def package_version() -> str:
    """The package version: :data:`__version__`, its one source.

    ``pyproject.toml`` reads the installed version from it too.  Campaign
    artifacts (``repro.exp``) record this so a stored result can be
    traced back to the code that produced it; ``repro --version`` prints
    it.
    """
    return __version__


__getattr__, __dir__, __all__ = lazy_namespace(
    __name__, {"sim": ("Simulator",)}, eager=("__version__", "package_version")
)
