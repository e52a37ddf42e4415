"""Calibrated device power profiles.

Per-state power numbers for the hardware the paper's evaluation used
(iPAQ 3970 PDA, an 802.11b CompactFlash WLAN card, a Bluetooth 1.1
module) plus a GPRS profile for heterogeneous-interface studies.  Values
are drawn from the authors' companion papers (WMASH'04, MMCN'05) and
vendor datasheets; see each factory's docstring for the provenance.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "profiles": (
            "DeviceProfile",
            "bluetooth_module",
            "gprs_modem",
            "ipaq_3970",
            "wlan_cf_card",
        ),
    },
)
