"""Placed access points and their link-budget coverage footprints.

The paper's Section 2 Hotspot is one server cell; the production system
the ROADMAP aims at is a *fleet* of them.  This module provides the
geometry layer: :class:`AccessPointSite` is one placed hotspot (a
co-located WLAN AP and Bluetooth master, like the paper's testbed server)
and :class:`Topology` is the set of sites a deployment comprises.

Coverage is derived, not declared: each site's per-radio
:class:`LinkBudget` maps the received SNR —
``tx power - path loss - noise floor`` — linearly onto ``[0, 1]``
between an SNR floor and ceiling, so the footprint falls out of
:mod:`repro.phy.channel` path-loss physics.  The budget gap between
802.11b (~15 dBm) and Bluetooth class 2 (~4 dBm) reproduces the paper's
"Bluetooth dies first" behaviour *per cell*: a roaming client loses the
Bluetooth link to its current site long before the WLAN link, and loses
WLAN before the next site takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.phy.channel import LogDistancePathLoss, snr_db_from_link_budget

Position = Tuple[float, float]


@dataclass(frozen=True)
class LinkBudget:
    """One radio kind's link budget at a site.

    Quality ramps linearly from 0 (received SNR at or below
    ``snr_floor_db``) to 1 (at or above ``snr_ceiling_db``) — the shape
    the Hotspot's interface-selection thresholds expect.
    """

    tx_power_dbm: float
    snr_floor_db: float = 5.0
    snr_ceiling_db: float = 25.0
    noise_floor_dbm: float = -95.0

    def __post_init__(self) -> None:
        if self.snr_ceiling_db <= self.snr_floor_db:
            raise ValueError("need SNR ceiling > floor")

    def quality(self, path_loss_db: float) -> float:
        """Link quality in [0, 1] at ``path_loss_db`` of propagation loss."""
        snr = snr_db_from_link_budget(
            self.tx_power_dbm, path_loss_db, self.noise_floor_dbm
        )
        if snr <= self.snr_floor_db:
            return 0.0
        if snr >= self.snr_ceiling_db:
            return 1.0
        return (snr - self.snr_floor_db) / (self.snr_ceiling_db - self.snr_floor_db)


#: Defaults: an 802.11b AP (~15 dBm) vs a Bluetooth class 2 master
#: (~4 dBm), both at 2.4 GHz.
WLAN_LINK_BUDGET = LinkBudget(tx_power_dbm=15.0)
BLUETOOTH_LINK_BUDGET = LinkBudget(tx_power_dbm=4.0)


class AccessPointSite:
    """One placed hotspot cell: position + per-radio link budgets.

    Parameters
    ----------
    name:
        Cell identifier, unique within a topology.
    xy:
        Site position, metres.
    radios:
        Link budget per radio kind ("wlan", "bluetooth", ...); defaults
        to a co-located 802.11b AP and Bluetooth master, the paper's
        testbed server.
    path_loss:
        Propagation model with ``loss_db(distance_m)``; defaults to
        indoor log-distance with exponent 3.5.
    """

    def __init__(
        self,
        name: str,
        xy: Position,
        radios: Optional[Dict[str, LinkBudget]] = None,
        path_loss=None,
    ) -> None:
        if not name:
            raise ValueError("site name must not be empty")
        self.name = name
        self.xy = (float(xy[0]), float(xy[1]))
        self.radios = dict(
            radios
            if radios is not None
            else {"wlan": WLAN_LINK_BUDGET, "bluetooth": BLUETOOTH_LINK_BUDGET}
        )
        if not self.radios:
            raise ValueError("site needs at least one radio")
        self.path_loss = path_loss or LogDistancePathLoss(exponent=3.5)

    def distance_to(self, xy: Position) -> float:
        return math.hypot(xy[0] - self.xy[0], xy[1] - self.xy[1])

    def quality(self, kind: str, xy: Position) -> float:
        """Link quality of radio ``kind`` for a client at ``xy``."""
        budget = self.radios.get(kind)
        if budget is None:
            return 0.0
        return budget.quality(self.path_loss.loss_db(self.distance_to(xy)))

    def cell_quality(self, xy: Position) -> float:
        """Best quality any of the site's radios offers at ``xy``.

        The association/handoff signal: a client belongs to the cell
        whose *best* link serves it, and interface selection inside the
        cell then picks which radio actually carries the bursts.
        """
        return max(
            budget.quality(self.path_loss.loss_db(self.distance_to(xy)))
            for budget in self.radios.values()
        )

    def coverage_radius_m(
        self, kind: str, min_quality: float = 0.05, max_radius_m: float = 10_000.0
    ) -> float:
        """Distance at which radio ``kind`` drops to ``min_quality``.

        Found by bisection on the (monotone) path-loss curve; returns
        ``max_radius_m`` if quality never falls that low within it.
        """
        if not 0.0 < min_quality <= 1.0:
            raise ValueError("min quality must be in (0, 1]")
        if self.quality(kind, (self.xy[0] + max_radius_m, self.xy[1])) >= min_quality:
            return max_radius_m
        low, high = 0.0, max_radius_m
        for _ in range(60):
            mid = (low + high) / 2.0
            if self.quality(kind, (self.xy[0] + mid, self.xy[1])) >= min_quality:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def __repr__(self) -> str:
        return (
            f"<AccessPointSite {self.name!r} at {self.xy} "
            f"radios={sorted(self.radios)}>"
        )


class Topology:
    """The deployment's set of sites, with coverage queries.

    Sites are held in insertion order; every ranked query breaks quality
    ties on the site name, so identical deployments yield identical
    association and handoff decisions regardless of construction details.
    """

    def __init__(self, sites: Iterable[AccessPointSite] = ()) -> None:
        self._sites: Dict[str, AccessPointSite] = {}
        for site in sites:
            self.add_site(site)

    def add_site(self, site: AccessPointSite) -> AccessPointSite:
        if site.name in self._sites:
            raise ValueError(f"site {site.name!r} already placed")
        self._sites[site.name] = site
        return site

    def site(self, name: str) -> AccessPointSite:
        try:
            return self._sites[name]
        except KeyError:
            raise KeyError(
                f"unknown site {name!r}; known: {sorted(self._sites)}"
            ) from None

    def sites(self) -> List[AccessPointSite]:
        return list(self._sites.values())

    def site_names(self) -> List[str]:
        return list(self._sites)

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self):
        return iter(self._sites.values())

    def quality(self, site_name: str, kind: str, xy: Position) -> float:
        return self.site(site_name).quality(kind, xy)

    def cell_quality(self, site_name: str, xy: Position) -> float:
        return self.site(site_name).cell_quality(xy)

    def ranked_sites(self, xy: Position) -> List[Tuple[AccessPointSite, float]]:
        """Sites by descending cell quality at ``xy`` (name tie-break)."""
        ranked = [(site, site.cell_quality(xy)) for site in self._sites.values()]
        ranked.sort(key=lambda pair: (-pair[1], pair[0].name))
        return ranked

    def best_site(
        self, xy: Position, exclude: Tuple[str, ...] = ()
    ) -> Optional[Tuple[AccessPointSite, float]]:
        """The best-quality site at ``xy``, or None if all are excluded."""
        ranked = [
            pair for pair in self.ranked_sites(xy) if pair[0].name not in exclude
        ]
        return ranked[0] if ranked else None

    def __repr__(self) -> str:
        return f"<Topology sites={self.site_names()}>"


def linear_deployment(
    n_sites: int,
    spacing_m: float = 50.0,
    y_m: float = 0.0,
    radios: Optional[Dict[str, LinkBudget]] = None,
    path_loss=None,
    name_prefix: str = "ap",
) -> Topology:
    """A corridor of ``n_sites`` hotspots, ``spacing_m`` apart.

    Sites sit at ``x = spacing/2 + i*spacing`` so an arena of width
    ``n_sites * spacing_m`` is symmetrically covered — the canonical
    fleet-scenario floor plan.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    topology = Topology()
    for index in range(n_sites):
        topology.add_site(
            AccessPointSite(
                f"{name_prefix}{index}",
                (spacing_m / 2.0 + index * spacing_m, y_m),
                radios=radios,
                path_loss=path_loss,
            )
        )
    return topology


def grid_deployment(
    rows: int,
    cols: int,
    spacing_m: float = 50.0,
    radios: Optional[Dict[str, LinkBudget]] = None,
    path_loss=None,
    name_prefix: str = "ap",
) -> Topology:
    """A city block of ``rows x cols`` hotspots on a square lattice.

    Site ``(r, c)`` sits at ``(spacing/2 + c*spacing, spacing/2 +
    r*spacing)`` and is named ``{prefix}{r}-{c}`` — deterministic IDs so
    partitioning a grid into shards is a pure function of the spec.  An
    arena of ``cols*spacing x rows*spacing`` metres is symmetrically
    covered, the floor plan behind the city-scale fleet scenarios.
    """
    if rows < 1 or cols < 1:
        raise ValueError("need at least one row and one column")
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    topology = Topology()
    for row in range(rows):
        for col in range(cols):
            topology.add_site(
                AccessPointSite(
                    f"{name_prefix}{row}-{col}",
                    (
                        spacing_m / 2.0 + col * spacing_m,
                        spacing_m / 2.0 + row * spacing_m,
                    ),
                    radios=radios,
                    path_loss=path_loss,
                )
            )
    return topology
