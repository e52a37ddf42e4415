"""Energy-efficient ad-hoc routing policies.

The survey (§1): *"a number of energy efficient ad-hoc routing protocols
have been proposed."*  This module implements the two canonical policies
and a hop-count baseline on a shared network model:

- :func:`min_energy_route` — minimise total transmission energy along the
  path (Rodoplu/Meng style); greedy on energy, blind to battery state,
  so it burns out the nodes on popular corridors;
- :func:`max_lifetime_route` — maximise the minimum residual battery along
  the path (max-min routing, Chang/Tassiulas style), spreading load;
- :func:`min_hop_route` — classic shortest-path baseline.

:class:`AdHocNetwork` holds node positions and batteries, computes
per-link transmission energies from a distance power law, and simulates
routing traffic until the first node dies (the standard network-lifetime
metric).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.phy.battery import Battery


class AdHocNetwork:
    """A static multihop network with per-node batteries.

    Parameters
    ----------
    positions:
        Mapping node id -> (x, y) metres.
    battery_j:
        Initial battery energy per node (scalar for all, or mapping).
    comm_range_m:
        Nodes within this range share a link.
    path_loss_exponent:
        Transmission energy per bit grows as distance**exponent.
    energy_per_bit_at_1m_j:
        Calibration constant for link energies.
    rx_energy_per_bit_j:
        Fixed receive energy per bit at every hop's receiver.
    """

    def __init__(
        self,
        positions: Dict[str, Tuple[float, float]],
        battery_j: float | Dict[str, float] = 100.0,
        comm_range_m: float = 30.0,
        path_loss_exponent: float = 2.0,
        energy_per_bit_at_1m_j: float = 1e-9,
        rx_energy_per_bit_j: float = 5e-10,
    ) -> None:
        if comm_range_m <= 0:
            raise ValueError("communication range must be positive")
        if path_loss_exponent < 1:
            raise ValueError("path-loss exponent must be >= 1")
        self.positions = dict(positions)
        self.comm_range_m = comm_range_m
        self.path_loss_exponent = path_loss_exponent
        self.energy_per_bit_at_1m_j = energy_per_bit_at_1m_j
        self.rx_energy_per_bit_j = rx_energy_per_bit_j
        self.batteries: Dict[str, Battery] = {}
        for node in positions:
            capacity = (
                battery_j[node] if isinstance(battery_j, dict) else battery_j
            )
            self.batteries[node] = Battery(capacity_j=capacity)
        self.graph = nx.Graph()
        self.graph.add_nodes_from(positions)
        nodes = list(positions)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                distance = self.distance(a, b)
                if 0 < distance <= comm_range_m:
                    self.graph.add_edge(a, b, distance=distance)
        self.packets_routed = 0
        self.routing_failures = 0

    def distance(self, a: str, b: str) -> float:
        (xa, ya), (xb, yb) = self.positions[a], self.positions[b]
        return math.hypot(xa - xb, ya - yb)

    def tx_energy_per_bit(self, a: str, b: str) -> float:
        """Transmit energy per bit across the (a, b) link."""
        distance = max(self.graph.edges[a, b]["distance"], 1.0)
        return self.energy_per_bit_at_1m_j * distance**self.path_loss_exponent

    def link_energy_j(self, a: str, b: str, bits: int) -> float:
        """Total (tx + rx) energy to move ``bits`` across one hop."""
        return bits * (self.tx_energy_per_bit(a, b) + self.rx_energy_per_bit_j)

    def alive_subgraph(self) -> nx.Graph:
        """The network restricted to nodes whose batteries are not empty."""
        alive = [n for n in self.graph.nodes if not self.batteries[n].is_empty]
        return self.graph.subgraph(alive)

    def route_energy_j(self, path: Sequence[str], bits: int) -> float:
        """Total energy a packet of ``bits`` consumes along ``path``."""
        return sum(
            self.link_energy_j(a, b, bits) for a, b in zip(path, path[1:])
        )

    def send_packet(self, path: Sequence[str], bits: int) -> bool:
        """Charge batteries along ``path``; False if any node died mid-way."""
        if bits <= 0:
            raise ValueError("packet bits must be positive")
        for a, b in zip(path, path[1:]):
            tx = bits * self.tx_energy_per_bit(a, b)
            rx = bits * self.rx_energy_per_bit_j
            self.batteries[a].draw(power_w=tx, duration_s=1.0)
            self.batteries[b].draw(power_w=rx, duration_s=1.0)
            if self.batteries[a].is_empty or self.batteries[b].is_empty:
                self.packets_routed += 1
                return False
        self.packets_routed += 1
        return True

    @property
    def dead_nodes(self) -> List[str]:
        return [n for n in self.graph.nodes if self.batteries[n].is_empty]

def min_hop_route(
    network: AdHocNetwork, source: str, target: str, bits: int = 8000
) -> Optional[List[str]]:
    """Fewest-hops path over alive nodes, or None if disconnected.

    ``bits`` is accepted (and ignored) so all policies share a signature.
    """
    graph = network.alive_subgraph()
    try:
        return nx.shortest_path(graph, source, target)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def min_energy_route(
    network: AdHocNetwork, source: str, target: str, bits: int = 8000
) -> Optional[List[str]]:
    """Minimum total-energy path over alive nodes, or None."""
    graph = network.alive_subgraph()

    def weight(a: str, b: str, _attrs) -> float:
        return network.link_energy_j(a, b, bits)

    try:
        return nx.dijkstra_path(graph, source, target, weight=weight)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def max_lifetime_route(
    network: AdHocNetwork, source: str, target: str, bits: int = 8000
) -> Optional[List[str]]:
    """Maximise the minimum residual battery along the path.

    Implemented as a widest-path (bottleneck shortest path) where a link's
    width is the post-transmission residual charge of its more-stressed
    endpoint; ties broken by total energy.
    """
    graph = network.alive_subgraph()
    if source not in graph or target not in graph:
        return None

    def cost(a: str, b: str, _attrs) -> float:
        # Lower residual charge => much higher cost; the exponent makes
        # depleted nodes strongly repellent while energy still matters.
        residual = min(
            network.batteries[a].state_of_charge,
            network.batteries[b].state_of_charge,
        )
        energy = network.link_energy_j(a, b, bits)
        return energy / max(residual, 1e-9) ** 3

    try:
        return nx.dijkstra_path(graph, source, target, weight=cost)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def simulate_routing(
    network: AdHocNetwork,
    flows: Iterable[Tuple[str, str]],
    policy,
    bits: int = 8000,
    max_packets: int = 100_000,
) -> dict:
    """Route packets round-robin over ``flows`` until a node dies.

    Returns a summary dict: packets delivered before first death, which
    node died, and the residual-charge spread.
    """
    flow_list = list(flows)
    if not flow_list:
        raise ValueError("need at least one flow")
    delivered = 0
    for i in range(max_packets):
        source, target = flow_list[i % len(flow_list)]
        path = policy(network, source, target, bits)
        if path is None:
            break
        ok = network.send_packet(path, bits)
        if not ok or network.dead_nodes:
            break
        delivered += 1
    residuals = [b.state_of_charge for b in network.batteries.values()]
    return {
        "packets_before_first_death": delivered,
        "dead_nodes": network.dead_nodes,
        "min_residual": min(residuals),
        "mean_residual": sum(residuals) / len(residuals),
    }
