"""Beacon-to-beacon connectivity graphs and deployment health.

The §6 beacon-based approach has *"the beacon nodes themselves instrument
the terrain conditions based on interactions with other (beacon) nodes"* —
which requires the beacon field to be a usable network in its own right.
This module analyses that network (via :mod:`networkx`):

* :func:`beacon_graph` — the directed hearing graph and its undirected
  mutual-link reduction;
* :func:`deployment_health` — the report an operator wants before relying
  on beacon-side coordination: components, isolated beacons, articulation
  points (single points of failure), degree statistics.

Asymmetry matters: under the noise model beacon A may hear B but not vice
versa, so coordination links are the *mutual* edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..radio import PropagationRealization
from .beacons import BeaconField

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["beacon_graph", "deployment_health", "DeploymentHealth"]


def beacon_graph(
    field: BeaconField,
    realization: PropagationRealization,
    *,
    mutual: bool = True,
) -> "nx.Graph | nx.DiGraph":
    """The beacon hearing graph.

    Args:
        field: the deployed beacons (nodes keyed by beacon id).
        realization: the propagation world.
        mutual: if True (default) return an undirected graph containing only
            bidirectional links (the edges coordination can actually use);
            if False return the directed hearing graph.

    Returns:
        A networkx graph whose nodes carry a ``pos`` attribute.
    """
    hears = realization.connectivity(field.positions(), field)
    np.fill_diagonal(hears, False)
    ids = field.beacon_ids

    import networkx as nx  # imported on use: sweep workers never need it

    graph = nx.Graph() if mutual else nx.DiGraph()
    for b in field:
        graph.add_node(b.beacon_id, pos=(b.position.x, b.position.y))
    edges = hears & hears.T if mutual else hears
    rows, cols = np.nonzero(edges)
    for i, j in zip(rows, cols):
        if mutual and i >= j:
            continue
        graph.add_edge(ids[i], ids[j])
    return graph


@dataclass(frozen=True)
class DeploymentHealth:
    """Network-health summary of a beacon deployment.

    Attributes:
        num_beacons: deployed beacons.
        num_components: connected components of the mutual-link graph.
        largest_component_fraction: beacons in the largest component.
        isolated_beacons: beacons with no mutual link at all.
        articulation_points: beacons whose failure splits a component.
        mean_degree: average mutual-link degree.
        asymmetric_link_fraction: one-way links among all hearing links —
            how non-reciprocal the noise has made the network.
    """

    num_beacons: int
    num_components: int
    largest_component_fraction: float
    isolated_beacons: tuple[int, ...]
    articulation_points: tuple[int, ...]
    mean_degree: float
    asymmetric_link_fraction: float

    @property
    def is_connected(self) -> bool:
        """Whether every beacon can coordinate with every other (mutually)."""
        return self.num_components == 1 and self.num_beacons > 0


def deployment_health(
    field: BeaconField, realization: PropagationRealization
) -> DeploymentHealth:
    """Analyse a deployment's coordination network (see module docstring)."""
    n = len(field)
    if n == 0:
        return DeploymentHealth(
            num_beacons=0,
            num_components=0,
            largest_component_fraction=float("nan"),
            isolated_beacons=(),
            articulation_points=(),
            mean_degree=float("nan"),
            asymmetric_link_fraction=float("nan"),
        )

    hears = realization.connectivity(field.positions(), field)
    np.fill_diagonal(hears, False)
    mutual = hears & hears.T
    total_links = int(hears.sum())
    asymmetric = total_links - int(mutual.sum())

    graph = beacon_graph(field, realization, mutual=True)
    import networkx as nx

    components = list(nx.connected_components(graph))
    largest = max((len(c) for c in components), default=0)
    isolated = tuple(sorted(node for node, deg in graph.degree() if deg == 0))
    articulation = tuple(sorted(nx.articulation_points(graph)))

    return DeploymentHealth(
        num_beacons=n,
        num_components=len(components),
        largest_component_fraction=largest / n,
        isolated_beacons=isolated,
        articulation_points=articulation,
        mean_degree=float(mutual.sum()) / n,
        asymmetric_link_fraction=(asymmetric / total_links) if total_links else 0.0,
    )
