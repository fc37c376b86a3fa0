"""Three-tier compute topology: sites, device nodes, links, input nodes.

The topology is a forest of trees rooted at cloud sites.  Data flows
strictly upward: an input node feeds its user-edge site, which uplinks to
one carrier-edge site, which uplinks to one cloud site.  Applications can
be hosted at any site on that root path; the links between the input's
user edge and the hosting site are the ones a placement occupies.

Topologies are immutable after construction and safe to share across
threads.  Their only mutable part is a lazily filled cache of derived
lookups (``uplink_by_child``, ``candidate_tables``); a race between
threads only recomputes an identical entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping


class ValidationError(ValueError):
    """A domain invariant or construction precondition was violated."""


class Tier(Enum):
    USER_EDGE = "user"
    CARRIER_EDGE = "carrier"
    CLOUD = "cloud"


class DeviceClass(Enum):
    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"


# Canonical emission order for fleets, ids, and serialized tables.
CLASS_ORDER = (DeviceClass.CPU, DeviceClass.GPU, DeviceClass.FPGA)


@dataclass(frozen=True)
class DeviceNode:
    """One server instance.

    ``capacity`` is in class-specific resource units (GB of RAM for GPU,
    percent-points of fabric for FPGA, abstract units for CPU);
    ``full_cost`` is the money per month charged for using the whole
    device.
    """

    id: str
    site_id: str
    tier: Tier
    device_class: DeviceClass
    capacity: float
    full_cost: float


@dataclass(frozen=True)
class Link:
    """Directed uplink from a child site to its parent site."""

    id: str
    child_site: str
    parent_site: str
    bandwidth_capacity: float  # Mbps
    monthly_cost: float  # money per month for full utilization


@dataclass(frozen=True)
class Site:
    id: str
    tier: Tier
    devices: tuple[str, ...]


@dataclass(frozen=True)
class InputNode:
    """Traffic source attached to a user-edge site.

    The input-to-user-edge hop is not modeled: it carries no cost, no
    latency, and no bandwidth limit.
    """

    id: str
    attached_user_edge: str


@dataclass(frozen=True)
class Topology:
    sites: Mapping[str, Site]
    devices: Mapping[str, DeviceNode]
    links: Mapping[str, Link]
    input_nodes: Mapping[str, InputNode]

    @cached_property
    def uplink_by_child(self) -> Mapping[str, Link]:
        """Child site id -> its (unique) uplink."""
        return {link.child_site: link for link in self.links.values()}

    @cached_property
    def candidate_tables(self) -> dict:
        """(user edge id, app) -> ``solver.CandidateTable``, filled by the solver on first use."""
        return {}


@dataclass(frozen=True)
class FleetSpec:
    """How many servers of one class each site of a tier hosts."""

    device_class: DeviceClass
    count: int
    capacity: float  # per server
    full_cost: float  # per server, per month


@dataclass(frozen=True)
class TierSpec:
    sites: int
    fleet: tuple[FleetSpec, ...] = ()


@dataclass(frozen=True)
class LinkSpec:
    bandwidth_capacity: float  # Mbps
    monthly_cost: float


@dataclass(frozen=True)
class TopologySpec:
    cloud: TierSpec
    carrier: TierSpec
    user: TierSpec
    input_nodes: int
    user_carrier_link: LinkSpec
    carrier_cloud_link: LinkSpec


def topology_spec_errors(spec: TopologySpec) -> list[str]:
    """Why ``build_topology`` refuses the spec; empty when it builds.

    Every non-empty child tier needs a parent tier whose count divides its
    own, for attachment in balanced blocks: carrier sites by cloud sites,
    user sites by carrier sites, input nodes by user sites.  Counts must
    not be negative, a capacity or bandwidth must be finite and > 0, and a
    cost finite and >= 0.
    """
    errors: list[str] = []
    for child_count, parent_count, child_name, parent_name in (
        (spec.carrier.sites, spec.cloud.sites, "carrier sites", "cloud sites"),
        (spec.user.sites, spec.carrier.sites, "user sites", "carrier sites"),
        (spec.input_nodes, spec.user.sites, "input nodes", "user sites"),
    ):
        if child_count == 0:
            continue
        if parent_count == 0:
            errors.append(f"{child_count} {child_name} but no {parent_name} to attach to")
        elif child_count % parent_count != 0:
            errors.append(
                f"{child_name} count {child_count} not divisible by "
                f"{parent_name} count {parent_count}; balanced attachment impossible"
            )
    for tier_name, tier_spec in (("cloud", spec.cloud), ("carrier", spec.carrier), ("user", spec.user)):
        if tier_spec.sites < 0:
            errors.append(f"{tier_name} site count is negative")
        for entry in tier_spec.fleet:
            if entry.count < 0:
                errors.append(f"{tier_name} {entry.device_class.value} server count is negative")
            if entry.count > 0 and not (math.isfinite(entry.capacity) and entry.capacity > 0):
                errors.append(f"{tier_name} {entry.device_class.value} capacity must be finite and > 0")
            if entry.count > 0 and not (math.isfinite(entry.full_cost) and entry.full_cost >= 0):
                errors.append(f"{tier_name} {entry.device_class.value} cost must be finite and >= 0")
    if spec.input_nodes < 0:
        errors.append("input node count is negative")
    for name, link in (("user-carrier", spec.user_carrier_link), ("carrier-cloud", spec.carrier_cloud_link)):
        if not (math.isfinite(link.bandwidth_capacity) and link.bandwidth_capacity > 0):
            errors.append(f"{name} link bandwidth must be finite and > 0")
        if not (math.isfinite(link.monthly_cost) and link.monthly_cost >= 0):
            errors.append(f"{name} link cost must be finite and >= 0")
    return errors


def build_topology(spec: TopologySpec) -> Topology:
    """Build a balanced tree topology from per-tier counts and fleets.

    Children are attached round-robin in contiguous blocks: with c
    children per parent, child i goes to parent i // c.  Ids are derived
    from tier name and index, so identical specs produce identical
    topologies.

    Raises ValidationError listing the ``topology_spec_errors`` of a spec
    it cannot build.
    """
    errors = topology_spec_errors(spec)
    if errors:
        raise ValidationError("invalid topology spec: " + "; ".join(errors))

    sites: dict[str, Site] = {}
    devices: dict[str, DeviceNode] = {}
    links: dict[str, Link] = {}
    parents: list[str] = []  # the site ids of the tier above
    for tier, tier_spec, link_spec in (
        (Tier.CLOUD, spec.cloud, None),
        (Tier.CARRIER_EDGE, spec.carrier, spec.carrier_cloud_link),
        (Tier.USER_EDGE, spec.user, spec.user_carrier_link),
    ):
        fleet = sorted(tier_spec.fleet, key=lambda e: CLASS_ORDER.index(e.device_class))
        per_parent = tier_spec.sites // len(parents) if parents else 0
        ids = []
        for i in range(tier_spec.sites):
            site_id = f"{tier.value}{i:03d}"
            site_devices = []
            for entry in fleet:
                for j in range(entry.count):
                    device_id = f"{site_id}_{entry.device_class.value}{j:02d}"
                    devices[device_id] = DeviceNode(
                        device_id, site_id, tier, entry.device_class, entry.capacity, entry.full_cost
                    )
                    site_devices.append(device_id)
            sites[site_id] = Site(site_id, tier, tuple(site_devices))
            if parents:
                parent = parents[i // per_parent]
                link_id = f"link_{site_id}_{parent}"
                links[link_id] = Link(
                    link_id, site_id, parent, link_spec.bandwidth_capacity, link_spec.monthly_cost
                )
            ids.append(site_id)
        parents = ids

    per_user = spec.input_nodes // len(parents) if parents else 0
    input_nodes: dict[str, InputNode] = {}
    for n in range(spec.input_nodes):
        input_id = f"input{n:03d}"
        input_nodes[input_id] = InputNode(input_id, parents[n // per_user])

    return Topology(sites=sites, devices=devices, links=links, input_nodes=input_nodes)


def root_path_sites(topology: Topology, input_node_id: str) -> list[str]:
    """Sites reachable from an input node, nearest first (user edge up to the root)."""
    node = topology.input_nodes[input_node_id]
    path = [node.attached_user_edge]
    while (link := topology.uplink_by_child.get(path[-1])) is not None:
        path.append(link.parent_site)
    return path


def uplink_path(topology: Topology, input_node_id: str, site_id: str) -> list[str]:
    """Ordered link ids from the input's user edge up to the hosting site.

    Empty when the hosting site is the input's own user edge.  Raises
    ValueError when the site is not an ancestor-or-self of the input's
    user edge (devices in a foreign subtree are unreachable).
    """
    node = topology.input_nodes[input_node_id]
    if site_id not in topology.sites:
        raise KeyError(f"unknown site {site_id!r}")
    current = node.attached_user_edge
    path: list[str] = []
    while current != site_id:
        link = topology.uplink_by_child.get(current)
        if link is None:
            raise ValueError(
                f"site {site_id!r} is not on the uplink path of input {input_node_id!r}"
            )
        path.append(link.id)
        current = link.parent_site
    return path

