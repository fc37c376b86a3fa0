"""Exact single-request placement under a cost cap or a deadline.

Each request places exactly one application on one device, which fixes
the used links, so the 0-1 program is solved exactly by enumerating
every (device on the input's root path, matching variant) pair.  A
cost-capped request minimizes response time; a deadline request
minimizes price.  Requirements carry a ladder of bounds: the tightest
bound that admits any candidate wins, and a request whose whole ladder
fails is rejected (it consumes nothing).

A candidate's response time and price depend only on (user edge, app,
device), so each (user edge, app) candidate table is built once per
topology and cached on it (``Topology.candidate_tables``); a scan per
bound then only tests the bound and the residuals.  A race between
threads sharing a topology only recomputes an identical table.

Residual state is mutated strictly sequentially within one run; distinct
runs own distinct states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .model import (
    DeviceClass,
    DeviceNode,
    InputNode,
    Link,
    Tier,
    Topology,
    ValidationError,
    root_path_sites,
    uplink_path,
)
from .pricing import (
    TOLERANCE,
    AppType,
    AppVariant,
    CandidatePlacement,
    price,
    response_time,
)


class RequirementKind(Enum):
    COST_CAP = "cost_cap"  # bound on monthly price; objective: response time
    DEADLINE = "deadline"  # bound on response time; objective: price


@dataclass(frozen=True)
class Bound:
    kind: RequirementKind
    value: float


@dataclass(frozen=True)
class Requirement:
    """A ladder of bounds, tightest first (strictly increasing values)."""

    kind: RequirementKind
    bounds: tuple[float, ...]

    def __post_init__(self):
        if not self.bounds:
            raise ValidationError("requirement needs at least one bound")
        if not all(math.isfinite(b) and b > 0 for b in self.bounds):
            raise ValidationError("requirement bounds must be finite and > 0")
        if any(a >= b for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValidationError("requirement bounds must be strictly increasing")

    def ladder(self) -> list[Bound]:
        return [Bound(self.kind, value) for value in self.bounds]


@dataclass(frozen=True)
class PlacementRequest:
    id: int  # arrival order, 1-based
    app: AppType
    input_node: InputNode
    requirement: Requirement


@dataclass(frozen=True)
class Placement:
    """An accepted placement with its admitted bound and solution values."""

    request_id: int
    device_id: str
    tier: Tier
    variant_class: DeviceClass
    path_link_ids: tuple[str, ...]
    response_time: float
    price: float
    granted_bound: Bound
    resource_demand: float
    bandwidth_demand: float


@dataclass(frozen=True)
class RequestOutcome:
    """Placed (placement set) or rejected (no feasible candidate at any bound)."""

    request: PlacementRequest
    placement: Placement | None

    @property
    def placed(self) -> bool:
        return self.placement is not None

    @property
    def rejection_reason(self) -> str | None:
        return None if self.placed else "no-feasible-candidate"


@dataclass
class ResidualState:
    """Remaining device resource and link bandwidth after accepted placements."""

    device_remaining: dict[str, float]
    link_remaining: dict[str, float]
    placements: list[Placement] = field(default_factory=list)

    @classmethod
    def fresh(cls, topology: Topology) -> "ResidualState":
        return cls(
            device_remaining={d.id: d.capacity for d in topology.devices.values()},
            link_remaining={l.id: l.bandwidth_capacity for l in topology.links.values()},
        )


class TableEntry(NamedTuple):
    """One compatible (device, variant) pair with its static response time and price."""

    device: DeviceNode
    variant: AppVariant
    path: tuple[Link, ...]
    response_time: float
    price: float


def candidate_table(topology: Topology, input_node: InputNode, app: AppType) -> tuple[TableEntry, ...]:
    """Every compatible pair on the input's root path, nearest site first; cached per topology."""
    key = (input_node.attached_user_edge, app)
    table = topology.candidate_tables.get(key)
    if table is None:
        entries = []
        for site_id in root_path_sites(topology, input_node.id):
            link_ids = uplink_path(topology, input_node.id, site_id)
            path = tuple(topology.links[link_id] for link_id in link_ids)
            for device_id in topology.sites[site_id].devices:
                device = topology.devices[device_id]
                variant = app.variant_for(device.device_class)
                if variant is not None:
                    candidate = CandidatePlacement(app=app, variant=variant, device=device, path=path)
                    entries.append(TableEntry(device, variant, path, response_time(candidate), price(candidate)))
        table = topology.candidate_tables[key] = tuple(entries)
    return table


def feasible_candidates(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
    bound: Bound,
) -> list[CandidatePlacement]:
    """All candidates on the input's root path that fit residuals and the bound."""
    app = request.app
    limit = bound.value + TOLERANCE
    by_price = bound.kind is RequirementKind.COST_CAP
    candidates: list[CandidatePlacement] = []
    for device, variant, path, r, p in candidate_table(topology, request.input_node, app):
        if not ((p if by_price else r) <= limit):  # also drops NaN
            continue
        if variant.resource_demand > state.device_remaining[device.id] + TOLERANCE:
            continue
        for link in path:
            if app.bandwidth_demand > state.link_remaining[link.id] + TOLERANCE:
                break
        else:
            candidates.append(CandidatePlacement(app=app, variant=variant, device=device, path=path))
    return candidates


def _select(candidates: list[CandidatePlacement], bound: Bound) -> tuple[CandidatePlacement, float, float]:
    """Deterministic argmin over candidates.

    Primary metric per bound kind, ties within TOLERANCE broken by the
    secondary metric, then by tier closest to the user, then by smallest
    device id.
    """
    scored = []
    for candidate in candidates:
        r = response_time(candidate)
        p = price(candidate)
        primary, secondary = (r, p) if bound.kind is RequirementKind.COST_CAP else (p, r)
        scored.append((primary, secondary, candidate, r, p))

    best_primary = min(s[0] for s in scored)
    scored = [s for s in scored if s[0] <= best_primary + TOLERANCE]
    best_secondary = min(s[1] for s in scored)
    scored = [s for s in scored if s[1] <= best_secondary + TOLERANCE]
    _, _, candidate, r, p = min(
        scored, key=lambda s: (s[2].device.tier.distance_from_user, s[2].device.id)
    )
    return candidate, r, p


def solve_request(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
    bound: Bound,
) -> Placement | None:
    """Optimal placement for one request under one bound, or None when infeasible."""
    candidates = feasible_candidates(topology, state, request, bound)
    if not candidates:
        return None
    candidate, r, p = _select(candidates, bound)
    return Placement(
        request_id=request.id,
        device_id=candidate.device.id,
        tier=candidate.device.tier,
        variant_class=candidate.variant.device_class,
        path_link_ids=tuple(link.id for link in candidate.path),
        response_time=r,
        price=p,
        granted_bound=bound,
        resource_demand=candidate.variant.resource_demand,
        bandwidth_demand=candidate.app.bandwidth_demand,
    )


def solve_with_escalation(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
) -> RequestOutcome:
    """Try the requirement's bounds tightest-first; first admitting bound wins."""
    for bound in request.requirement.ladder():
        placement = solve_request(topology, state, request, bound)
        if placement is not None:
            return RequestOutcome(request=request, placement=placement)
    return RequestOutcome(request=request, placement=None)


def apply_placement(state: ResidualState, placement: Placement) -> None:
    """Commit a placement: decrement residuals and record it.

    Raises ValidationError instead of over-committing when the placement
    no longer fits.
    """
    if placement.resource_demand > state.device_remaining[placement.device_id] + TOLERANCE:
        raise ValidationError(
            f"placement of request {placement.request_id} over-commits device {placement.device_id!r}"
        )
    for link_id in placement.path_link_ids:
        if placement.bandwidth_demand > state.link_remaining[link_id] + TOLERANCE:
            raise ValidationError(
                f"placement of request {placement.request_id} over-commits link {link_id!r}"
            )
    state.device_remaining[placement.device_id] -= placement.resource_demand
    for link_id in placement.path_link_ids:
        state.link_remaining[link_id] -= placement.bandwidth_demand
    state.placements.append(placement)
