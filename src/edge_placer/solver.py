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
topology and cached on it (``Topology.candidate_tables``).  Per bound
kind the table also keeps its entries sorted by that kind's bound
metric.  A request's whole ladder is then one walk up that view
(``solve_with_escalation`` hands the ladder to ``solve_request``, which
scans once through ``feasible_candidates``): the first entry that fits
the residuals fixes the tightest admitting bound, and the walk stops
where the metric passes it.  A race between threads sharing a topology
only recomputes an identical table or view.

Residual state is mutated strictly sequentially within one run; distinct
runs own distinct states.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
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

    @property
    def bounds(self) -> tuple[float, ...]:
        """A single bound is a one-bound ladder."""
        return (self.value,)


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
    """One compatible (device, variant) pair with its static response time and price.

    It carries the fields of a ``CandidatePlacement``, so the pricing
    functions accept it as one.
    """

    app: AppType
    device: DeviceNode
    variant: AppVariant
    path: tuple[Link, ...]
    response_time: float
    price: float


# The entry field each bound kind caps.
_BOUND_METRIC = {
    RequirementKind.COST_CAP: attrgetter("price"),
    RequirementKind.DEADLINE: attrgetter("response_time"),
}


class CandidateTable:
    """The nearest-first entries of one (user edge, app) pair, plus one sorted view per bound kind.

    A view lists the entries in ascending order of the kind's bound metric
    (ties keep nearest-first order) next to those metric values, so that a
    bound admits a prefix that ``bisect`` finds.  Views are built on first
    use of their kind.  Entries whose response time or price is not finite
    (a transfer term that overflows) are left out of them: such a candidate
    passes no bound or cannot be ranked, so it is never placed.
    """

    __slots__ = ("entries", "views")

    def __init__(self, entries: tuple[TableEntry, ...]):
        self.entries = entries
        self.views: dict[RequirementKind, tuple[list[float], list[TableEntry]]] = {}

    def view(self, kind: RequirementKind) -> tuple[list[float], list[TableEntry]]:
        view = self.views.get(kind)
        if view is None:
            metric = _BOUND_METRIC[kind]
            finite = (e for e in self.entries if math.isfinite(e.response_time) and math.isfinite(e.price))
            ordered = sorted(finite, key=metric)
            view = self.views[kind] = ([metric(e) for e in ordered], ordered)
        return view


def _table(topology: Topology, input_node: InputNode, app: AppType) -> CandidateTable:
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
                    entries.append(TableEntry(app, device, variant, path, response_time(candidate), price(candidate)))
        table = topology.candidate_tables[key] = CandidateTable(tuple(entries))
    return table


def candidate_table(topology: Topology, input_node: InputNode, app: AppType) -> tuple[TableEntry, ...]:
    """Every compatible pair on the input's root path, nearest site first; cached per topology."""
    return _table(topology, input_node, app).entries


def _granted(bounds: tuple[float, ...], metric: float) -> float:
    """The tightest bound of a ladder that admits ``metric``."""
    return next(b for b in bounds if metric <= b + TOLERANCE)


def feasible_candidates(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
    bound: Bound | Requirement,
) -> list[TableEntry]:
    """The candidates that fit residuals under the tightest admitting bound of a ladder.

    ``bound`` is a ``Requirement`` or a single ``Bound``.  One walk over the
    kind's sorted view, up to the loosest bound: the first entry that fits
    the residuals has the smallest metric of all fitting entries, so it
    fixes the tightest admitting bound (the first ``b`` with
    ``metric <= b + TOLERANCE``), and the walk stops where the metric
    passes that bound.  Listed in ascending order of the bound metric;
    empty when nothing fits at any bound.
    """
    bounds = bound.bounds
    metrics, ordered = _table(topology, request.input_node, request.app).view(bound.kind)
    device_remaining = state.device_remaining
    link_remaining = state.link_remaining
    bandwidth = request.app.bandwidth_demand
    admitted: list[TableEntry] = []
    i, stop = 0, bisect_right(metrics, bounds[-1] + TOLERANCE)
    while i < stop:
        entry = ordered[i]
        i += 1
        if entry.variant.resource_demand > device_remaining[entry.device.id] + TOLERANCE:
            continue
        for link in entry.path:
            if bandwidth > link_remaining[link.id] + TOLERANCE:
                break
        else:
            if not admitted:
                stop = bisect_right(metrics, _granted(bounds, metrics[i - 1]) + TOLERANCE, i, stop)
            admitted.append(entry)
    return admitted


def _select(entries: list[TableEntry], kind: RequirementKind) -> TableEntry:
    """Deterministic argmin over admitted entries.

    Primary metric per bound kind, ties within TOLERANCE broken by the
    secondary metric, then by tier closest to the user, then by smallest
    device id.
    """
    if kind is RequirementKind.COST_CAP:
        scored = [(e.response_time, e.price, e) for e in entries]
    else:
        scored = [(e.price, e.response_time, e) for e in entries]
    best_primary = min(s[0] for s in scored)
    scored = [s for s in scored if s[0] <= best_primary + TOLERANCE]
    best_secondary = min(s[1] for s in scored)
    scored = [s for s in scored if s[1] <= best_secondary + TOLERANCE]
    return min(scored, key=lambda s: (s[2].device.tier.distance_from_user, s[2].device.id))[2]


def solve_request(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
    bound: Bound | Requirement,
) -> Placement | None:
    """Optimal placement under the tightest admitting bound of a ladder, or None.

    ``bound`` is a ``Requirement`` or a single ``Bound``; the placement's
    ``granted_bound`` is the ladder value that admitted it.
    """
    entries = feasible_candidates(topology, state, request, bound)
    if not entries:
        return None
    kind = bound.kind
    granted = _granted(bound.bounds, _BOUND_METRIC[kind](entries[0]))
    _, device, variant, path, r, p = _select(entries, kind)
    return Placement(
        request_id=request.id,
        device_id=device.id,
        tier=device.tier,
        variant_class=variant.device_class,
        path_link_ids=tuple(link.id for link in path),
        response_time=r,
        price=p,
        granted_bound=Bound(kind, granted),
        resource_demand=variant.resource_demand,
        bandwidth_demand=request.app.bandwidth_demand,
    )


def solve_with_escalation(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
) -> RequestOutcome:
    """Try the requirement's bounds tightest-first; first admitting bound wins."""
    return RequestOutcome(request, solve_request(topology, state, request, request.requirement))


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
