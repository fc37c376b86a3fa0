"""Exact single-request placement under a cost cap or a deadline.

Each request places exactly one application on one device, which fixes
the used links, so the 0-1 program is solved exactly by enumerating
every (device on the input's root path, matching variant) pair.  A
cost cap bounds price and minimizes response time; a deadline bounds
response time and minimizes price: ``KIND_METRICS`` states this once,
for the views, the selection, the granted rung and the LP model.
Requirements carry a ladder of bounds: the tightest bound that admits
any candidate wins, and a whole ladder that fails is a rejection.

A candidate's response time and price depend only on (user edge, app,
device), so each (user edge, app) candidate table is built once per
topology and cached on it (``Topology.candidate_tables``).  The table
maps each bound kind to its entries sorted by the kind's bound metric,
a view built on first use of the kind.  A request's whole ladder is
then one walk up that view (``solve_with_escalation`` hands the ladder
to ``solve_request``, which scans once through ``feasible_candidates``):
the first entry that fits the residuals fixes the tightest admitting
bound, and the walk stops where the metric passes it.  A race between
threads sharing a topology only recomputes an identical table or view.

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
    root_path,
    slot_builder,
)
from .pricing import (
    TOLERANCE,
    AppType,
    AppVariant,
    device_price,
    link_price,
    path_price,
    path_response_time,
    per_link_time,
)


class RequirementKind(Enum):
    __hash__ = object.__hash__  # as model.Tier's
    COST_CAP = "cost_cap"
    DEADLINE = "deadline"


@dataclass(frozen=True, slots=True)
class Bound:
    """One rung of a ladder: a cost cap or a deadline of one value."""

    kind: RequirementKind
    value: float

    @property
    def rungs(self) -> tuple[Bound, ...]:
        """A single bound is a one-rung ladder."""
        return (self,)


@dataclass(frozen=True, slots=True)
class Requirement:
    """A ladder of bounds, tightest first (strictly increasing values)."""

    kind: RequirementKind
    bounds: tuple[float, ...]
    # One Bound per value, built once: the placements granted on a rung share it.
    rungs: tuple[Bound, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.bounds:
            raise ValidationError("requirement needs at least one bound")
        if not all(math.isfinite(b) and b > 0 for b in self.bounds):
            raise ValidationError("requirement bounds must be finite and > 0")
        if any(a >= b for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValidationError("requirement bounds must be strictly increasing")
        object.__setattr__(self, "rungs", tuple(Bound(self.kind, value) for value in self.bounds))

    def ladder(self) -> list[Bound]:
        return list(self.rungs)


@dataclass(frozen=True, slots=True)
class PlacementRequest:
    """One request: which app, from which input node, under which ladder."""

    id: int  # arrival order, 1-based
    app: AppType
    input_node: InputNode
    requirement: Requirement


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class RequestOutcome:
    """Placed (placement set) or rejected (no feasible candidate at any bound)."""

    request: PlacementRequest
    placement: Placement | None

    @property
    def placed(self) -> bool:
        return self.placement is not None


# Builders of the three records made once per request or placement (``model.slot_builder``).
_placement_request, _outcome, _placement = map(slot_builder, (PlacementRequest, RequestOutcome, Placement))


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
    functions accept it as one, and its path's link ids for a placement.
    """

    app: AppType
    device: DeviceNode
    variant: AppVariant
    path: tuple[Link, ...]
    response_time: float
    price: float
    link_ids: tuple[str, ...]


_RESPONSE_TIME = attrgetter("response_time")
_PRICE = attrgetter("price")

# Per kind: (the entry field that its bounds cap, the field that its placement minimizes).
KIND_METRICS = {
    RequirementKind.COST_CAP: (_PRICE, _RESPONSE_TIME),
    RequirementKind.DEADLINE: (_RESPONSE_TIME, _PRICE),
}


class CandidateTable(dict):
    """The nearest-first entries of one (user edge, app) pair, mapping each bound kind to its sorted view.

    A view lists the entries in ascending order of the kind's bound metric
    (``KIND_METRICS``; ties keep nearest-first order) next to those metric
    values, so that a bound admits a prefix that ``bisect`` finds.  A view
    is built on first use of its kind (``table[kind]``).  Entries whose
    response time or price is not finite (a transfer term that overflows)
    are left out of the views (``finite`` lists the rest once): such a
    candidate passes no bound or cannot be ranked, so it is never placed.
    The LP exporter keeps the state-free part of the table's models in
    ``lp_skeleton``, built from ``finite`` on first export.
    """

    __slots__ = ("entries", "finite", "lp_skeleton")

    def __init__(self, entries: tuple[TableEntry, ...]):
        self.entries = entries
        isfinite = math.isfinite
        self.finite = [e for e in entries if isfinite(e.response_time) and isfinite(e.price)]
        self.lp_skeleton = None

    def __missing__(self, kind: RequirementKind) -> tuple[list[float], list[TableEntry]]:
        metric = KIND_METRICS[kind][0]
        ordered = sorted(self.finite, key=metric)
        view = self[kind] = [metric(e) for e in ordered], ordered
        return view


# A TableEntry straight from its field tuple, without the Python-level __new__ that NamedTuple generates.
_new_entry = tuple.__new__


def _table(topology: Topology, input_node: InputNode, app: AppType) -> CandidateTable:
    key = (input_node.attached_user_edge, app)
    table = topology.candidate_tables.get(key)
    if table is None:
        # One walk up the root path, extending the link ids and price terms by one link per level.
        per_link = per_link_time(app)
        sites, devices, variant_for = topology.sites, topology.devices, app.variant_by_class.get
        link_ids: tuple[str, ...] = ()
        link_terms: tuple[float, ...] = ()
        entries = []
        for site_id, path in root_path(topology, input_node.attached_user_edge):
            if path:
                link = path[-1]
                link_ids += (link.id,)
                link_terms += (link_price(link, app),)
            for device_id in sites[site_id].devices:
                device = devices[device_id]
                variant = variant_for(device.device_class)
                if variant is not None:
                    entries.append(_new_entry(TableEntry, (
                        app, device, variant, path,
                        path_response_time(variant, len(path), per_link),
                        path_price(device_price(device, variant), link_terms),
                        link_ids,
                    )))
        table = topology.candidate_tables[key] = CandidateTable(tuple(entries))
    return table


def candidate_table(topology: Topology, input_node: InputNode, app: AppType) -> tuple[TableEntry, ...]:
    """Every compatible pair on the input's root path, nearest site first; cached per topology."""
    return _table(topology, input_node, app).entries


def _granted(rungs: tuple[Bound, ...], metric: float) -> Bound:
    """The tightest rung of a ladder that admits ``metric``, which the loosest rung must admit."""
    for rung in rungs:
        if metric <= rung.value + TOLERANCE:
            return rung


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
    metrics, ordered = _table(topology, request.input_node, request.app)[bound.kind]
    device_remaining = state.device_remaining
    link_remaining = state.link_remaining
    bandwidth = request.app.bandwidth_demand
    admitted: list[TableEntry] = []
    i, stop = 0, bisect_right(metrics, bound.rungs[-1].value + TOLERANCE)
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
                stop = bisect_right(metrics, _granted(bound.rungs, metrics[i - 1]).value + TOLERANCE, i, stop)
            admitted.append(entry)
    return admitted


def _select(entries: list[TableEntry], primary, secondary) -> TableEntry:
    """Deterministic argmin over admitted entries.

    Least ``primary`` metric, ties within TOLERANCE broken by ``secondary``,
    then by tier closest to the user, then by smallest device id.  Along
    one root path, a shorter path is a closer tier.
    """
    if len(entries) == 1:
        return entries[0]
    cut = min(map(primary, entries)) + TOLERANCE
    entries = [e for e in entries if primary(e) <= cut]
    if len(entries) > 1:
        cut = min(map(secondary, entries)) + TOLERANCE
        entries = [e for e in entries if secondary(e) <= cut]
    if len(entries) == 1:
        return entries[0]
    return min(entries, key=lambda e: (len(e.path), e.device.id))


def solve_request(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
    bound: Bound | Requirement,
) -> Placement | None:
    """Optimal placement under the tightest admitting bound of a ladder, or None.

    ``bound`` is a ``Requirement`` or a single ``Bound``; the placement's
    ``granted_bound`` is the ladder rung that admitted it.
    """
    entries = feasible_candidates(topology, state, request, bound)
    if not entries:
        return None
    bounded, minimized = KIND_METRICS[bound.kind]
    granted = _granted(bound.rungs, bounded(entries[0]))
    _, device, variant, _, r, p, link_ids = _select(entries, minimized, bounded)
    return _placement(
        request.id, device.id, device.tier, variant.device_class, link_ids,
        r, p, granted, variant.resource_demand, request.app.bandwidth_demand,
    )


def solve_with_escalation(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
) -> RequestOutcome:
    """Try the requirement's bounds tightest-first; first admitting bound wins."""
    return _outcome(request, solve_request(topology, state, request, request.requirement))


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
