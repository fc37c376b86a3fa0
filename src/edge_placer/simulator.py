"""Seeded request streams and the sequential placement loop.

Requests arrive one at a time and are resolved once, in order; accepted
placements consume residual capacity for the rest of the run.  All
randomness comes from a splitmix64 generator with a pinned draw order
per request: (1) app choice from a uniform double against the cumulative
mix, (2) input node from the next output modulo the input count, and,
for pattern 1 only, (3) requirement menu index from the next output
modulo the menu size.  Identical (scenario, pattern, n, seed) therefore
yield identical traces.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .model import Tier, Topology, ValidationError, build_topology
from .rng import splitmix64_outputs
from .scenario import AppEntry, Scenario, scenario_hash
from .solver import (
    PlacementRequest,
    Requirement,
    RequirementKind,
    RequestOutcome,
    ResidualState,
    apply_placement,
    solve_with_escalation,
)


class PatternKind(Enum):
    """Request-requirement mixes of the evaluation study.

    Pattern 1 draws one bound uniformly from the app's combined menu
    (cost caps first, then deadlines).  Pattern 2 gives every request
    the full price ladder, cheapest cap first.  Pattern 3 gives every
    request the full deadline ladder, tightest first.
    """

    PATTERN1 = 1
    PATTERN2 = 2
    PATTERN3 = 3


RequestStream = list[PlacementRequest]


@dataclass(frozen=True)
class Trace:
    scenario_hash: str
    pattern: PatternKind
    seed: int
    outcomes: tuple[RequestOutcome, ...]
    final_state: ResidualState


@dataclass(frozen=True, slots=True)
class MetricsPoint:
    """Running totals at one placement index (1-based, placed requests only)."""

    placements: int
    running_avg_response: float
    tier_counts: Mapping[Tier, int]
    cumulative_price: float


@dataclass(frozen=True)
class MetricsSeries:
    points: tuple[MetricsPoint, ...]
    total_requests: int
    total_rejections: int

    @property
    def total_placed(self) -> int:
        return len(self.points)

    def avg_at(self, placement_index: int) -> float:
        return self.points[placement_index - 1].running_avg_response


def _pattern1_menu(entry: AppEntry) -> list[Requirement]:
    """One single-bound requirement per menu value, shared by every request that draws it."""
    menu = [Requirement(RequirementKind.COST_CAP, (v,)) for v in entry.price_menu]
    menu += [Requirement(RequirementKind.DEADLINE, (v,)) for v in entry.deadline_menu]
    return menu


def generate_requests(
    scenario: Scenario,
    pattern: PatternKind,
    n: int,
    seed: int,
    topology: Topology | None = None,
) -> RequestStream:
    """Draw n requests; ids are the arrival order starting at 1."""
    if n < 0:
        raise ValidationError("request count must be >= 0")
    if topology is None:
        topology = build_topology(scenario.topology_spec())
    input_nodes = [topology.input_nodes[i] for i in sorted(topology.input_nodes)]
    if n > 0 and not input_nodes:
        raise ValidationError("scenario has no input nodes to originate requests")

    # Per app entry, in catalog order: the requirements a request of it draws
    # from (pattern 1, draw 3) or the one it always gets (patterns 2 and 3).
    choices: list[list[Requirement]] = []
    for entry in scenario.apps:
        app_name = entry.app.name
        if pattern is PatternKind.PATTERN1:
            menu = _pattern1_menu(entry)
            if not menu:
                raise ValidationError(f"app {app_name!r} has an empty requirement menu")
            choices.append(menu)
        elif pattern is PatternKind.PATTERN2:
            if not entry.price_menu:
                raise ValidationError(f"app {app_name!r} has an empty price menu")
            choices.append([Requirement(RequirementKind.COST_CAP, entry.price_menu)])
        else:
            if not entry.deadline_menu:
                raise ValidationError(f"app {app_name!r} has an empty deadline menu")
            choices.append([Requirement(RequirementKind.DEADLINE, entry.deadline_menu)])

    apps = [entry.app for entry in scenario.apps]
    cumulative = scenario.mix_cumulative()
    draws_menu = pattern is PatternKind.PATTERN1
    n_inputs = len(input_nodes)
    outputs = splitmix64_outputs(seed)
    stream: RequestStream = []
    append = stream.append
    # zip pulls request_id first, so it stops before drawing past the last
    # request, then the app draw and the input draw (SplitMix64.next_double
    # and next_below, written out); pattern 1 draws its menu index last.
    for request_id, app_draw, input_draw in zip(range(1, n + 1), outputs, outputs):
        k = bisect_right(cumulative, (app_draw >> 11) * 2.0**-53)
        options = choices[k]
        requirement = options[next(outputs) % len(options)] if draws_menu else options[0]
        append(PlacementRequest(request_id, apps[k], input_nodes[input_draw % n_inputs], requirement))
    return stream


def run_simulation(
    scenario: Scenario,
    pattern: PatternKind,
    n: int,
    seed: int,
    topology: Topology | None = None,
) -> Trace:
    """Place n seeded requests strictly in arrival order.

    A given topology must be the scenario's; sharing one across runs shares
    its candidate tables, which do not depend on residual state.
    """
    if topology is None:
        topology = build_topology(scenario.topology_spec())
    stream = generate_requests(scenario, pattern, n, seed, topology=topology)
    state = ResidualState.fresh(topology)
    outcomes = []
    for request in stream:
        outcome = solve_with_escalation(topology, state, request)
        if outcome.placement is not None:
            apply_placement(state, outcome.placement)
        outcomes.append(outcome)
    return Trace(
        scenario_hash=scenario_hash(scenario),
        pattern=pattern,
        seed=seed,
        outcomes=tuple(outcomes),
        final_state=state,
    )


def compute_metrics(trace: Trace) -> MetricsSeries:
    """Running average response over placed requests, tier counts, rejections."""
    points = []
    placed = 0
    response_sum = 0.0
    price_sum = 0.0
    tier_counts = {Tier.USER_EDGE: 0, Tier.CARRIER_EDGE: 0, Tier.CLOUD: 0}
    for outcome in trace.outcomes:
        if not outcome.placed:
            continue
        placement = outcome.placement
        placed += 1
        response_sum += placement.response_time
        price_sum += placement.price
        tier_counts[placement.tier] += 1
        points.append(
            MetricsPoint(
                placements=placed,
                running_avg_response=response_sum / placed,
                tier_counts=dict(tier_counts),
                cumulative_price=price_sum,
            )
        )
    return MetricsSeries(
        points=tuple(points),
        total_requests=len(trace.outcomes),
        total_rejections=len(trace.outcomes) - placed,
    )
