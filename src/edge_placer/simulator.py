"""Seeded request streams and the sequential placement loop.

Requests arrive one at a time and are resolved once, in order; accepted
placements consume residual capacity for the rest of the run.  All
randomness comes from one splitmix64 generator, ``splitmix64_outputs``
(reference first outputs for seed 0: 0xE220A8397B1DCDAF,
0x6E789E6AA1B965F4, 0x06C45D188009454F).  The draw order per request is
pinned: (1) app choice from a uniform double (the top 53 bits of the
next output) against the cumulative mix (weights added left to right),
(2) input node from the next output modulo the input count, as an index
into the input ids in string order (``input1000`` before ``input101``),
and, for pattern 1 only, (3) requirement menu index from the next output
modulo the menu size.  Identical (scenario, pattern, n, seed) therefore
yield identical traces, and any reimplementation that follows these
rules reproduces them bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

from .model import Tier, Topology, ValidationError, build_topology
from .scenario import Scenario, scenario_hash
from .solver import (
    PlacementRequest,
    Requirement,
    RequirementKind,
    RequestOutcome,
    ResidualState,
    apply_placement,
    solve_with_escalation,
)


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_outputs(seed: int) -> Iterator[int]:
    """The endless splitmix64 output stream of ``seed`` (taken modulo 2**64)."""
    mask, gamma = _MASK64, _GAMMA  # locals: read on every draw
    state = seed & mask
    while True:
        state = (state + gamma) & mask
        x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        yield x ^ (x >> 31)


class PatternKind(Enum):
    """Request-requirement mixes of the evaluation study.

    Pattern 1 draws one bound uniformly from the app's combined menu
    (cost caps first, then deadlines).  Pattern 2 gives every request
    the full price ladder, cheapest cap first.  Pattern 3 gives every
    request the full deadline ladder, tightest first.
    """

    __hash__ = object.__hash__  # as model.Tier's
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

    def avg_at(self, placement_index: int) -> float:
        return self.points[placement_index - 1].running_avg_response


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
    if n > 0 and not scenario.apps:
        raise ValidationError("scenario has no apps to draw requests from")

    # Per app entry, in catalog order: the requirements a request of it draws
    # from (pattern 1, draw 3) or the one it always gets (patterns 2 and 3).
    choices: list[list[Requirement]] = []
    for entry in scenario.apps:
        if pattern is PatternKind.PATTERN1:  # one single-bound requirement per menu value, shared by its draws
            what = "requirement"
            menu = [Requirement(RequirementKind.COST_CAP, (v,)) for v in entry.price_menu]
            menu += [Requirement(RequirementKind.DEADLINE, (v,)) for v in entry.deadline_menu]
        elif pattern is PatternKind.PATTERN2:
            what, menu = "price", entry.price_menu and [Requirement(RequirementKind.COST_CAP, entry.price_menu)]
        else:
            what, menu = "deadline", entry.deadline_menu and [Requirement(RequirementKind.DEADLINE, entry.deadline_menu)]
        if not menu:
            raise ValidationError(f"app {entry.app.name!r} has an empty {what} menu")
        choices.append(menu)

    apps = [entry.app for entry in scenario.apps]
    cumulative = scenario.mix_cumulative()
    draws_menu = pattern is PatternKind.PATTERN1
    n_inputs = len(input_nodes)
    outputs = splitmix64_outputs(seed)
    stream: RequestStream = []
    append = stream.append
    # zip pulls request_id first, so it stops before drawing past the last
    # request, then the app draw and the input draw (draws 1 and 2 of the
    # module docstring, written out); pattern 1 draws its menu index last.
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

    A request is rejected without a solve when a ladder of the same
    (user edge, app, kind) with an equal or looser loosest bound was
    rejected earlier in the run.  The solver would reject it too: a
    rejection means that no entry of the kind's sorted view up to the
    loosest bound (the prefix ``bisect`` cuts) fits the residuals; the
    view is fixed per (user edge, app), a smaller bound cuts a shorter
    prefix, and residuals only fall.  A rejection consumes nothing, so
    every decision and residual is that of the loop without this memo.
    """
    if topology is None:
        topology = build_topology(scenario.topology_spec())
    stream = generate_requests(scenario, pattern, n, seed, topology=topology)
    state = ResidualState.fresh(topology)
    outcomes = []
    append = outcomes.append
    rejected = {}  # (user edge, app, kind) -> the largest loosest bound rejected
    for request in stream:
        requirement = request.requirement
        key = (request.input_node.attached_user_edge, request.app, requirement.kind)
        loosest = requirement.bounds[-1]
        known = rejected.get(key)
        if known is not None and loosest <= known:
            append(RequestOutcome(request, None))
            continue
        # A module global, read per call: a wrapper set on the module sees every solve.
        outcome = solve_with_escalation(topology, state, request)
        if outcome.placement is not None:
            apply_placement(state, outcome.placement)
        else:  # a miss: no bound was known, or a smaller one
            rejected[key] = loosest
        append(outcome)
    return Trace(
        scenario_hash=scenario_hash(scenario),
        pattern=pattern,
        seed=seed,
        outcomes=tuple(outcomes),
        final_state=state,
    )


def running_totals(outcomes: Iterable[RequestOutcome]) -> Iterator[tuple[int, float, float, dict[Tier, int]]]:
    """Per placed outcome, in order: (placements, average response, price sum, placements per tier).

    The one place that totals a trace: ``compute_metrics``, the trace CSV
    and the run summary all read these yields (``cli.cmd_report`` recomputes
    the average from a trace file on purpose, as a check of the file).  The
    tier counts are one dict, updated in place; copy it to keep a snapshot.
    """
    placed = 0
    response_sum = price_sum = 0.0
    tier_counts = {Tier.USER_EDGE: 0, Tier.CARRIER_EDGE: 0, Tier.CLOUD: 0}
    for outcome in outcomes:
        p = outcome.placement
        if p is None:
            continue
        placed += 1
        response_sum += p.response_time
        average = response_sum / placed
        price_sum += p.price
        tier_counts[p.tier] += 1
        yield placed, average, price_sum, tier_counts


def compute_metrics(trace: Trace) -> MetricsSeries:
    """Running average response over placed requests, tier counts, rejections."""
    points = tuple(
        MetricsPoint(placed, average, dict(tier_counts), price_sum)
        for placed, average, price_sum, tier_counts in running_totals(trace.outcomes)
    )
    return MetricsSeries(points, len(trace.outcomes), len(trace.outcomes) - len(points))
