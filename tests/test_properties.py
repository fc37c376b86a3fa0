"""Property tests: the splitmix64 lane blocks against the scalar reference,
build_topology against topology_spec_errors and against the reference builder,
the scenario text round trip,
the solver against an oracle, monotone escalation, residual conservation along seeded streams,
whole seeded streams against a reference engine, the LP text of states taking turns on one topology,
the LP text of every model against that of its plain tuples,
and the CLI's exit codes on mutated scenario text."""

import dataclasses
import math
import os
import re
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from edge_placer.cli import main  # noqa: E402
from edge_placer.lp_export import IlpModel, build_ilp, to_lp_text  # noqa: E402
from edge_placer.model import (  # noqa: E402
    CLASS_ORDER,
    DeviceClass,
    FleetSpec,
    LinkSpec,
    Tier,
    TierSpec,
    TopologySpec,
    ValidationError,
    build_topology,
    root_path_sites,
    topology_spec_errors,
)
from edge_placer.pricing import TOLERANCE, AppType, AppVariant  # noqa: E402
from edge_placer.scenario import (  # noqa: E402
    AppEntry,
    Scenario,
    ScenarioError,
    TierPlan,
    cost_performance_demo_scenario,
    paper_scenario,
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)
from edge_placer.simulator import PatternKind, generate_requests, run_simulation  # noqa: E402
from edge_placer.solver import (  # noqa: E402
    Bound,
    PlacementRequest,
    Requirement,
    RequirementKind,
    ResidualState,
    apply_placement,
    candidate_table,
    solve_with_escalation,
)
from test_simulator import (  # noqa: E402
    assert_memo_keeps_the_plain_loop,
    assert_stream_matches_reference,
    check_splitmix64,
)
from test_model import check_build_topology  # noqa: E402
from test_lp_export import plain_text  # noqa: E402
from test_solver import TOL, oracle_solve  # noqa: E402

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@PROPERTY_SETTINGS
@given(seed=st.integers(-2**70, 2**70), count=st.integers(0, 2200))
def test_splitmix64_lane_blocks_equal_the_scalar_reference(seed, count):
    check_splitmix64(seed, count)


@st.composite
def fleets(draw, sound, counts=None):
    capacities = st.sampled_from([2.5, 10.0, 64.0] + ([] if sound else [0.0, -1.0, math.inf, math.nan]))
    costs = st.sampled_from([0.0, 300.0, 9000.0] + ([] if sound else [-1.0, math.inf, math.nan]))
    classes = draw(st.permutations(list(DeviceClass)))[: draw(st.integers(0, 3))]
    counts = st.integers(0 if sound else -1, 3) if counts is None else counts
    return tuple(FleetSpec(cls, draw(counts), draw(capacities), draw(costs)) for cls in classes)


@st.composite
def topology_specs(draw):
    # Half the specs build: no bad value, and every tier 1-3 times as large as the one above.
    sound = draw(st.booleans())
    skew = st.just(0) if sound else st.integers(-1, 1)
    multiplier = st.integers(1 if sound else 0, 3)
    cloud = draw(st.integers(1 if sound else -1, 3))
    carrier = cloud * draw(multiplier) + draw(skew)
    user = carrier * draw(multiplier) + draw(skew)
    inputs = user * draw(multiplier) + draw(skew)
    bandwidths = st.sampled_from([30.0] + ([] if sound else [0.0, math.inf]))
    costs = st.sampled_from([0.0, 5000.0] + ([] if sound else [-1.0, math.nan]))
    return TopologySpec(
        cloud=TierSpec(cloud, draw(fleets(sound))),
        carrier=TierSpec(carrier, draw(fleets(sound))),
        user=TierSpec(user, draw(fleets(sound))),
        input_nodes=inputs,
        user_carrier_link=LinkSpec(draw(bandwidths), draw(costs)),
        carrier_cloud_link=LinkSpec(draw(bandwidths), draw(costs)),
    )


@PROPERTY_SETTINGS
@given(topology_specs())
def test_build_topology_follows_spec_errors(spec):
    errors = topology_spec_errors(spec)
    if errors:
        with pytest.raises(ValidationError):
            build_topology(spec)
        return
    topology = build_topology(spec)
    tiers = [(Tier.CLOUD, spec.cloud), (Tier.CARRIER_EDGE, spec.carrier), (Tier.USER_EDGE, spec.user)]
    by_tier = {tier: [s for s in topology.sites.values() if s.tier is tier] for tier, _ in tiers}
    listed = []
    for (tier, tier_spec), above in zip(tiers, [None, Tier.CLOUD, Tier.CARRIER_EDGE]):
        sites = by_tier[tier]
        assert len(sites) == tier_spec.sites
        for i, site in enumerate(sites):
            link = topology.uplink_by_child.get(site.id)
            if above is None:
                assert link is None
            else:  # balanced blocks: child i of n goes to parent i // (n / parents)
                parents = by_tier[above]
                assert link.parent_site == parents[i // (len(sites) // len(parents))].id
            classes = [topology.devices[d].device_class for d in site.devices]
            assert classes == sorted(classes, key=CLASS_ORDER.index)
            for entry in tier_spec.fleet:
                assert classes.count(entry.device_class) == max(entry.count, 0)
            listed += site.devices
    assert len(topology.links) == spec.carrier.sites + spec.user.sites
    assert len(listed) == len(set(listed)) == len(topology.devices)
    assert set(listed) == set(topology.devices)
    attached = [node.attached_user_edge for node in topology.input_nodes.values()]
    users = [site.id for site in by_tier[Tier.USER_EDGE]]
    assert len(attached) == spec.input_nodes
    if attached:
        assert attached == [u for u in users for _ in range(spec.input_nodes // len(users))]


@st.composite
def wide_topology_specs(draw):
    """Buildable specs with zero-count fleet entries, up to 120 servers of one class per site and up to 1200 inputs."""
    cloud = draw(st.integers(1, 3))
    carrier = cloud * draw(st.integers(0, 3))
    user = carrier * draw(st.integers(0, 3))
    inputs = user * draw(st.integers(0, 3) | st.integers(1000 // user + 1, 1200 // user)) if user else 0
    counts = st.integers(0, 3) | st.integers(99, 120)
    return TopologySpec(
        cloud=TierSpec(cloud, draw(fleets(True, counts))),
        carrier=TierSpec(carrier, draw(fleets(True, counts))),
        user=TierSpec(user, draw(fleets(True, counts))),
        input_nodes=inputs,
        user_carrier_link=LinkSpec(30.0, 5000.0),
        carrier_cloud_link=LinkSpec(100.0, 8000.0),
    )


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(wide_topology_specs())
@example(TopologySpec(  # a zero-count entry, ids from _cpu99 to _cpu100, 1200 inputs
    cloud=TierSpec(1, (FleetSpec(DeviceClass.GPU, 0, 16.0, 0.0), FleetSpec(DeviceClass.CPU, 101, 10.0, 300.0))),
    carrier=TierSpec(2, (FleetSpec(DeviceClass.FPGA, 1, 100.0, 9000.0),)),
    user=TierSpec(4, (FleetSpec(DeviceClass.CPU, 120, 2.5, 0.0),)),
    input_nodes=1200,
    user_carrier_link=LinkSpec(30.0, 5000.0),
    carrier_cloud_link=LinkSpec(100.0, 8000.0),
))
def test_build_topology_equals_the_reference_builder(spec):
    check_build_topology(spec)


names = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
surrogate_names = st.text(st.characters(categories=("Cs", "Ll")), min_size=1, max_size=3)  # UTF-8 cannot hold one
positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
menus = st.lists(positive, max_size=3, unique=True).map(lambda values: tuple(sorted(values)))


FAULTS = ("sites", "fleet", "capacity", "class-key", "unit-price", "multiplier", "flat", "link-cost", "name",
          "app-names", "weight", "menu", "variant-str-class")


def or_refused(fault, kind, values, refused):
    """``values``, or, when ``fault`` is ``kind``, one of the ``refused`` values the reader refuses."""
    return st.sampled_from(refused) if fault == kind else values


@st.composite
def tier_plans(draw, sites, fault):
    # Drawn apart, so a faulty scenario's fleet may count a class its capacities lack; a sound one's may not.
    classes = or_refused(fault, "class-key", st.sampled_from(list(DeviceClass)), ["cpu", "tpu"])
    fleet = draw(st.dictionaries(classes, or_refused(fault, "fleet", st.integers(0, 4), [-1]), max_size=3))
    capacity = draw(st.dictionaries(classes, or_refused(fault, "capacity", positive, [0.0, -1.0]), max_size=3))
    if fault is None:
        capacity |= {cls: draw(positive) for cls in fleet if cls not in capacity}
    sites = draw(or_refused(fault, "sites", st.just(sites), [float(sites), bool(sites)]))
    return TierPlan(sites=sites, fleet=fleet, capacity=capacity)


@st.composite
def app_entries(draw, name, fault):
    classes = draw(st.permutations(list(DeviceClass)))[: draw(st.integers(1, 3))]
    app = AppType(
        name=name,
        transfer_data_size=draw(non_negative),
        bandwidth_demand=draw(positive),
        # A str class leaves the scenario with no text: the writer reads the class's value.
        variants=tuple(AppVariant(cls.value if fault == "variant-str-class" else cls, draw(positive), draw(positive))
                       for cls in classes),
    )
    menu = or_refused(fault, "menu", menus, [(-1.0,), (0.0,), (2.0, 1.0), (1.0, 1.0)])
    price_menu = draw(menu)
    # A sound app has a menu to draw requests from.
    deadline_menu = draw(menus.filter(bool) if fault is None and not price_menu else menu)
    return AppEntry(app, draw(or_refused(fault, "weight", positive, [0.0, -1.0])), price_menu, deadline_menu)


@st.composite
def scenarios(draw):
    # Half are sound: every value one the reader takes.  The rest hold one kind of value it
    # refuses: float or bool site counts, negative fleet counts, capacities, multipliers, weights
    # and menu values of 0 or below, a str class key, negative unit prices, an int
    # flat_server_pricing, a link cost past the float range, a name that is no str or that UTF-8
    # cannot hold, empty, repeated or unencodable app names or no apps, menus that do not increase,
    # or a str variant class, which the writer cannot hold at all.
    fault = draw(st.sampled_from(FAULTS)) if draw(st.booleans()) else None
    cloud = draw(st.integers(0, 2))
    carrier = cloud * draw(st.integers(0, 2))
    user = carrier * draw(st.integers(0, 2))
    if fault == "app-names":
        app_names = draw(st.lists(st.one_of(names, st.sampled_from(["", "a"]), surrogate_names), max_size=3))
    else:
        app_names = draw(st.lists(names.filter(bool), min_size=1, max_size=3, unique=True))
    return Scenario(
        name=draw(or_refused(fault, "name", names, [5, None, "a\ud800", "\udfff"])),
        cloud=draw(tier_plans(cloud, fault)),
        carrier=draw(tier_plans(carrier, fault)),
        user=draw(tier_plans(user, fault)),
        input_nodes=user * draw(st.integers(0, 3)),
        unit_price=draw(st.dictionaries(
            or_refused(fault, "class-key", st.sampled_from(list(DeviceClass)), ["cpu", "tpu"]),
            or_refused(fault, "unit-price", non_negative, [-1.0]),
            min_size=0 if fault else 3,
        )),
        carrier_multiplier=draw(or_refused(fault, "multiplier", positive, [0.0, -1.0])),
        user_multiplier=draw(or_refused(fault, "multiplier", positive, [0.0, -1.0])),
        flat_server_pricing=draw(or_refused(fault, "flat", st.booleans(), [0, 1])),
        user_carrier_link=LinkSpec(draw(positive), draw(or_refused(fault, "link-cost", non_negative, [10**400]))),
        carrier_cloud_link=LinkSpec(draw(positive), draw(non_negative)),
        apps=tuple(draw(app_entries(name, fault)) for name in app_names),
    )


@PROPERTY_SETTINGS
@given(scenarios())
def test_serialized_scenario_parses_back(scenario):
    # An empty validate_scenario means the text parses back to an equal scenario; the reader does
    # not ask that an app be placeable, so that check is off.  When the first violation is a
    # tier's missing capacity, the reader refuses the text with it at the [topology] line, unless
    # it has already refused the text for having no [[apps]].  A scenario with no text is one
    # violation that carries the writer's error.
    violations = validate_scenario(scenario, require_placeable=False)
    try:
        text = serialize_scenario(scenario)
    except (AttributeError, TypeError) as exc:
        assert violations == [f"the scenario has no text form: {exc}"]
        return
    if not violations:
        assert parse_scenario(text) == scenario
    elif scenario.apps and re.fullmatch(r"'\w+_capacity' is missing device class '\w+' used by '\w+_fleet'",
                                        violations[0]):
        with pytest.raises(ScenarioError, match=f"^line 4: {re.escape(violations[0])}$"):
            parse_scenario(text)


@st.composite
def tied_requests(draw):
    """A small forest, residuals and a request whose candidates tie across tiers.

    Every tier gets the same fleet, its costs scaled by a factor of its own,
    so a fleet that costs nothing ties prices exactly; links that cost 1e-10
    per month add less than 1e-9 to them.
    An app that moves no data ties response times exactly, and one that
    moves 1e-11 MB adds less than 1e-9 per link; two processing times
    5e-10 s apart tie within the tolerance too.  Metrics that do not tie
    differ by far more than the tolerance, so it groups no chains.
    Ladder values sit at candidate metrics, offset inside and outside the
    tolerance window.
    """
    classes = st.lists(st.sampled_from(list(DeviceClass)), min_size=1, max_size=3, unique=True)
    fleet = tuple(
        FleetSpec(cls, draw(st.integers(1, 2)), draw(st.sampled_from([4.0, 10.0])),
                  draw(st.sampled_from([0.0, 3000.0, 9000.0])))
        for cls in draw(classes)
    )

    def tier(sites, scale):
        return TierSpec(sites, tuple(dataclasses.replace(e, full_cost=e.full_cost * scale) for e in fleet))

    def link():
        return LinkSpec(draw(st.sampled_from([1.0, 4.0])), draw(st.sampled_from([0.0, 1e-10, 1e-10, 500.0])))

    carrier = draw(st.integers(1, 2))
    user = carrier * draw(st.integers(1, 2))
    scales = draw(st.permutations([1.0, 0.5, 2.0]))
    topology = build_topology(TopologySpec(
        cloud=tier(1, scales[0]), carrier=tier(carrier, scales[1]), user=tier(user, scales[2]), input_nodes=user,
        user_carrier_link=link(), carrier_cloud_link=link(),
    ))
    app = AppType(
        "probe",
        draw(st.sampled_from([0.0, 1e-11, 1e-11, 2.0])),
        draw(st.sampled_from([0.5, 1.0, 2.5])),
        tuple(
            AppVariant(cls, draw(st.sampled_from([1.0, 4.0, 4.0 + 5e-10, 9.0])), draw(st.sampled_from([2.0, 5.0])))
            for cls in draw(classes)
        ),
    )
    state = ResidualState.fresh(topology)
    for device_id in sorted(state.device_remaining):
        state.device_remaining[device_id] *= draw(st.sampled_from([1.0, 1.0, 0.5, 0.0]))
    for link_id in sorted(state.link_remaining):
        state.link_remaining[link_id] *= draw(st.sampled_from([1.0, 1.0, 0.2]))

    input_node = topology.input_nodes[draw(st.sampled_from(sorted(topology.input_nodes)))]
    kind = draw(st.sampled_from(list(RequirementKind)))
    metrics = sorted({
        e.price if kind is RequirementKind.COST_CAP else e.response_time
        for e in candidate_table(topology, input_node, app)
    })
    at_metric = st.tuples(st.sampled_from(metrics), st.sampled_from([-2e-9, -0.4e-9, 0.0, 0.5e-9, 2e-9])).map(sum)
    values = st.floats(0.5, 40.0) if kind is RequirementKind.DEADLINE else st.floats(100.0, 40000.0)
    if metrics:  # a bound that admits every candidate puts the whole table to the tie-break
        values = st.one_of(at_metric, values, st.just(metrics[-1] + 1.0))
    bounds = tuple(sorted({v for v in draw(st.lists(values, min_size=1, max_size=4)) if v > 0})) or (1.0,)
    return topology, state, PlacementRequest(1, app, input_node, Requirement(kind, bounds))


@PROPERTY_SETTINGS
@given(tied_requests())
def test_escalation_matches_oracle_at_first_feasible_bound(case):
    topology, state, request = case
    requirement = request.requirement
    expected = next(
        ((rung, best) for rung, value in enumerate(requirement.bounds)
         if (best := oracle_solve(topology, state, request, Bound(requirement.kind, value))) is not None),
        None,
    )
    placement = solve_with_escalation(topology, state, request).placement
    if expected is None:
        assert placement is None
        return
    rung, (_, _, _, device_id, rt, pr) = expected
    assert placement is not None
    assert placement.device_id == device_id
    assert placement.granted_bound == Bound(requirement.kind, requirement.bounds[rung])
    assert placement.granted_bound is requirement.rungs[rung]
    assert placement.response_time == pytest.approx(rt, abs=TOL)
    assert placement.price == pytest.approx(pr, abs=TOL)


# Offsets inside and just outside the tolerance, and one past every candidate's metric.
@PROPERTY_SETTINGS
@given(tied_requests(), st.one_of(st.sampled_from([0.5e-9, 2e-9, 1e6]), st.floats(1e-6, 1e5)))
def test_looser_rung_keeps_placements_and_may_admit_rejections(case, offset):
    topology, state, request = case
    requirement = request.requirement
    longer = Requirement(requirement.kind, requirement.bounds + (requirement.bounds[-1] + offset,))
    placement = solve_with_escalation(topology, state, request).placement
    escalated = solve_with_escalation(topology, state, dataclasses.replace(request, requirement=longer)).placement
    if placement is None:
        assert escalated is None or escalated.granted_bound is longer.rungs[-1]
        return
    assert escalated == placement
    assert escalated.granted_bound is longer.rungs[requirement.rungs.index(placement.granted_bound)]


@st.composite
def seeded_streams(draw):
    """A sound forest from ``topology_specs``, apps sized to fill it, a pattern and a seed.

    Device capacities are 2.5, 10 or 64 and link bandwidths 30.  Demands
    that divide them run residuals down to 0, and demands a few 1e-10
    above such a divisor take the last placement's residual below 0 by
    less than the tolerance.
    """
    spec = draw(topology_specs().filter(lambda spec: spec.input_nodes > 0 and not topology_spec_errors(spec)))
    entries = []
    for name in ["a", "b"][: draw(st.integers(1, 2))]:
        classes = draw(st.permutations(list(DeviceClass)))[: draw(st.integers(1, 3))]
        demands = st.sampled_from([0.5, 2.5, 2.5 + 2e-10, 5.0 + 3e-10, 32.0])
        app = AppType(
            name,
            draw(st.sampled_from([0.0, 2.0])),
            draw(st.sampled_from([1.0, 7.5, 10.0 + 3e-10, 15.0])),
            tuple(AppVariant(cls, draw(st.sampled_from([1.0, 4.0])), draw(demands)) for cls in classes),
        )
        price_menu = draw(st.lists(st.sampled_from([100.0, 5000.0, 1e6]), min_size=1, max_size=3, unique=True))
        deadline_menu = draw(st.lists(st.sampled_from([3.0, 20.0, 100.0]), min_size=1, max_size=3, unique=True))
        weight = draw(st.sampled_from([1.0, 3.0]))
        entries.append(AppEntry(app, weight, tuple(sorted(price_menu)), tuple(sorted(deadline_menu))))
    return spec, tuple(entries), draw(st.sampled_from(list(PatternKind))), draw(st.integers(0, 2**64 - 1))


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(seeded_streams())
def test_placed_demand_plus_residual_is_capacity(case):
    spec, entries, pattern, seed = case
    topology = build_topology(spec)
    # Given the topology, generate_requests reads only the scenario's apps.
    scenario = dataclasses.replace(paper_scenario(), apps=entries)
    capacity = {d.id: d.capacity for d in topology.devices.values()}
    bandwidth = {l.id: l.bandwidth_capacity for l in topology.links.values()}
    used = dict.fromkeys(capacity, 0.0) | dict.fromkeys(bandwidth, 0.0)
    state = ResidualState.fresh(topology)
    placed = []
    for request in generate_requests(scenario, pattern, 40, seed, topology=topology):
        placement = solve_with_escalation(topology, state, request).placement
        if placement is None:
            continue
        apply_placement(state, placement)
        placed.append(placement)
        used[placement.device_id] += placement.resource_demand
        for link_id in placement.path_link_ids:
            used[link_id] += placement.bandwidth_demand
        for total, remaining in ((capacity, state.device_remaining), (bandwidth, state.link_remaining)):
            assert remaining.keys() == total.keys()
            for key, value in total.items():
                assert abs(used[key] + remaining[key] - value) <= 1e-9, (request.id, key)
                assert remaining[key] >= -TOLERANCE, (request.id, key)
    assert state.placements == placed


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(seeded_streams())
def test_streams_on_one_topology_match_the_reference_engine(case):
    # All three patterns on one shared topology, as the run command places them, against an engine
    # that shares no solver or loop code with run_simulation; the drawn pattern is not used.
    spec, entries, _, seed = case
    topology = build_topology(spec)
    scenario = dataclasses.replace(paper_scenario(), apps=entries)  # given the topology, only apps are read
    for pattern in PatternKind:
        assert_stream_matches_reference(scenario, pattern, 60, seed, topology)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(seeded_streams())
def test_long_streams_decide_as_the_loop_without_its_rejection_memo(case):
    # 2000 requests fill most of a small forest, so most (user edge, app, kind) keys end up rejected
    # and later requests of them are decided by the memo.
    spec, entries, pattern, seed = case
    topology = build_topology(spec)
    scenario = dataclasses.replace(paper_scenario(), apps=entries)  # given the topology, only apps are read
    assert_memo_keeps_the_plain_loop(scenario, pattern, 2000, seed, topology)


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(seeded_streams())
def test_subtrees_decide_alone_as_in_the_whole_stream(case):
    # Requests under different cloud sites share no device or link, so the part of a stream under each
    # root, decided alone on a fresh state and without the rejection memo, decides as the whole run does.
    spec, entries, pattern, seed = case
    topology = build_topology(spec)
    scenario = dataclasses.replace(paper_scenario(), apps=entries)  # given the topology, only apps are read
    parts = {}
    for outcome in run_simulation(scenario, pattern, 2000, seed, topology=topology).outcomes:
        parts.setdefault(root_path_sites(topology, outcome.request.input_node.id)[-1], []).append(outcome)
    for outcomes in parts.values():
        state = ResidualState.fresh(topology)
        for outcome in outcomes:
            alone = solve_with_escalation(topology, state, outcome.request)
            if alone.placement is not None:
                apply_placement(state, alone.placement)
            assert alone == outcome


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(seeded_streams())
def test_lp_text_of_states_taking_turns_is_the_cold_text(case):
    # The live state and a copy lagging a few placements behind build on one warm topology, so each
    # build refreshes the rows and lines the other left in a skeleton; each model is rendered after
    # both builds, and must read as on a topology that never built a model.
    spec, entries, pattern, seed = case
    warm = build_topology(spec)
    scenario = dataclasses.replace(paper_scenario(), apps=entries)  # given the topology, only apps are read
    live = ResidualState.fresh(warm)
    lagging = ResidualState.fresh(warm)
    for request in generate_requests(scenario, pattern, 30, seed, topology=warm):
        cold = build_topology(spec)
        for bound in request.requirement.ladder():
            models = [(state, build_ilp(warm, state, request, bound)) for state in (live, lagging)]
            for state, model in models:
                assert to_lp_text(model) == to_lp_text(build_ilp(cold, state, request, bound)), request.id
        placement = solve_with_escalation(warm, live, request).placement
        if placement is not None:
            apply_placement(live, placement)
            if len(live.placements) % 3 == 0:
                lagging = ResidualState(dict(live.device_remaining), dict(live.link_remaining))
    for table in warm.candidate_tables.values():
        if (skeleton := table.lp_skeleton) is not None:
            assert len(skeleton.residual_rows) == len(skeleton.device_ids) + len(skeleton.link_ids)
            for row, line in skeleton.residual_rows:
                assert f"Subject To\n{line}\nBinary" in to_lp_text(IlpModel("", (), (row,), ()))


# Residuals that render apart from a value they equal (-0.0), are subnormal, huge, infinite or not a
# number, or that .12g rounds.
EDGE_RESIDUALS = [5e-324, -5e-324, 2.5e-310, 1e300, -1e300, math.inf, math.nan, 0.1 + 0.2, 1 / 3,
                  123456789012.5, 9.9999999999995, -2.0000000000004]


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(seeded_streams(), st.lists(st.sampled_from(EDGE_RESIDUALS) | st.floats(), max_size=6))
def test_rendered_models_read_as_their_plain_tuples(case, drawn):
    # Each model, from a cold build or a reused skeleton, renders as the same model rebuilt of plain
    # tuples.  Per request, a copy of the live state has the model's residuals driven to 0.0, -0.0 and
    # the drawn values in turn, so zeros of both signs meet in one model, and the warm topology's
    # skeletons switch between the two states.
    spec, entries, pattern, seed = case
    warm = build_topology(spec)
    scenario = dataclasses.replace(paper_scenario(), apps=entries)  # given the topology, only apps are read
    values = [0.0, -0.0, *drawn]
    live = ResidualState.fresh(warm)
    for request in generate_requests(scenario, pattern, 20, seed, topology=warm):
        driven = ResidualState(dict(live.device_remaining), dict(live.link_remaining))
        for bound in request.requirement.ladder():
            model = build_ilp(warm, live, request, bound)
            assert to_lp_text(model) == plain_text(model), request.id
            for i, row in enumerate(model.rows[2:]):
                key = row.name[len("cap_"):]
                residuals = driven.device_remaining if key in driven.device_remaining else driven.link_remaining
                residuals[key] = values[(i + request.id) % len(values)]
            for topology in (warm, build_topology(spec)):
                model = build_ilp(topology, driven, request, bound)
                assert to_lp_text(model) == plain_text(model), request.id
        placement = solve_with_escalation(warm, live, request).placement
        if placement is not None:
            apply_placement(live, placement)


PRESET_TEXTS = [serialize_scenario(paper_scenario()), serialize_scenario(cost_performance_demo_scenario())]
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
INSERTS = ['"', "[", "]", "{", "}", ",", ":", "=", "#", "\\", " ", "\n", "0", "9", "-", ".", "e",
           "true", "null", "NaN", '"x"', "[]", "{}", "[[apps]]", "[topology]", "name = 1"]


@st.composite
def mutated_texts(draw):
    """A preset's text after 1-3 line, character, token or number mutations."""
    text = draw(st.sampled_from(PRESET_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(["delete-line", "duplicate-line", "insert", "delete", "number"]))
        if mutation in ("delete-line", "duplicate-line"):
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [] if mutation == "delete-line" else [lines[i]] * 2
            text = "\n".join(lines)
        elif mutation == "insert":
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(INSERTS)) + text[i:]
        elif mutation == "delete":
            i = draw(st.integers(0, len(text)))
            text = text[:i] + text[i + draw(st.integers(1, 4)):]
        elif numbers := list(NUMBER.finditer(text)):
            match = draw(st.sampled_from(numbers))
            text = text[:match.start()] + draw(st.sampled_from(["0", "-1", "1e308", "1e20"])) + text[match.end():]
    return text


def small_enough_to_run(text):
    """False for a text that parses to a topology too large to build in a test; True otherwise."""
    try:
        scenario = parse_scenario(text)
    except ScenarioError:
        return True  # run and emit-lp refuse it before building anything
    plans = (scenario.cloud, scenario.carrier, scenario.user)
    return (
        all(plan.sites <= 200 and all(count <= 50 for count in plan.fleet.values()) for plan in plans)
        and scenario.input_nodes <= 2000
    )


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(mutated_texts(), st.sampled_from(["1", "2", "3"]))
def test_cli_exits_with_a_code_never_a_traceback(text, pattern):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.scn")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert main(["validate", "--scenario", path]) in (0, 1, 2)
        if not small_enough_to_run(text):
            return
        out = os.path.join(tmp, "out")
        assert main(["run", "--scenario", path, "--requests", "20", "--out", out]) in (0, 2)
        lp_args = ["--pattern", pattern, "--request-index", "5", "--out", os.path.join(out, "x.lp")]
        assert main(["emit-lp", "--scenario", path, *lp_args]) in (0, 2)
