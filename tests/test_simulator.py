import pytest

from itertools import islice
from types import SimpleNamespace

from edge_placer import simulator
from edge_placer.cli import trace_csv_text
from edge_placer.model import Tier, ValidationError, build_topology
from edge_placer.simulator import (
    PatternKind,
    compute_metrics,
    generate_requests,
    run_simulation,
    splitmix64_outputs,
)
from edge_placer.solver import (
    Bound,
    RequirementKind,
    ResidualState,
    apply_placement,
    solve_with_escalation,
)
from test_solver import TOL, oracle_solve


MASK64 = (1 << 64) - 1


def splitmix64_reference(seed: int):
    """Vigna's scalar splitmix64, one output per step: the reference for ``splitmix64_outputs``."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def check_splitmix64(seed: int, count: int) -> int:
    """Assert that the first ``count`` outputs of ``splitmix64_outputs(seed)`` are the reference's; return count."""
    compared = 0
    for k, (lane, scalar) in enumerate(zip(islice(splitmix64_outputs(seed), count), splitmix64_reference(seed))):
        assert lane == scalar, f"seed {seed}: output {k} is {lane:#x}, the reference gives {scalar:#x}"
        compared += 1
    assert compared == count
    return compared


class SplitMix64:
    """One draw per method call, as the pinned draw order names them, from the scalar reference."""

    def __init__(self, seed: int):
        self._outputs = splitmix64_reference(seed)

    def next_u64(self) -> int:
        return next(self._outputs)

    def next_double(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        """Next output modulo n (modulo bias is accepted and pinned)."""
        if n <= 0:
            raise ValueError("n must be > 0")
        return self.next_u64() % n


class TestSplitMix64:
    def test_reference_vectors_seed_0(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_double_conversion(self):
        rng = SplitMix64(0)
        assert rng.next_double() == (0xE220A8397B1DCDAF >> 11) * 2.0**-53
        rng2 = SplitMix64(12345)
        for _ in range(1000):
            assert 0.0 <= rng2.next_double() < 1.0

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 2**64, -1, 2**80 + 5])
    def test_lane_blocks_equal_the_scalar_reference(self, seed):
        # Three whole blocks of 1024 lanes and 7 outputs into the fourth.
        assert check_splitmix64(seed, 3 * 1024 + 7) == 3 * 1024 + 7

    def test_seed_masking_and_modulo(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()
        rng = SplitMix64(9)
        value = SplitMix64(9).next_u64()
        assert rng.next_below(300) == value % 300
        with pytest.raises(ValueError):
            rng.next_below(0)


class TestGenerateRequests:
    def test_empty_stream(self, paper):
        assert generate_requests(paper, PatternKind.PATTERN1, 0, 1) == []

    def test_ids_sequential_from_one(self, paper):
        stream = generate_requests(paper, PatternKind.PATTERN2, 50, 3)
        assert [r.id for r in stream] == list(range(1, 51))

    def test_pattern2_full_price_ladders(self, paper):
        for seed in (1, 42, 2024):
            for request in generate_requests(paper, PatternKind.PATTERN2, 40, seed):
                assert request.requirement.kind is RequirementKind.COST_CAP
                if request.app.name == "NAS.FT":
                    assert request.requirement.bounds == (7000.0, 8500.0, 10000.0)
                else:
                    assert request.requirement.bounds == (12500.0, 20000.0)

    def test_pattern3_full_deadline_ladders(self, paper):
        for request in generate_requests(paper, PatternKind.PATTERN3, 40, 11):
            assert request.requirement.kind is RequirementKind.DEADLINE
            if request.app.name == "NAS.FT":
                assert request.requirement.bounds == (6.0, 7.0, 10.0)
            else:
                assert request.requirement.bounds == (4.0, 8.0)

    def test_pattern1_single_bounds_from_menu(self, paper):
        menus = {
            "NAS.FT": {(RequirementKind.COST_CAP, v) for v in (7000.0, 8500.0, 10000.0)}
            | {(RequirementKind.DEADLINE, v) for v in (6.0, 7.0, 10.0)},
            "MRI-Q": {(RequirementKind.COST_CAP, v) for v in (12500.0, 20000.0)}
            | {(RequirementKind.DEADLINE, v) for v in (4.0, 8.0)},
        }
        seen = {"NAS.FT": set(), "MRI-Q": set()}
        for request in generate_requests(paper, PatternKind.PATTERN1, 500, 5):
            assert len(request.requirement.bounds) == 1
            key = (request.requirement.kind, request.requirement.bounds[0])
            assert key in menus[request.app.name]
            seen[request.app.name].add(key)
        assert seen == menus  # 500 draws cover every menu entry

    def test_mix_ratio_seed_42(self, paper):
        stream = generate_requests(paper, PatternKind.PATTERN2, 1000, 42)
        nas = sum(1 for r in stream if r.app.name == "NAS.FT")
        assert 700 <= nas <= 800

    def test_pinned_draw_order(self, paper, paper_topology):
        # replicate the documented draws with a bare generator
        seed, n = 2718, 25
        rng = SplitMix64(seed)
        inputs = sorted(paper_topology.input_nodes)
        expected = []
        for _ in range(n):
            app = "NAS.FT" if rng.next_double() < 0.75 else "MRI-Q"
            input_id = inputs[rng.next_u64() % len(inputs)]
            menu_size = 6 if app == "NAS.FT" else 4
            menu_index = rng.next_u64() % menu_size
            expected.append((app, input_id, menu_index))
        stream = generate_requests(paper, PatternKind.PATTERN1, n, seed)
        menus = {
            "NAS.FT": [(RequirementKind.COST_CAP, v) for v in (7000.0, 8500.0, 10000.0)]
            + [(RequirementKind.DEADLINE, v) for v in (6.0, 7.0, 10.0)],
            "MRI-Q": [(RequirementKind.COST_CAP, v) for v in (12500.0, 20000.0)]
            + [(RequirementKind.DEADLINE, v) for v in (4.0, 8.0)],
        }
        for request, (app, input_id, menu_index) in zip(stream, expected):
            assert request.app.name == app
            assert request.input_node.id == input_id
            kind, value = menus[app][menu_index]
            assert request.requirement.kind is kind
            assert request.requirement.bounds == (value,)

    @pytest.mark.parametrize("pattern", [PatternKind.PATTERN1, PatternKind.PATTERN2])
    def test_streams_cross_lane_blocks(self, paper, paper_topology, pattern):
        # 1100 requests take 3300 outputs (pattern 1) or 2200 (pattern 2): past the first two lane blocks
        # of 1024 outputs, and past the first 1024 requests, which generate_requests draws together.
        seed, n = 2718, 1100
        rng = SplitMix64(seed)
        inputs = sorted(paper_topology.input_nodes)
        cumulative = paper.mix_cumulative()
        expected = []
        for _ in range(n):
            u = rng.next_double()
            entry = paper.apps[next(i for i, c in enumerate(cumulative) if u < c)]
            input_id = inputs[rng.next_u64() % len(inputs)]
            if pattern is PatternKind.PATTERN1:
                menu = [(RequirementKind.COST_CAP, (v,)) for v in entry.price_menu]
                menu += [(RequirementKind.DEADLINE, (v,)) for v in entry.deadline_menu]
                requirement = menu[rng.next_u64() % len(menu)]
            else:
                requirement = (RequirementKind.COST_CAP, entry.price_menu)
            expected.append((entry.app.name, input_id, requirement))
        stream = generate_requests(paper, pattern, n, seed, topology=paper_topology)
        assert [
            (r.app.name, r.input_node.id, (r.requirement.kind, r.requirement.bounds)) for r in stream
        ] == expected

    @pytest.mark.parametrize("pattern", list(PatternKind))
    def test_stream_rebuilt_from_documented_draws(self, paper, paper_topology, pattern):
        inputs = sorted(paper_topology.input_nodes)
        cumulative = paper.mix_cumulative()
        n = 2000
        for seed in (1, 2, 3, 4, 5, 42):
            rng = SplitMix64(seed)
            expected = []
            for request_id in range(1, n + 1):
                u = rng.next_double()
                entry = paper.apps[next(i for i, c in enumerate(cumulative) if u < c)]
                input_id = inputs[rng.next_below(len(inputs))]
                if pattern is PatternKind.PATTERN1:
                    menu = [(RequirementKind.COST_CAP, v) for v in entry.price_menu]
                    menu += [(RequirementKind.DEADLINE, v) for v in entry.deadline_menu]
                    kind, value = menu[rng.next_below(len(menu))]
                    bounds = (value,)
                elif pattern is PatternKind.PATTERN2:
                    kind, bounds = RequirementKind.COST_CAP, entry.price_menu
                else:
                    kind, bounds = RequirementKind.DEADLINE, entry.deadline_menu
                expected.append((request_id, entry.app, input_id, kind, bounds))
            stream = generate_requests(paper, pattern, n, seed, topology=paper_topology)
            assert [
                (r.id, r.app, r.input_node.id, r.requirement.kind, r.requirement.bounds) for r in stream
            ] == expected, seed

    def test_input_draw_indexes_ids_in_string_order(self, paper):
        # Past input999 the ids take four digits, so string order is not creation order.
        from dataclasses import replace

        from edge_placer.model import build_topology

        scenario = replace(paper, input_nodes=1200)
        topology = build_topology(scenario.topology_spec())
        created = list(topology.input_nodes)
        inputs = sorted(created)
        assert inputs[100:102] == ["input100", "input1000"] and created[100:102] == ["input100", "input101"]
        cumulative = scenario.mix_cumulative()
        seed, n = 42, 2000
        rng = SplitMix64(seed)
        expected, by_creation = [], []
        for _ in range(n):
            u = rng.next_double()
            app = scenario.apps[next(i for i, c in enumerate(cumulative) if u < c)].app
            index = rng.next_below(len(inputs))
            expected.append((app, inputs[index]))
            by_creation.append((app, created[index]))
        stream = generate_requests(scenario, PatternKind.PATTERN2, n, seed, topology=topology)
        assert [(r.app, r.input_node.id) for r in stream] == expected
        assert expected != by_creation

    def test_same_name_apps_keep_their_own_ladders(self, paper):
        # The parser refuses repeated app names; a scenario built in code may hold them.
        from dataclasses import replace

        nas, mri = paper.apps
        twins = replace(paper, apps=(nas, replace(mri, app=replace(mri.app, name=nas.app.name))))
        stream = generate_requests(twins, PatternKind.PATTERN2, 200, 1)
        ladders = {nas.app: nas.price_menu, twins.apps[1].app: mri.price_menu}
        assert {r.app for r in stream} == set(ladders)
        for request in stream:
            assert request.requirement.bounds == ladders[request.app]

    def test_empty_menu_rejected(self, paper):
        from dataclasses import replace

        entry = paper.apps[0]
        crippled = replace(paper, apps=(replace(entry, price_menu=()),) + paper.apps[1:])
        with pytest.raises(ValidationError, match="empty price menu"):
            generate_requests(crippled, PatternKind.PATTERN2, 5, 1)

    @pytest.mark.parametrize("pattern, menus, message", [
        (PatternKind.PATTERN1, ("price_menu", "deadline_menu"), "empty requirement menu"),
        (PatternKind.PATTERN3, ("deadline_menu",), "empty deadline menu"),
    ], ids=["pattern1-both-menus", "pattern3-deadlines"])
    def test_empty_menus_rejected_per_pattern(self, paper, pattern, menus, message):
        from dataclasses import replace

        entry = replace(paper.apps[0], **dict.fromkeys(menus, ()))
        crippled = replace(paper, apps=(entry,) + paper.apps[1:])
        with pytest.raises(ValidationError, match=f"app 'NAS.FT' has an {message}"):
            generate_requests(crippled, pattern, 5, 1)

    def test_no_input_nodes_rejected(self, paper):
        from dataclasses import replace

        no_inputs = replace(paper, input_nodes=0)
        assert generate_requests(no_inputs, PatternKind.PATTERN1, 0, 1) == []
        with pytest.raises(ValidationError, match="scenario has no input nodes to originate requests"):
            generate_requests(no_inputs, PatternKind.PATTERN1, 1, 1)


    def test_no_apps_rejected(self, paper):
        from dataclasses import replace

        no_apps = replace(paper, apps=())
        assert generate_requests(no_apps, PatternKind.PATTERN1, 0, 1) == []
        with pytest.raises(ValidationError, match="^scenario has no apps to draw requests from$"):
            generate_requests(no_apps, PatternKind.PATTERN1, 1, 1)


class TestRunSimulation:
    def test_first_nas_ft_pattern3_at_user_edge(self, paper_runs):
        trace = paper_runs.trace(PatternKind.PATTERN3, 1)
        first = next(o for o in trace.outcomes if o.request.app.name == "NAS.FT")
        assert first.placed
        assert first.placement.tier is Tier.USER_EDGE
        assert first.placement.response_time == pytest.approx(5.8, abs=1e-9)

    def test_pattern2_first_100_all_cloud(self, paper_runs):
        for seed in (1, 2, 42):
            trace = paper_runs.trace(PatternKind.PATTERN2, seed)
            for outcome in trace.outcomes[:100]:
                assert outcome.placed and outcome.placement.tier is Tier.CLOUD

    def test_zero_requests(self, paper, paper_topology):
        trace = run_simulation(paper, PatternKind.PATTERN1, 0, 1)
        assert trace.outcomes == ()
        fresh = ResidualState.fresh(paper_topology)
        assert trace.final_state.device_remaining == fresh.device_remaining
        assert trace.final_state.link_remaining == fresh.link_remaining

    def test_outcome_count_equals_request_count(self, paper_runs):
        trace = paper_runs.trace(PatternKind.PATTERN1, 2)
        assert len(trace.outcomes) == 1000

    def test_replay_reproduces_residuals(self, paper, paper_runs, paper_topology):
        trace = paper_runs.trace(PatternKind.PATTERN2, 3)
        state = ResidualState.fresh(paper_topology)
        for outcome in trace.outcomes:
            if outcome.placed:
                apply_placement(state, outcome.placement)
        assert state.device_remaining == trace.final_state.device_remaining
        assert state.link_remaining == trace.final_state.link_remaining

    def test_deterministic_csv_bytes(self, paper):
        first = trace_csv_text(run_simulation(paper, PatternKind.PATTERN1, 300, 77))
        second = trace_csv_text(run_simulation(paper, PatternKind.PATTERN1, 300, 77))
        assert first == second


def reference_outcomes(topology, stream):
    """An engine that shares no solver or loop code with ``run_simulation``.

    Per request it takes the first rung whose exhaustive ``oracle_solve`` is
    not None, then subtracts the demand from its own residual dicts, walking
    the path up from the input's user edge with ``topology.uplink_by_child``.
    """
    residual = SimpleNamespace(
        device_remaining={d.id: d.capacity for d in topology.devices.values()},
        link_remaining={l.id: l.bandwidth_capacity for l in topology.links.values()},
    )
    outcomes = []
    for request in stream:
        kind = request.requirement.kind
        found = next(
            ((value, best) for value in request.requirement.bounds
             if (best := oracle_solve(topology, residual, request, Bound(kind, value))) is not None),
            None,
        )
        if found is None:
            outcomes.append(None)
            continue
        value, (_, _, _, device_id, rt, pr) = found
        device = topology.devices[device_id]
        residual.device_remaining[device_id] -= request.app.variant_for(device.device_class).resource_demand
        site = request.input_node.attached_user_edge
        while site != device.site_id:
            link = topology.uplink_by_child[site]
            residual.link_remaining[link.id] -= request.app.bandwidth_demand
            site = link.parent_site
        outcomes.append((device_id, device.tier, kind, value, rt, pr))
    return outcomes, residual


def assert_stream_matches_reference(scenario, pattern, n, seed, topology):
    """Run one seeded stream through ``run_simulation`` and ``reference_outcomes`` on ``topology``.

    Compares device, tier, granted rung kind and value, response time and
    price of every request, the rejections and the final residuals;
    returns the number of rejections.
    """
    trace = run_simulation(scenario, pattern, n, seed, topology=topology)
    stream = generate_requests(scenario, pattern, n, seed, topology=topology)
    expected, residual = reference_outcomes(topology, stream)
    assert [o.request for o in trace.outcomes] == stream
    rejected = 0
    for outcome, want in zip(trace.outcomes, expected):
        placement = outcome.placement
        if want is None:
            assert placement is None, outcome.request.id
            rejected += 1
            continue
        device_id, tier, kind, value, rt, pr = want
        assert placement is not None, outcome.request.id
        got = (placement.device_id, placement.tier, placement.granted_bound.kind, placement.granted_bound.value)
        assert got == (device_id, tier, kind, value), outcome.request.id
        assert placement.response_time == pytest.approx(rt, abs=TOL)
        assert placement.price == pytest.approx(pr, abs=TOL)
    for remaining, reference in ((trace.final_state.device_remaining, residual.device_remaining),
                                 (trace.final_state.link_remaining, residual.link_remaining)):
        assert remaining.keys() == reference.keys()
        assert all(abs(remaining[key] - reference[key]) <= TOL for key in reference)
    return rejected


class TestStreamDifferential:
    def test_paper_streams_match_the_reference_engine(self, paper):
        # All three patterns on one shared topology, as the run command places them.  At seed 42,
        # 900 requests each reach the first rejections of every pattern (45, 14 and 2 of them).
        topology = build_topology(paper.topology_spec())
        for pattern in PatternKind:
            rejected = assert_stream_matches_reference(paper, pattern, 900, 42, topology)
            assert rejected > 0, pattern  # rejections are compared too


def plain_outcomes(topology, stream):
    """The batch loop without its rejection memo: every request goes to ``solve_with_escalation``."""
    state = ResidualState.fresh(topology)
    outcomes = []
    for request in stream:
        outcome = solve_with_escalation(topology, state, request)
        if outcome.placed:
            apply_placement(state, outcome.placement)
        outcomes.append(outcome)
    return tuple(outcomes), state


def assert_memo_keeps_the_plain_loop(scenario, pattern, n, seed, topology):
    """``run_simulation`` on ``topology`` decides and leaves residuals as ``plain_outcomes`` does; returns its trace."""
    trace = run_simulation(scenario, pattern, n, seed, topology=topology)
    outcomes, state = plain_outcomes(topology, generate_requests(scenario, pattern, n, seed, topology=topology))
    assert trace.outcomes == outcomes
    assert trace.final_state == state
    return trace


class TestRejectionMemo:
    @pytest.mark.parametrize("pattern, calls", [
        (PatternKind.PATTERN1, 1609), (PatternKind.PATTERN2, 1299), (PatternKind.PATTERN3, 1300),
    ])
    def test_solver_runs_once_per_placement_and_rejected_key(self, paper, paper_topology, monkeypatch,
                                                             pattern, calls):
        # Every placement reaches the solver, and each rejected (user edge, app, kind, loosest bound) at
        # most once.  Patterns 2 and 3 give an app one ladder, so that is exactly once; a pattern 1
        # rejection also covers the same key's smaller bounds, which then never reach it.
        solved = []

        def counted(*args):
            solved.append(args)
            return solve_with_escalation(*args)

        monkeypatch.setattr(simulator, "solve_with_escalation", counted)
        trace = assert_memo_keeps_the_plain_loop(paper, pattern, 10_000, 42, paper_topology)
        placed = sum(o.placed for o in trace.outcomes)
        keys = {
            (r.input_node.attached_user_edge, r.app, r.requirement.kind, r.requirement.bounds[-1])
            for r in (o.request for o in trace.outcomes if not o.placed)
        }
        assert len(solved) == calls
        if pattern is PatternKind.PATTERN1:
            assert calls <= placed + len(keys)
        else:
            assert calls == placed + len(keys)


class TestComputeMetrics:
    def test_running_average_arithmetic(self, paper, paper_topology):
        # two hand-placed outcomes: 7.4 then 4.4 -> averages 7.4, 5.9
        from edge_placer.scenario import scenario_hash
        from edge_placer.simulator import Trace
        from edge_placer.solver import (
            Bound,
            PlacementRequest,
            Requirement,
            RequestOutcome,
            solve_request,
        )

        state = ResidualState.fresh(paper_topology)
        nas = paper.app_entry("NAS.FT").app
        mri = paper.app_entry("MRI-Q").app
        outcomes = []
        for i, (app, bound) in enumerate(
            [(nas, Bound(RequirementKind.COST_CAP, 7000.0)), (mri, Bound(RequirementKind.COST_CAP, 12500.0))],
            start=1,
        ):
            request = PlacementRequest(
                id=i, app=app, input_node=paper_topology.input_nodes["input000"],
                requirement=Requirement(bound.kind, (bound.value,)),
            )
            placement = solve_request(paper_topology, state, request, bound)
            apply_placement(state, placement)
            outcomes.append(RequestOutcome(request=request, placement=placement))
        trace = Trace(
            scenario_hash=scenario_hash(paper), pattern=PatternKind.PATTERN2, seed=0,
            outcomes=tuple(outcomes), final_state=state,
        )
        metrics = compute_metrics(trace)
        assert [p.running_avg_response for p in metrics.points] == [
            pytest.approx(7.4, abs=1e-9),
            pytest.approx(5.9, abs=1e-9),
        ]

    def test_pattern2_average_near_cloud_mix(self, paper_runs):
        metrics = paper_runs.metrics(PatternKind.PATTERN2, 1)
        assert metrics.avg_at(200) == pytest.approx(6.65, abs=0.35)

    def test_pattern3_average_near_edge_mix(self, paper_runs):
        metrics = paper_runs.metrics(PatternKind.PATTERN3, 1)
        assert metrics.avg_at(200) == pytest.approx(5.15, abs=0.35)

    def test_counts_sum_to_placed(self, paper_runs):
        metrics = paper_runs.metrics(PatternKind.PATTERN1, 1)
        last = metrics.points[-1]
        assert sum(last.tier_counts.values()) == len(metrics.points)
        assert len(metrics.points) + metrics.total_rejections == metrics.total_requests

    def test_recomputable_from_trace(self, paper_runs):
        trace = paper_runs.trace(PatternKind.PATTERN3, 2)
        metrics = paper_runs.metrics(PatternKind.PATTERN3, 2)
        placed = [o.placement.response_time for o in trace.outcomes if o.placed]
        acc = 0.0
        for i, (point, rt) in enumerate(zip(metrics.points, placed), start=1):
            acc += rt
            assert point.running_avg_response == pytest.approx(acc / i, abs=1e-12)
