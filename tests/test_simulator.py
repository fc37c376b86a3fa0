import pytest

from edge_placer.cli import trace_csv_text
from edge_placer.model import Tier, ValidationError
from edge_placer.rng import SplitMix64
from edge_placer.simulator import (
    PatternKind,
    compute_metrics,
    generate_requests,
    run_simulation,
)
from edge_placer.solver import RequirementKind, ResidualState, apply_placement


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
        assert sum(last.tier_counts.values()) == metrics.total_placed
        assert metrics.total_placed + metrics.total_rejections == metrics.total_requests

    def test_recomputable_from_trace(self, paper_runs):
        trace = paper_runs.trace(PatternKind.PATTERN3, 2)
        metrics = paper_runs.metrics(PatternKind.PATTERN3, 2)
        placed = [o.placement.response_time for o in trace.outcomes if o.placed]
        acc = 0.0
        for i, (point, rt) in enumerate(zip(metrics.points, placed), start=1):
            acc += rt
            assert point.running_avg_response == pytest.approx(acc / i, abs=1e-12)
