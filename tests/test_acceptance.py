"""Acceptance gate: every criterion as one test, reported in the terminal summary.

Criterion 2 and 3 use the pinned seed set below.  Each criterion pins its
tolerances here; nothing is deferred to later calibration.
"""

import time

import pytest

from edge_placer.cli import trace_csv_text
from edge_placer.lp_export import build_ilp, to_lp_text
from edge_placer.model import (
    DeviceClass,
    DeviceNode,
    Tier,
    build_topology,
    uplink_path,
)
from edge_placer.pricing import CandidatePlacement, price, response_time
from edge_placer.scenario import cost_performance_demo_scenario
from edge_placer.simulator import PatternKind, compute_metrics, run_simulation
from edge_placer.solver import (
    Bound,
    PlacementRequest,
    Requirement,
    RequirementKind,
    ResidualState,
    apply_placement,
    feasible_candidates,
    solve_request,
)

from test_lp_export import enumerate_optimum, paper_sample, parse_lp_text
from test_solver import oracle_solve, random_instance

ACCEPTANCE_SEEDS = (1, 2, 3, 4, 5)
POINT_TOL = 1e-9
# "trend" checkpoints: running average sampled every 100 placements, with
# 0.05 s of slack for mix noise between checkpoints
TREND_STEP = 100
TREND_SLACK = 0.05


def candidate_at(topology, app, device_id, input_id):
    device = topology.devices[device_id]
    path = tuple(
        topology.links[l] for l in uplink_path(topology, input_id, device.site_id)
    )
    return CandidatePlacement(
        app=app, variant=app.variant_for(device.device_class), device=device, path=path
    )


def test_criterion_1_point_values(paper, paper_topology):
    nas = paper.app_entry("NAS.FT").app
    mri = paper.app_entry("MRI-Q").app

    # response times: processing + links * 8*MB/Mbps  (hand arithmetic)
    nas_per_link = 8 * 0.2 / 2  # 0.8 s
    mri_per_link = 8 * 0.15 / 1  # 1.2 s
    cases = [
        (nas, "user000_gpu00", 5.8 + 0 * nas_per_link),
        (nas, "carrier000_gpu00", 5.8 + 1 * nas_per_link),
        (nas, "cloud000_gpu00", 5.8 + 2 * nas_per_link),
        (mri, "carrier000_fpga00", 2.0 + 1 * mri_per_link),
        (mri, "cloud000_fpga00", 2.0 + 2 * mri_per_link),
    ]
    for app, device_id, expected in cases:
        c = candidate_at(paper_topology, app, device_id, "input000")
        assert response_time(c) == pytest.approx(expected, abs=POINT_TOL)
    # no FPGA exists at the user edge; the zero-hop response time is still
    # defined by the pricing rule, checked on a synthetic device
    synthetic = DeviceNode("synthetic_fpga", "user000", Tier.USER_EDGE, DeviceClass.FPGA, 100.0, 0.0)
    zero_hop = CandidatePlacement(app=mri, variant=mri.variant_for(DeviceClass.FPGA), device=synthetic, path=())
    assert response_time(zero_hop) == pytest.approx(2.0, abs=POINT_TOL)

    # prices (hand arithmetic from the preset's constants)
    price_cases = [
        (nas, "cloud000_gpu00", 100000 / 16 + 5000 * 2 / 30 + 8000 * 2 / 100),   # 6743.3333
        (nas, "carrier000_gpu00", 6250 * 1.25 * 8 / 8 + 5000 * 2 / 30),          # 8145.8333
        (nas, "user000_gpu00", 6250 * 1.5 * 4 / 4),                              # 9375
        (mri, "cloud000_fpga00", 120000 * 10 / 100 + 5000 / 30 + 8000 / 100),    # 12246.6667
        (mri, "carrier000_fpga00", 1200 * 1.25 * 100 * 10 / 100 + 5000 / 30),    # 15166.6667
    ]
    for app, device_id, expected in price_cases:
        c = candidate_at(paper_topology, app, device_id, "input000")
        assert price(c) == pytest.approx(expected, abs=POINT_TOL)
    # the four-decimal anchor values
    assert price(candidate_at(paper_topology, nas, "cloud000_gpu00", "input000")) == pytest.approx(6743.3333, abs=1e-4)
    assert price(candidate_at(paper_topology, nas, "carrier000_gpu00", "input000")) == pytest.approx(8145.8333, abs=1e-4)
    assert price(candidate_at(paper_topology, mri, "cloud000_fpga00", "input000")) == pytest.approx(12246.6667, abs=1e-4)
    assert price(candidate_at(paper_topology, mri, "carrier000_fpga00", "input000")) == pytest.approx(15166.6667, abs=1e-4)


def first_non_cloud_placement(trace):
    placed = 0
    for outcome in trace.outcomes:
        if outcome.placed:
            placed += 1
            if outcome.placement.tier is not Tier.CLOUD:
                return placed
    return None


def test_criterion_2_pattern_curves(paper):
    started = time.perf_counter()
    for seed in ACCEPTANCE_SEEDS:
        metrics = {}
        traces = {}
        for pattern in PatternKind:
            traces[pattern] = run_simulation(paper, pattern, 1000, seed)
            metrics[pattern] = compute_metrics(traces[pattern])

        avg200 = {p: metrics[p].avg_at(200) for p in PatternKind}
        assert avg200[PatternKind.PATTERN3] < avg200[PatternKind.PATTERN1] < avg200[PatternKind.PATTERN2], (
            f"seed {seed}: tier-preference ordering broken at index 200: {avg200}"
        )
        assert avg200[PatternKind.PATTERN2] == pytest.approx(6.65, abs=0.35), f"seed {seed}"

        first_non_cloud = first_non_cloud_placement(traces[PatternKind.PATTERN2])
        assert first_non_cloud is not None and 300 <= first_non_cloud <= 500, (
            f"seed {seed}: first non-cloud placement at {first_non_cloud}"
        )

        # pattern 2: non-increasing after cloud exhaustion
        points = metrics[PatternKind.PATTERN2].points
        checkpoints = list(range(first_non_cloud, len(points) + 1, TREND_STEP)) + [len(points)]
        for a, b in zip(checkpoints, checkpoints[1:]):
            assert points[b - 1].running_avg_response <= points[a - 1].running_avg_response + TREND_SLACK, (
                f"seed {seed}: pattern 2 average rose between placements {a} and {b}"
            )
        assert points[-1].running_avg_response < points[first_non_cloud - 1].running_avg_response

        # pattern 3: non-decreasing after placement 300
        points3 = metrics[PatternKind.PATTERN3].points
        checkpoints = list(range(300, len(points3) + 1, TREND_STEP)) + [len(points3)]
        for a, b in zip(checkpoints, checkpoints[1:]):
            assert points3[b - 1].running_avg_response >= points3[a - 1].running_avg_response - TREND_SLACK, (
                f"seed {seed}: pattern 3 average fell between placements {a} and {b}"
            )
        assert points3[-1].running_avg_response > points3[299].running_avg_response
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 2 runs took {elapsed:.1f} s"


def test_criterion_3_capacity_safety(paper, paper_runs, paper_topology):
    for pattern in PatternKind:
        for seed in ACCEPTANCE_SEEDS:
            trace = paper_runs.trace(pattern, seed)
            used_device = {}
            used_link = {}
            for placement in trace.final_state.placements:
                used_device[placement.device_id] = (
                    used_device.get(placement.device_id, 0.0) + placement.resource_demand
                )
                for link_id in placement.path_link_ids:
                    used_link[link_id] = used_link.get(link_id, 0.0) + placement.bandwidth_demand
            for device in paper_topology.devices.values():
                residual = trace.final_state.device_remaining[device.id]
                assert -POINT_TOL <= residual <= device.capacity + POINT_TOL
                expected = device.capacity - used_device.get(device.id, 0.0)
                assert residual == pytest.approx(expected, abs=POINT_TOL)
            for link in paper_topology.links.values():
                residual = trace.final_state.link_remaining[link.id]
                assert -POINT_TOL <= residual <= link.bandwidth_capacity + POINT_TOL
                expected = link.bandwidth_capacity - used_link.get(link.id, 0.0)
                assert residual == pytest.approx(expected, abs=POINT_TOL)


def test_criterion_4_solver_optimality_oracle():
    import random

    started = time.perf_counter()
    rng = random.Random(808080)
    for trial in range(1000):
        topology, state, request, bound = random_instance(rng)
        placement = solve_request(topology, state, request, bound)
        expected = oracle_solve(topology, state, request, bound)
        if expected is None:
            assert placement is None, f"trial {trial}: oracle infeasible, solver placed"
        else:
            _, _, _, device_id, rt, pr = expected
            assert placement is not None, f"trial {trial}: oracle feasible, solver rejected"
            assert placement.device_id == device_id, f"trial {trial}"
            assert placement.response_time == pytest.approx(rt, abs=POINT_TOL)
            assert placement.price == pytest.approx(pr, abs=POINT_TOL)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.1f} s"


def test_criterion_5_admission_honesty(paper, paper_runs, paper_topology):
    for pattern in PatternKind:
        for seed in ACCEPTANCE_SEEDS:
            trace = paper_runs.trace(pattern, seed)
            state = ResidualState.fresh(paper_topology)
            for outcome in trace.outcomes:
                if not outcome.placed:
                    continue
                placement = outcome.placement
                bound = placement.granted_bound

                # recompute both metrics from the pricing module
                c = candidate_at(
                    paper_topology, outcome.request.app, placement.device_id,
                    outcome.request.input_node.id,
                )
                assert response_time(c) == pytest.approx(placement.response_time, abs=POINT_TOL)
                assert price(c) == pytest.approx(placement.price, abs=POINT_TOL)

                # granted bound satisfied
                if bound.kind is RequirementKind.COST_CAP:
                    assert placement.price <= bound.value + POINT_TOL
                else:
                    assert placement.response_time <= bound.value + POINT_TOL

                # optimal among the feasible candidates of the pre-placement state
                candidates = feasible_candidates(paper_topology, state, outcome.request, bound)
                assert candidates
                if bound.kind is RequirementKind.COST_CAP:
                    best = min(response_time(x) for x in candidates)
                    assert placement.response_time == pytest.approx(best, abs=POINT_TOL)
                else:
                    best = min(price(x) for x in candidates)
                    assert placement.price == pytest.approx(best, abs=POINT_TOL)

                apply_placement(state, placement)


def _scale_prices(scenario, factor):
    from dataclasses import replace

    return replace(
        scenario,
        unit_price={cls: p * factor for cls, p in scenario.unit_price.items()},
        user_carrier_link=replace(scenario.user_carrier_link, monthly_cost=scenario.user_carrier_link.monthly_cost * factor),
        carrier_cloud_link=replace(scenario.carrier_cloud_link, monthly_cost=scenario.carrier_cloud_link.monthly_cost * factor),
        apps=tuple(
            replace(entry, price_menu=tuple(v * factor for v in entry.price_menu))
            for entry in scenario.apps
        ),
    )


def test_criterion_6_determinism(paper, paper_runs):
    # byte-identical CSV for identical inputs
    fresh = run_simulation(paper, PatternKind.PATTERN2, 1000, ACCEPTANCE_SEEDS[0])
    cached = paper_runs.trace(PatternKind.PATTERN2, ACCEPTANCE_SEEDS[0])
    assert trace_csv_text(fresh) == trace_csv_text(cached)

    # scaling every price and every price bound by 7 changes no decision
    scaled_scenario = _scale_prices(paper, 7.0)
    for pattern in PatternKind:
        base = paper_runs.trace(pattern, ACCEPTANCE_SEEDS[0])
        scaled = run_simulation(scaled_scenario, pattern, 1000, ACCEPTANCE_SEEDS[0])
        base_choices = [
            (o.placement.device_id, o.placement.variant_class) if o.placed else None
            for o in base.outcomes
        ]
        scaled_choices = [
            (o.placement.device_id, o.placement.variant_class) if o.placed else None
            for o in scaled.outcomes
        ]
        assert base_choices == scaled_choices, f"pattern {pattern.value}"


def test_criterion_7_offload_or_not_demo():
    demo = cost_performance_demo_scenario()
    topology = build_topology(demo.topology_spec())
    state = ResidualState.fresh(topology)
    input_node = topology.input_nodes["input000"]

    def solve(app_name, kind, value):
        request = PlacementRequest(
            id=1,
            app=demo.app_entry(app_name).app,
            input_node=input_node,
            requirement=Requirement(kind, (value,)),
        )
        return solve_request(topology, state, request, Bound(kind, value))

    relaxed = solve("mild-speedup", RequirementKind.DEADLINE, 12.0)
    assert relaxed is not None and relaxed.variant_class is DeviceClass.CPU
    assert relaxed.price == pytest.approx(1000.0, abs=POINT_TOL)

    capped = solve("strong-speedup", RequirementKind.COST_CAP, 2000.0)
    assert capped is not None and capped.variant_class is DeviceClass.GPU
    assert capped.response_time == pytest.approx(10.0 / 3.0, abs=POINT_TOL)

    tight = solve("mild-speedup", RequirementKind.DEADLINE, 7.0)
    assert tight is not None and tight.variant_class is DeviceClass.GPU


def test_criterion_8_lp_export_soundness(paper, paper_topology):
    sampled = 0
    for topology, state, request, bound in paper_sample(paper, paper_topology, ACCEPTANCE_SEEDS[0]):
        text = to_lp_text(build_ilp(topology, state, request, bound))
        parse_lp_text(text)  # grammar check; raises on malformed output
        optimum = enumerate_optimum(text)
        placement = solve_request(topology, state, request, bound)
        if placement is None:
            assert optimum is None
        else:
            expected = (
                placement.response_time
                if bound.kind is RequirementKind.COST_CAP
                else placement.price
            )
            assert optimum == pytest.approx(expected, abs=1e-6)
        sampled += 1
    assert sampled == 50
