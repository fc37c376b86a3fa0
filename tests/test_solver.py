import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys

import pytest

from edge_placer.model import (
    DeviceClass,
    FleetSpec,
    LinkSpec,
    Tier,
    TierSpec,
    TopologySpec,
    ValidationError,
    build_topology,
    root_path_sites,
    uplink_path,
)
from edge_placer.lp_export import build_ilp, variable_name
from edge_placer.pricing import TOLERANCE, AppType, AppVariant, price, response_time
from edge_placer.simulator import MetricsPoint, PatternKind, generate_requests, run_simulation
from edge_placer.solver import (
    Bound,
    CandidateTable,
    Placement,
    PlacementRequest,
    RequestOutcome,
    Requirement,
    RequirementKind,
    ResidualState,
    apply_placement,
    candidate_table,
    feasible_candidates,
    solve_request,
    solve_with_escalation,
)

TOL = 1e-9


def request_for(paper, topology, app_name, kind, bounds, input_id="input000", request_id=1):
    return PlacementRequest(
        id=request_id,
        app=paper.app_entry(app_name).app,
        input_node=topology.input_nodes[input_id],
        requirement=Requirement(kind, tuple(bounds)),
    )


class TestFeasibleCandidates:
    def test_cost_cap_7000_only_cloud_gpus(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [7000.0])
        candidates = feasible_candidates(
            paper_topology, state, request, Bound(RequirementKind.COST_CAP, 7000.0)
        )
        ids = sorted(c.device.id for c in candidates)
        assert ids == [f"cloud000_gpu{j:02d}" for j in range(4)]

    def test_deadline_6_only_user_gpu(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.DEADLINE, [6.0])
        candidates = feasible_candidates(
            paper_topology, state, request, Bound(RequirementKind.DEADLINE, 6.0)
        )
        assert [c.device.id for c in candidates] == ["user000_gpu00"]

    def test_oversized_demand_empty(self, paper_topology):
        state = ResidualState.fresh(paper_topology)
        giant = AppType("giant", 0.1, 1.0, (AppVariant(DeviceClass.GPU, 1.0, 1e6),))
        request = PlacementRequest(
            id=1,
            app=giant,
            input_node=paper_topology.input_nodes["input000"],
            requirement=Requirement(RequirementKind.COST_CAP, (1e9,)),
        )
        assert feasible_candidates(
            paper_topology, state, request, Bound(RequirementKind.COST_CAP, 1e9)
        ) == []


class TestSolveRequest:
    def test_cost_cap_8500_picks_carrier(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [8500.0])
        placement = solve_request(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 8500.0))
        assert placement.tier is Tier.CARRIER_EDGE
        assert placement.response_time == pytest.approx(6.6, abs=TOL)
        assert placement.price == pytest.approx(8145.833333333334, abs=1e-6)

    def test_deadline_7_picks_carrier(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.DEADLINE, [7.0])
        placement = solve_request(paper_topology, state, request, Bound(RequirementKind.DEADLINE, 7.0))
        assert placement.tier is Tier.CARRIER_EDGE
        assert placement.price == pytest.approx(8145.833333333334, abs=1e-6)

    def test_cost_cap_5000_infeasible(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [5000.0])
        assert solve_request(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 5000.0)) is None

    def test_tie_break_smallest_device_id(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [7000.0])
        placement = solve_request(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 7000.0))
        assert placement.device_id == "cloud000_gpu00"

    @pytest.mark.parametrize("kind", list(RequirementKind))
    def test_secondary_near_tie_goes_to_the_nearer_tier(self, kind):
        # One CPU per tier; the table's metrics are set by hand.  Primaries
        # tie exactly and secondaries within the tolerance, the nearest
        # entry's being the largest, so the tier decides.
        cpu = (FleetSpec(DeviceClass.CPU, 1, 100.0, 1000.0),)
        topology = build_topology(TopologySpec(
            cloud=TierSpec(sites=1, fleet=cpu),
            carrier=TierSpec(sites=1, fleet=cpu),
            user=TierSpec(sites=1, fleet=cpu),
            input_nodes=1,
            user_carrier_link=LinkSpec(30.0, 100.0),
            carrier_cloud_link=LinkSpec(100.0, 100.0),
        ))
        app = AppType("probe", 0.0, 1.0, (AppVariant(DeviceClass.CPU, 5.0, 5.0),))
        request = PlacementRequest(1, app, topology.input_nodes["input000"], Requirement(kind, (1e6,)))
        primary, secondary = ("response_time", "price") if kind is RequirementKind.COST_CAP else ("price", "response_time")
        entries = candidate_table(topology, request.input_node, app)  # user, carrier, cloud
        topology.candidate_tables[("user000", app)] = CandidateTable(tuple(
            entry._replace(**{primary: 5.0, secondary: 1000.0 + offset})
            for entry, offset in zip(entries, [0.8e-9, 0.4e-9, 0.0])
        ))
        placement = solve_request(topology, ResidualState.fresh(topology), request, request.requirement)
        assert placement.device_id == "user000_cpu00"


class TestEscalation:
    def test_saturated_cloud_escalates_to_carrier(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        for j in range(4):
            state.device_remaining[f"cloud000_gpu{j:02d}"] = 0.0
        request = request_for(
            paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [7000.0, 8500.0, 10000.0]
        )
        outcome = solve_with_escalation(paper_topology, state, request)
        assert outcome.placed
        assert outcome.placement.tier is Tier.CARRIER_EDGE
        assert outcome.placement.granted_bound == Bound(RequirementKind.COST_CAP, 8500.0)

    def test_fresh_state_equals_first_bound(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(
            paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [7000.0, 8500.0, 10000.0]
        )
        outcome = solve_with_escalation(paper_topology, state, request)
        direct = solve_request(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 7000.0))
        assert outcome.placement == direct

    def test_all_saturated_rejected(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        for device in paper_topology.devices.values():
            if device.device_class is DeviceClass.GPU:
                state.device_remaining[device.id] = 0.0
            if device.device_class is DeviceClass.CPU:
                state.device_remaining[device.id] = 0.0  # CPU fallback also blocked
        request = request_for(
            paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [7000.0, 8500.0, 10000.0]
        )
        outcome = solve_with_escalation(paper_topology, state, request)
        assert not outcome.placed
        assert outcome.placement is None

    @pytest.mark.parametrize("kind", list(RequirementKind))
    def test_non_finite_candidates_never_placed(self, paper_topology, kind):
        # The per-link transfer term overflows: user-edge response time is
        # 0 * inf = NaN, carrier and cloud ones are inf; prices stay finite.
        huge = AppType("huge", 1e308, 0.5, tuple(AppVariant(cls, 1.0, 1.0) for cls in DeviceClass))
        request = PlacementRequest(
            id=1,
            app=huge,
            input_node=paper_topology.input_nodes["input000"],
            requirement=Requirement(kind, (1.0, 1e300)),
        )
        state = ResidualState.fresh(paper_topology)
        outcome = solve_with_escalation(paper_topology, state, request)
        assert not outcome.placed
        assert feasible_candidates(paper_topology, state, request, Bound(kind, 1e300)) == []


class TestApplyPlacement:
    def test_residual_bookkeeping(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [7000.0])
        placement = solve_request(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 7000.0))
        apply_placement(state, placement)
        assert state.device_remaining[placement.device_id] == pytest.approx(15.0, abs=TOL)
        for link_id in placement.path_link_ids:
            capacity = paper_topology.links[link_id].bandwidth_capacity
            assert state.link_remaining[link_id] == pytest.approx(capacity - 2.0, abs=TOL)

    def test_recomputed_residual_matches(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        rng = random.Random(3)
        inputs = sorted(paper_topology.input_nodes)
        for i in range(1, 160):
            app_name = "NAS.FT" if rng.random() < 0.75 else "MRI-Q"
            entry = next(e for e in paper.apps if e.app.name == app_name)
            request = PlacementRequest(
                id=i,
                app=entry.app,
                input_node=paper_topology.input_nodes[rng.choice(inputs)],
                requirement=Requirement(RequirementKind.COST_CAP, entry.price_menu),
            )
            outcome = solve_with_escalation(paper_topology, state, request)
            if outcome.placed:
                apply_placement(state, outcome.placement)
        used_device: dict[str, float] = {}
        used_link: dict[str, float] = {}
        for placement in state.placements:
            used_device[placement.device_id] = used_device.get(placement.device_id, 0.0) + placement.resource_demand
            for link_id in placement.path_link_ids:
                used_link[link_id] = used_link.get(link_id, 0.0) + placement.bandwidth_demand
        for device in paper_topology.devices.values():
            expected = device.capacity - used_device.get(device.id, 0.0)
            assert state.device_remaining[device.id] == pytest.approx(expected, abs=TOL)
        for link in paper_topology.links.values():
            expected = link.bandwidth_capacity - used_link.get(link.id, 0.0)
            assert state.link_remaining[link.id] == pytest.approx(expected, abs=TOL)

    def test_overcommit_rejected(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [7000.0])
        placement = solve_request(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 7000.0))
        state.device_remaining[placement.device_id] = 0.5
        with pytest.raises(ValidationError, match="over-commits"):
            apply_placement(state, placement)
        # An over-commit within the tolerance applies, on the device and on a path link.
        link_id = placement.path_link_ids[0]
        state.device_remaining[placement.device_id] = placement.resource_demand - TOLERANCE / 2
        state.link_remaining[link_id] = placement.bandwidth_demand - TOLERANCE / 2
        apply_placement(state, placement)
        assert state.placements == [placement]
        assert -TOLERANCE < state.device_remaining[placement.device_id] < 0
        assert -TOLERANCE < state.link_remaining[link_id] < 0

    def test_link_overcommit_rejected(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [7000.0])
        placement = solve_request(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 7000.0))
        link_id = placement.path_link_ids[-1]
        state.link_remaining[link_id] = placement.bandwidth_demand - 2 * TOLERANCE
        with pytest.raises(ValidationError, match=f"over-commits link {link_id!r}"):
            apply_placement(state, placement)
        assert state.placements == []


# --- randomized oracle ------------------------------------------------------


def random_instance(rng, topology=None):
    """Small random topology (<= 12 devices), app, residuals, and bound.

    A given topology is reused as is, so that many random "probe" apps
    share its candidate tables.
    """
    classes = list(DeviceClass)

    def fleet():
        entries = []
        for cls in classes:
            if rng.random() < 0.55:
                entries.append(
                    FleetSpec(cls, 1, rng.uniform(1.0, 20.0), rng.uniform(0.0, 50000.0))
                )
        return tuple(entries)

    if topology is None:
        users = rng.randint(1, 2)
        spec = TopologySpec(
            cloud=TierSpec(sites=1, fleet=fleet()),
            carrier=TierSpec(sites=1, fleet=fleet()),
            user=TierSpec(sites=users, fleet=fleet()),
            input_nodes=users * rng.randint(1, 2),
            user_carrier_link=LinkSpec(rng.uniform(1.0, 10.0), rng.uniform(0.0, 10000.0)),
            carrier_cloud_link=LinkSpec(rng.uniform(1.0, 10.0), rng.uniform(0.0, 10000.0)),
        )
        topology = build_topology(spec)

    variants = tuple(
        AppVariant(cls, rng.uniform(0.5, 30.0), rng.uniform(0.5, 25.0))
        for cls in classes
        if rng.random() < 0.7
    ) or (AppVariant(DeviceClass.CPU, 5.0, 5.0),)
    app = AppType("probe", rng.uniform(0.0, 2.0), rng.uniform(0.5, 5.0), variants)

    state = ResidualState.fresh(topology)
    for device_id in state.device_remaining:
        roll = rng.random()
        if roll < 0.15:
            state.device_remaining[device_id] = 0.0
        elif roll < 0.5:
            state.device_remaining[device_id] *= rng.random()
    for link_id in state.link_remaining:
        if rng.random() < 0.3:
            state.link_remaining[link_id] *= rng.random()

    if rng.random() < 0.5:
        bound = Bound(RequirementKind.COST_CAP, rng.uniform(100.0, 40000.0))
    else:
        bound = Bound(RequirementKind.DEADLINE, rng.uniform(0.5, 40.0))
    input_id = rng.choice(sorted(topology.input_nodes))
    request = PlacementRequest(
        id=1, app=app, input_node=topology.input_nodes[input_id],
        requirement=Requirement(bound.kind, (bound.value,)),
    )
    return topology, state, request, bound


def oracle_solve(topology, state, request, bound):
    """Exhaustive scan over every (device, variant) pair, from raw fields.

    Recomputes paths, metrics, feasibility, and the pinned tie-break
    independently of the solver module.
    """
    link_by_child = {l.child_site: l for l in topology.links.values()}
    tier_rank = {Tier.USER_EDGE: 0, Tier.CARRIER_EDGE: 1, Tier.CLOUD: 2}
    app = request.app
    start = request.input_node.attached_user_edge

    best = None
    for device in topology.devices.values():
        for variant in app.variants:
            if variant.device_class is not device.device_class:
                continue
            # path from the input's user edge to the device's site
            links, site, on_path = [], start, False
            while True:
                if site == device.site_id:
                    on_path = True
                    break
                link = link_by_child.get(site)
                if link is None:
                    break
                links.append(link)
                site = link.parent_site
            if not on_path:
                continue
            if variant.resource_demand > state.device_remaining[device.id] + TOL:
                continue
            if any(app.bandwidth_demand > state.link_remaining[l.id] + TOL for l in links):
                continue
            rt = variant.processing_time + len(links) * (
                8.0 * app.transfer_data_size / app.bandwidth_demand
            )
            pr = device.full_cost * variant.resource_demand / device.capacity + sum(
                l.monthly_cost * app.bandwidth_demand / l.bandwidth_capacity for l in links
            )
            if bound.kind is RequirementKind.COST_CAP:
                if pr > bound.value + TOL:
                    continue
                primary, secondary = rt, pr
            else:
                if rt > bound.value + TOL:
                    continue
                primary, secondary = pr, rt
            entry = (primary, secondary, tier_rank[device.tier], device.id, rt, pr)
            if best is None:
                best = entry
                continue
            if entry[0] < best[0] - TOL:
                best = entry
            elif entry[0] <= best[0] + TOL:
                if entry[1] < best[1] - TOL:
                    best = entry
                elif entry[1] <= best[1] + TOL and entry[2:4] < best[2:4]:
                    best = entry
    return best


class TestOracle:
    def test_solver_matches_brute_force_oracle(self):
        rng = random.Random(20240615)
        disagreements = []
        feasible_count = 0
        for trial in range(1000):
            topology, state, request, bound = random_instance(rng)
            placement = solve_request(topology, state, request, bound)
            expected = oracle_solve(topology, state, request, bound)
            if expected is None:
                if placement is not None:
                    disagreements.append((trial, "solver placed, oracle says infeasible"))
                continue
            feasible_count += 1
            if placement is None:
                disagreements.append((trial, "oracle feasible, solver rejected"))
                continue
            _, _, _, device_id, rt, pr = expected
            if placement.device_id != device_id:
                disagreements.append((trial, f"{placement.device_id} != {device_id}"))
            elif abs(placement.response_time - rt) > 1e-9 or abs(placement.price - pr) > 1e-9:
                disagreements.append((trial, "objective mismatch"))
        assert not disagreements, disagreements[:5]
        assert feasible_count > 200  # the generator must exercise the feasible side


class TestProperties:
    def test_monotone_escalation(self):
        rng = random.Random(99)
        for _ in range(300):
            topology, state, request, bound = random_instance(rng)
            if solve_request(topology, state, request, bound) is None:
                continue
            looser = Bound(bound.kind, bound.value * rng.uniform(1.0, 4.0))
            assert solve_request(topology, state, request, looser) is not None

    def test_admission_honesty_random(self):
        rng = random.Random(4242)
        for _ in range(300):
            topology, state, request, bound = random_instance(rng)
            placement = solve_request(topology, state, request, bound)
            if placement is None:
                continue
            if bound.kind is RequirementKind.COST_CAP:
                assert placement.price <= bound.value + TOL
            else:
                assert placement.response_time <= bound.value + TOL

    def test_variant_dominance_paper_runs_never_pick_cpu(self, paper_runs):
        for pattern in PatternKind:
            trace = paper_runs.trace(pattern, 1)
            for outcome in trace.outcomes:
                if outcome.placed:
                    assert outcome.placement.variant_class is not DeviceClass.CPU

    def test_requirement_ladder_validation(self):
        with pytest.raises(ValidationError):
            Requirement(RequirementKind.COST_CAP, ())
        with pytest.raises(ValidationError):
            Requirement(RequirementKind.COST_CAP, (2.0, 2.0))
        with pytest.raises(ValidationError):
            Requirement(RequirementKind.DEADLINE, (5.0, 3.0))


# --- cached candidate tables --------------------------------------------------

SHARED_SPEC = TopologySpec(
    cloud=TierSpec(sites=1, fleet=(
        FleetSpec(DeviceClass.CPU, 2, 100.0, 50000.0),
        FleetSpec(DeviceClass.GPU, 2, 16.0, 100000.0),
    )),
    carrier=TierSpec(sites=1, fleet=(
        FleetSpec(DeviceClass.GPU, 1, 8.0, 62500.0),
        FleetSpec(DeviceClass.FPGA, 1, 100.0, 150000.0),
    )),
    user=TierSpec(sites=2, fleet=(FleetSpec(DeviceClass.GPU, 1, 4.0, 37500.0),)),
    input_nodes=4,
    user_carrier_link=LinkSpec(30.0, 5000.0),
    carrier_cloud_link=LinkSpec(100.0, 8000.0),
)


def assert_matches_oracle(topology, state, request, bound):
    placement = solve_request(topology, state, request, bound)
    expected = oracle_solve(topology, state, request, bound)
    if expected is None:
        assert placement is None
        return None
    _, _, _, device_id, rt, pr = expected
    assert placement is not None and placement.device_id == device_id
    assert placement.response_time == pytest.approx(rt, abs=TOL)
    assert placement.price == pytest.approx(pr, abs=TOL)
    return placement


def probe_request(app, input_node, bound):
    return PlacementRequest(
        id=1, app=app, input_node=input_node, requirement=Requirement(bound.kind, (bound.value,))
    )


class TestCandidateTable:
    def test_same_name_apps_each_match_oracle(self):
        topology = build_topology(SHARED_SPEC)
        state = ResidualState.fresh(topology)
        fast = AppType("probe", 0.2, 2.0, (AppVariant(DeviceClass.GPU, 2.0, 1.0),))
        slow = AppType("probe", 0.2, 2.0, (
            AppVariant(DeviceClass.GPU, 20.0, 1.0),
            AppVariant(DeviceClass.CPU, 30.0, 50.0),
        ))
        bounds = (
            Bound(RequirementKind.DEADLINE, 3.0),
            Bound(RequirementKind.DEADLINE, 25.0),
            Bound(RequirementKind.COST_CAP, 10000.0),
            Bound(RequirementKind.COST_CAP, 1e6),
        )
        for app in (fast, slow, fast, slow):  # interleaved, so each reads a cached table
            for input_node in topology.input_nodes.values():
                for bound in bounds:
                    assert_matches_oracle(topology, state, probe_request(app, input_node, bound), bound)
        tight = bounds[0]
        node = topology.input_nodes["input000"]
        assert solve_request(topology, state, probe_request(fast, node, tight), tight) is not None
        assert solve_request(topology, state, probe_request(slow, node, tight), tight) is None
        assert {app for _, app in topology.candidate_tables} == {fast, slow}

    def test_views_are_built_only_for_the_kinds_used(self, paper):
        # Pattern 2 gives every request a cost-cap ladder, so no table sorts its entries for deadlines.
        topology = build_topology(paper.topology_spec())
        run_simulation(paper, PatternKind.PATTERN2, 1000, 42, topology=topology)
        assert len(topology.candidate_tables) > 100
        for table in topology.candidate_tables.values():
            assert list(table) == [RequirementKind.COST_CAP]

    def test_random_same_name_apps_on_shared_topology(self):
        rng = random.Random(515)
        topology = build_topology(SHARED_SPEC)
        placed = 0
        for _ in range(300):
            _, state, request, bound = random_instance(rng, topology)
            placed += assert_matches_oracle(topology, state, request, bound) is not None
        assert placed > 50
        assert len({app for _, app in topology.candidate_tables}) > 100

    def test_app_pickled_under_another_hash_seed_finds_cached_table(self, paper):
        # String hashes depend on PYTHONHASHSEED, so an app's cached hash is
        # only valid in the process that built it.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = (
            "import pickle, sys\n"
            "from edge_placer.scenario import paper_scenario\n"
            "app = paper_scenario().app_entry('NAS.FT').app\n"
            "sys.stdout.buffer.write(pickle.dumps((hash(app), app)))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        child_hash, loaded = pickle.loads(child.stdout)
        fresh = paper.app_entry("NAS.FT").app
        assert child_hash != hash(fresh)  # the seeds differ, so the test means something
        assert loaded == fresh and hash(loaded) == hash(fresh)
        topology = build_topology(paper.topology_spec())
        node = topology.input_nodes["input000"]
        assert candidate_table(topology, node, loaded) is candidate_table(topology, node, fresh)
        assert len(topology.candidate_tables) == 1

    def test_answer_tracks_residuals(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = request_for(paper, paper_topology, "NAS.FT", RequirementKind.COST_CAP, [7000.0])
        bound = Bound(RequirementKind.COST_CAP, 7000.0)

        def solve():
            return assert_matches_oracle(paper_topology, state, request, bound)

        assert solve().device_id == "cloud000_gpu00"
        state.device_remaining["cloud000_gpu00"] = 0.0
        assert solve().device_id == "cloud000_gpu01"
        state.link_remaining["link_carrier000_cloud000"] = 1.0  # below NAS.FT's 2 Mbps
        assert solve() is None
        state.link_remaining["link_carrier000_cloud000"] = 100.0
        state.device_remaining["cloud000_gpu00"] = 16.0
        assert solve().device_id == "cloud000_gpu00"

    def test_lp_binaries_are_the_compatible_pairs(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        link_by_child = {l.child_site: l for l in paper_topology.links.values()}
        for app_name, size in (("NAS.FT", 21), ("MRI-Q", 17)):
            for input_id in ("input000", "input299"):
                request = request_for(paper, paper_topology, app_name, RequirementKind.COST_CAP,
                                      [7000.0], input_id=input_id)
                sites = [request.input_node.attached_user_edge]
                while sites[-1] in link_by_child:
                    sites.append(link_by_child[sites[-1]].parent_site)
                expected = {
                    variable_name(device.id, variant.device_class)
                    for device in paper_topology.devices.values()
                    for variant in request.app.variants
                    if device.site_id in sites and variant.device_class is device.device_class
                }
                table = candidate_table(paper_topology, request.input_node, request.app)
                names = [variable_name(e.device.id, e.variant.device_class) for e in table]
                model = build_ilp(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 7000.0))
                assert len(table) == size
                assert set(model.binaries) == set(names) == expected
                assert dict(model.objective) == {n: e.response_time for n, e in zip(names, table)}

    @pytest.mark.parametrize("pattern", list(PatternKind))
    def test_residual_conservation_after_every_placement(self, paper, pattern):
        topology = build_topology(paper.topology_spec())
        state = ResidualState.fresh(topology)
        used_device = dict.fromkeys(topology.devices, 0.0)
        used_link = dict.fromkeys(topology.links, 0.0)
        for request in generate_requests(paper, pattern, 1000, 42, topology=topology):
            outcome = solve_with_escalation(topology, state, request)
            if not outcome.placed:
                continue
            placement = outcome.placement
            apply_placement(state, placement)
            used_device[placement.device_id] += placement.resource_demand
            for link_id in placement.path_link_ids:
                used_link[link_id] += placement.bandwidth_demand
            drift = max(
                max(abs(d.capacity - used_device[d.id] - state.device_remaining[d.id])
                    for d in topology.devices.values()),
                max(abs(l.bandwidth_capacity - used_link[l.id] - state.link_remaining[l.id])
                    for l in topology.links.values()),
            )
            assert drift <= 1e-9, (request.id, drift)
        assert state.placements


# --- ladder escalation against the oracle ----------------------------------------


def tie_topology(rng):
    """The same fleet on every tier and free links.

    Processing times, and so response times of apps that move no data,
    are equal across tiers.  Prices are equal too unless the tiers' device
    costs are scaled apart.
    """
    fleet = tuple(
        FleetSpec(cls, rng.randint(1, 2), rng.uniform(1.0, 20.0), rng.uniform(0.0, 50000.0))
        for cls in DeviceClass
        if rng.random() < 0.7
    ) or (FleetSpec(DeviceClass.CPU, 1, 10.0, 1000.0),)

    def tier_fleet():
        if rng.random() < 0.5:
            return fleet
        scale = rng.uniform(0.5, 2.0)
        return tuple(dataclasses.replace(entry, full_cost=entry.full_cost * scale) for entry in fleet)

    users = rng.randint(1, 2)
    link = LinkSpec(rng.uniform(1.0, 10.0), 0.0)
    return build_topology(TopologySpec(
        cloud=TierSpec(sites=1, fleet=tier_fleet()),
        carrier=TierSpec(sites=1, fleet=tier_fleet()),
        user=TierSpec(sites=users, fleet=tier_fleet()),
        input_nodes=users,
        user_carrier_link=link,
        carrier_cloud_link=link,
    ))


def bound_metric(kind, entry):
    return entry.price if kind is RequirementKind.COST_CAP else entry.response_time


def random_ladder(rng, kind, table):
    """1-4 strictly increasing bounds, most of them at a candidate's metric.

    Offsets of +-0.5e-9 fall inside the tolerance window, -2e-9 falls
    outside it and +2e-9 admits the candidate outright.
    """
    values = set()
    for _ in range(rng.randint(1, 4)):
        if table and rng.random() < 0.75:
            offset = rng.choice((-2e-9, -0.5e-9, 0.0, 0.5e-9, 2e-9))
            values.add(bound_metric(kind, rng.choice(table)) + offset)
        elif kind is RequirementKind.COST_CAP:
            values.add(rng.uniform(100.0, 40000.0))
        else:
            values.add(rng.uniform(0.5, 40.0))
    return tuple(sorted(v for v in values if v > 0)) or (1.0,)


def ladder_instance(rng):
    if rng.random() < 0.3:
        topology, state, request, bound = random_instance(rng, tie_topology(rng))
        if rng.random() < 0.5:  # equal response times across tiers too
            request = dataclasses.replace(
                request, app=dataclasses.replace(request.app, transfer_data_size=0.0)
            )
    else:
        topology, state, request, bound = random_instance(rng)
    table = candidate_table(topology, request.input_node, request.app)
    requirement = Requirement(bound.kind, random_ladder(rng, bound.kind, table))
    return topology, state, dataclasses.replace(request, requirement=requirement)


class TestLadderOracle:
    def test_escalation_equals_first_oracle_feasible_bound(self):
        rng = random.Random(8080)
        placed = escalated = rejected = tier_ties = in_window = 0
        for trial in range(1500):
            topology, state, request = ladder_instance(rng)
            kind = request.requirement.kind
            expected = None
            for value in request.requirement.bounds:
                best = oracle_solve(topology, state, request, Bound(kind, value))
                if best is not None:
                    expected = (value, best)
                    break
            outcome = solve_with_escalation(topology, state, request)
            if expected is None:
                assert not outcome.placed, trial
                rejected += 1
                continue
            value, (_, _, _, device_id, rt, pr) = expected
            placement = outcome.placement
            assert placement is not None, trial
            assert placement.device_id == device_id, trial
            assert placement.granted_bound == Bound(kind, value), trial
            assert placement.response_time == pytest.approx(rt, abs=TOL), trial
            assert placement.price == pytest.approx(pr, abs=TOL), trial
            placed += 1
            escalated += value != request.requirement.bounds[0]
            in_window += bound_metric(kind, placement) > value  # admitted by the tolerance only
            entries = {e.device: e for e in candidate_table(topology, request.input_node, request.app)}
            tiers_by_objective = {}
            for candidate in feasible_candidates(topology, state, request, placement.granted_bound):
                entry = entries[candidate.device]
                objective = entry.response_time if kind is RequirementKind.COST_CAP else entry.price
                tiers_by_objective.setdefault(objective, set()).add(entry.device.tier)
            tier_ties += any(len(tiers) > 1 for tiers in tiers_by_objective.values())
        assert placed > 500 and escalated > 100 and rejected > 100
        assert tier_ties > 20 and in_window > 20

    def test_sorted_views_are_permutations_of_the_table(self):
        rng = random.Random(11)
        for _ in range(200):
            topology, state, request = ladder_instance(rng)
            solve_with_escalation(topology, state, request)
            key = (request.input_node.attached_user_edge, request.app)
            table = candidate_table(topology, request.input_node, request.app)
            for kind in RequirementKind:
                metrics, ordered = topology.candidate_tables[key][kind]
                assert sorted(ordered, key=id) == sorted(table, key=id)
                assert metrics == [bound_metric(kind, e) for e in ordered] == sorted(metrics)


def same_float(a, b):
    """Exact float equality that also matches NaN with NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_table_matches_pricing(topology, input_node, app):
    """Each entry holds exactly ``response_time``/``price`` of itself, on the uplink path of its site.

    The table lists every compatible pair of every root-path site, nearest
    site first and in the site's device order.
    """
    table = candidate_table(topology, input_node, app)
    expected = [
        (device_id, uplink_path(topology, input_node.id, site_id))
        for site_id in root_path_sites(topology, input_node.id)
        for device_id in topology.sites[site_id].devices
        if app.variant_for(topology.devices[device_id].device_class) is not None
    ]
    assert [(e.device.id, [link.id for link in e.path]) for e in table] == expected
    for entry in table:
        assert entry.variant is app.variant_for(entry.device.device_class)
        assert same_float(entry.response_time, response_time(entry)), entry.device.id
        assert same_float(entry.price, price(entry)), entry.device.id
    return table


class TestTableArithmetic:
    """The table build adds up the same terms, in the same order, as the pricing functions."""

    @pytest.mark.parametrize("transfer_mb", [None, 1e308])
    def test_every_paper_table(self, paper, transfer_mb):
        topology = build_topology(paper.topology_spec())
        apps = [entry.app for entry in paper.apps]
        if transfer_mb is not None:
            # NAS.FT's per-link term 8 * 1e308 / 0.5 overflows: user-edge
            # response times are NaN (0 * inf), the others inf.
            apps[0] = dataclasses.replace(apps[0], transfer_data_size=transfer_mb, bandwidth_demand=0.5)
        first_input = {}
        for node in topology.input_nodes.values():
            first_input.setdefault(node.attached_user_edge, node)
        assert len(first_input) == 60
        non_finite = 0
        for node in first_input.values():
            for app in apps:
                table = assert_table_matches_pricing(topology, node, app)
                non_finite += sum(not math.isfinite(e.response_time) for e in table)
        assert len(topology.candidate_tables) == 120
        assert non_finite == (0 if transfer_mb is None else 60 * 21)

    def test_ladder_oracle_forests(self):
        rng = random.Random(8080)
        for _ in range(300):
            topology, _, request = ladder_instance(rng)
            for node in topology.input_nodes.values():
                assert_table_matches_pricing(topology, node, request.app)


class TestRecords:
    @pytest.mark.parametrize("record_type", [
        Bound, Requirement, PlacementRequest, Placement, RequestOutcome, MetricsPoint,
    ])
    def test_slotted_records_stay_frozen(self, record_type, paper_runs):
        outcome = next(o for o in paper_runs.trace(PatternKind.PATTERN1, 42).outcomes if o.placed)
        records = {
            Bound: outcome.placement.granted_bound,
            Requirement: outcome.request.requirement,
            PlacementRequest: outcome.request,
            Placement: outcome.placement,
            RequestOutcome: outcome,
            MetricsPoint: paper_runs.metrics(PatternKind.PATTERN1, 42).points[0],
        }
        record = records[record_type]
        assert type(record) is record_type and not hasattr(record, "__dict__")
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        assert pickle.loads(pickle.dumps(record)) == record

    @pytest.mark.parametrize("pattern", list(PatternKind))
    def test_placements_share_ladder_rungs_and_table_link_ids(self, pattern, paper_runs, paper_topology):
        placed = 0
        for outcome in paper_runs.trace(pattern, 42).outcomes:
            if not outcome.placed:
                continue
            placement, request = outcome.placement, outcome.request
            requirement = request.requirement
            granted = placement.granted_bound
            assert granted.value in requirement.bounds
            assert granted == Bound(requirement.kind, granted.value)
            assert granted is requirement.rungs[requirement.bounds.index(granted.value)]
            entries = {e.device.id: e for e in candidate_table(paper_topology, request.input_node, request.app)}
            entry = entries[placement.device_id]
            assert placement.path_link_ids == entry.link_ids == tuple(link.id for link in entry.path)
            placed += 1
        assert placed > 900

    @pytest.mark.parametrize("kind", list(RequirementKind))
    def test_requirement_rungs_stay_out_of_value_semantics(self, kind):
        requirement = Requirement(kind, (3.0, 5.0))
        fresh = Requirement(kind, (3.0, 5.0))
        assert requirement == fresh and hash(requirement) == hash(fresh)
        assert repr(requirement) == repr(fresh) == f"Requirement(kind={kind!r}, bounds=(3.0, 5.0))"
        assert requirement != Requirement(kind, (3.0, 6.0))
        copy = pickle.loads(pickle.dumps(requirement))
        assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
        assert copy.rungs == (Bound(kind, 3.0), Bound(kind, 5.0))
        assert requirement.ladder() == list(requirement.rungs)

    def test_replace_rebuilds_rungs(self):
        requirement = Requirement(RequirementKind.DEADLINE, (3.0, 5.0))
        looser = dataclasses.replace(requirement, bounds=(3.0, 5.0, 8.0))
        assert looser.rungs == tuple(Bound(RequirementKind.DEADLINE, v) for v in (3.0, 5.0, 8.0))
        assert looser.rungs[0] is not requirement.rungs[0]
        as_cap = dataclasses.replace(requirement, kind=RequirementKind.COST_CAP)
        assert as_cap.rungs == (Bound(RequirementKind.COST_CAP, 3.0), Bound(RequirementKind.COST_CAP, 5.0))
        with pytest.raises(ValidationError):
            dataclasses.replace(requirement, bounds=(5.0, 3.0))
