import dataclasses
import math
import random
import re

import pytest

from edge_placer.lp_export import LpRow, build_ilp, to_lp_text, variable_name
from edge_placer.model import DeviceClass, FleetSpec, LinkSpec, TierSpec, TopologySpec, build_topology
from edge_placer.simulator import PatternKind, generate_requests
from edge_placer.solver import (
    Bound,
    PlacementRequest,
    Requirement,
    RequirementKind,
    ResidualState,
    apply_placement,
    candidate_table,
    solve_request,
    solve_with_escalation,
)

from test_solver import random_instance

TOL = 1e-9

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_TERM_RE = re.compile(rf"^({_NUM}) ({_NAME})$")


def parse_lp_text(text):
    """Minimal reader for the emitted LP dialect; also serves as a grammar check."""
    lines = text.splitlines()
    assert lines, "empty LP file"
    i = 0
    while lines[i].startswith("\\"):
        i += 1
    assert lines[i] == "Minimize"
    obj_match = re.match(r"^ obj: (.+)$", lines[i + 1])
    assert obj_match, f"bad objective line: {lines[i + 1]!r}"

    def parse_terms(body):
        terms = []
        chunks = re.split(r" (?=[+-] )", body)
        for chunk in chunks:
            sign = 1.0
            if chunk.startswith("+ "):
                chunk = chunk[2:]
            elif chunk.startswith("- "):
                sign, chunk = -1.0, chunk[2:]
            match = _TERM_RE.match(chunk)
            assert match, f"bad term {chunk!r}"
            terms.append((match.group(2), sign * float(match.group(1))))
        return terms

    objective = parse_terms(obj_match.group(1))
    i += 2
    assert lines[i] == "Subject To"
    i += 1
    rows = []
    row_re = re.compile(rf"^ ({_NAME}): (.+) (<=|=) ({_NUM})$")
    while lines[i] != "Binary":
        match = row_re.match(lines[i])
        assert match, f"bad constraint line: {lines[i]!r}"
        rows.append((match.group(1), parse_terms(match.group(2)), match.group(3), float(match.group(4))))
        i += 1
    i += 1
    binaries = []
    while lines[i] != "End":
        match = re.match(rf"^ ({_NAME})$", lines[i])
        assert match, f"bad binary line: {lines[i]!r}"
        binaries.append(match.group(1))
        i += 1
    assert i == len(lines) - 1, "content after End"
    return objective, rows, binaries


def enumerate_optimum(text):
    """Solve the parsed 0-1 model by trying each single-variable assignment.

    Valid because the model always carries an assign row forcing exactly
    one variable to 1; independent of the solver module.
    """
    objective, rows, binaries = parse_lp_text(text)
    obj = dict(objective)
    best = None
    for chosen in binaries:
        ok = True
        for _, terms, sense, rhs in rows:
            lhs = sum(coef for var, coef in terms if var == chosen)
            if sense == "=" and abs(lhs - rhs) > TOL:
                ok = False
            elif sense == "<=" and lhs > rhs + TOL:
                ok = False
            if not ok:
                break
        if ok:
            value = obj.get(chosen, 0.0)
            if best is None or value < best:
                best = value
    return best


def paper_request(paper, paper_topology, index=1, pattern=PatternKind.PATTERN2, seed=42):
    stream = generate_requests(paper, pattern, index, seed, topology=paper_topology)
    return stream[-1]


class TestModelShape:
    def test_single_device_single_variant(self):
        from edge_placer.model import (
            DeviceClass,
            FleetSpec,
            LinkSpec,
            TierSpec,
            TopologySpec,
            build_topology,
        )
        from edge_placer.pricing import AppType, AppVariant
        from edge_placer.solver import PlacementRequest, Requirement

        spec = TopologySpec(
            cloud=TierSpec(sites=1),
            carrier=TierSpec(sites=1),
            user=TierSpec(sites=1, fleet=(FleetSpec(DeviceClass.CPU, 1, 10.0, 1000.0),)),
            input_nodes=1,
            user_carrier_link=LinkSpec(30.0, 100.0),
            carrier_cloud_link=LinkSpec(100.0, 100.0),
        )
        topology = build_topology(spec)
        app = AppType("solo", 0.1, 1.0, (AppVariant(DeviceClass.CPU, 2.0, 5.0),))
        request = PlacementRequest(
            id=1,
            app=app,
            input_node=topology.input_nodes["input000"],
            requirement=Requirement(RequirementKind.DEADLINE, (9.0,)),
        )
        model = build_ilp(topology, ResidualState.fresh(topology), request,
                          Bound(RequirementKind.DEADLINE, 9.0))
        assert model.binaries == ("x_user000_cpu00_cpu",)
        # assign + bound + device cap; the only candidate sits at the user
        # edge, so no link rows appear
        assert [row.name for row in model.rows] == ["assign", "bound", "cap_user000_cpu00"]

    def test_paper_request_variable_count(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = paper_request(paper, paper_topology)
        model = build_ilp(paper_topology, state, request, Bound(RequirementKind.DEADLINE, 6.0))
        # NAS.FT from input000: 1+2 user, 2+4 carrier, 4+8 cloud devices -> 21 vars
        assert len(model.binaries) == 21
        # rows: assign + bound + 21 device caps + 2 links
        assert len(model.rows) == 2 + 21 + 2
        names = [row.name for row in model.rows]
        assert names[0] == "assign" and names[1] == "bound"

    def test_row_count_tracks_path_links(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = paper_request(paper, paper_topology)
        model = build_ilp(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 7000.0))
        link_rows = [row for row in model.rows if row.name.startswith("cap_link_")]
        assert len(link_rows) == 2  # one user-carrier and one carrier-cloud link

    def test_deterministic_text(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        request = paper_request(paper, paper_topology)
        bound = Bound(RequirementKind.COST_CAP, 8500.0)
        first = to_lp_text(build_ilp(paper_topology, state, request, bound))
        second = to_lp_text(build_ilp(paper_topology, state, request, bound))
        assert first == second


class TestTextRoundTrip:
    def test_grammar_and_optimum_on_paper_sample(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        stream = generate_requests(paper, PatternKind.PATTERN1, 200, 7, topology=paper_topology)
        checked = 0
        for request in stream:
            bound = request.requirement.ladder()[0]
            if checked < 50 and request.id % 4 == 0:
                model = build_ilp(paper_topology, state, request, bound)
                text = to_lp_text(model)
                optimum = enumerate_optimum(text)
                placement = solve_request(paper_topology, state, request, bound)
                if placement is None:
                    assert optimum is None
                else:
                    expected = (
                        placement.response_time
                        if bound.kind is RequirementKind.COST_CAP
                        else placement.price
                    )
                    assert optimum == pytest.approx(expected, abs=1e-6)
                checked += 1
            outcome = solve_with_escalation(paper_topology, state, request)
            if outcome.placed:
                apply_placement(state, outcome.placement)
        assert checked == 50

    def test_saturated_device_infeasible(self, paper, paper_topology):
        state = ResidualState.fresh(paper_topology)
        for device_id in state.device_remaining:
            state.device_remaining[device_id] = 0.0
        request = paper_request(paper, paper_topology)
        model = build_ilp(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 1e9))
        assert enumerate_optimum(to_lp_text(model)) is None
        assert solve_request(paper_topology, state, request, Bound(RequirementKind.COST_CAP, 1e9)) is None

    def test_randomized_round_trip(self):
        rng = random.Random(515151)
        infeasible = 0
        for _ in range(200):
            topology, state, request, bound = random_instance(rng)
            model = build_ilp(topology, state, request, bound)
            optimum = enumerate_optimum(to_lp_text(model))
            placement = solve_request(topology, state, request, bound)
            if placement is None:
                assert optimum is None
                infeasible += 1
            else:
                expected = (
                    placement.response_time
                    if bound.kind is RequirementKind.COST_CAP
                    else placement.price
                )
                assert optimum == pytest.approx(expected, abs=1e-6)
        assert infeasible < 200


class TestExternalSolver:
    def test_milp_cross_check(self):
        pytest.importorskip("scipy")
        import numpy as np
        from scipy.optimize import LinearConstraint, milp

        rng = random.Random(727272)
        checked = 0
        for _ in range(60):
            topology, state, request, bound = random_instance(rng)
            model = build_ilp(topology, state, request, bound)
            objective, rows, binaries = parse_lp_text(to_lp_text(model))
            if not binaries:
                continue
            index = {var: i for i, var in enumerate(binaries)}
            cost = np.zeros(len(binaries))
            for var, coef in objective:
                cost[index[var]] = coef
            constraints = []
            for _, terms, sense, rhs in rows:
                row = np.zeros(len(binaries))
                for var, coef in terms:
                    if var in index:
                        row[index[var]] = coef
                lower = rhs if sense == "=" else -np.inf
                constraints.append(LinearConstraint(row, lb=lower, ub=rhs))
            result = milp(
                c=cost,
                constraints=constraints,
                integrality=np.ones(len(binaries)),
                bounds=(0, 1),
            )
            placement = solve_request(topology, state, request, bound)
            if placement is None:
                assert not result.success
            else:
                expected = (
                    placement.response_time
                    if bound.kind is RequirementKind.COST_CAP
                    else placement.price
                )
                assert result.success
                assert result.fun == pytest.approx(expected, abs=1e-6)
            checked += 1
        assert checked >= 40


class TestNonFiniteEntries:
    @pytest.mark.parametrize("kind, bound", [(RequirementKind.COST_CAP, 1e6), (RequirementKind.DEADLINE, 1e300)])
    @pytest.mark.parametrize("transfer_mb", [1e308, 6.25e306])
    def test_left_out_as_by_the_solver(self, paper, paper_topology, kind, bound, transfer_mb):
        # Per link, 8 * MB / 0.5 Mbps is inf for 1e308 MB: every response
        # time is inf, or NaN (0 * inf) at the user edge.  For 6.25e306 MB it
        # is 1e308: user and carrier entries stay finite, while the two links
        # up to the cloud overflow.
        app = dataclasses.replace(paper.app_entry("NAS.FT").app, transfer_data_size=transfer_mb, bandwidth_demand=0.5)
        request = PlacementRequest(1, app, paper_topology.input_nodes["input000"], Requirement(kind, (bound,)))
        state = ResidualState.fresh(paper_topology)
        model = build_ilp(paper_topology, state, request, Bound(kind, bound))
        text = to_lp_text(model)
        assert not {"inf", "-inf", "nan"} & set(text.lower().split())
        parse_lp_text(text)
        finite = {
            variable_name(e.device.id, e.variant.device_class)
            for e in candidate_table(paper_topology, request.input_node, app)
            if math.isfinite(e.response_time) and math.isfinite(e.price)
        }
        assert set(model.binaries) == finite
        assert len(finite) == (0 if transfer_mb == 1e308 else 9)
        placement = solve_request(paper_topology, state, request, Bound(kind, bound))
        if placement is None:
            assert enumerate_optimum(text) is None
        else:
            expected = placement.response_time if kind is RequirementKind.COST_CAP else placement.price
            assert enumerate_optimum(text) == pytest.approx(expected, abs=1e-9)


def small_topology():
    """One site per tier, CPUs only: the paper's input000 root path with other devices."""
    cpu = (FleetSpec(DeviceClass.CPU, 1, 100.0, 1000.0),)
    return build_topology(TopologySpec(
        cloud=TierSpec(sites=1, fleet=cpu),
        carrier=TierSpec(sites=1, fleet=cpu),
        user=TierSpec(sites=1, fleet=cpu),
        input_nodes=1,
        user_carrier_link=LinkSpec(30.0, 100.0),
        carrier_cloud_link=LinkSpec(100.0, 100.0),
    ))


class TestSkeletonCache:
    def test_warm_text_equals_cold_text(self, paper):
        warm = build_topology(paper.topology_spec())
        compared = 0
        for pattern in PatternKind:
            state = ResidualState.fresh(warm)
            for request in generate_requests(paper, pattern, 1000, 42, topology=warm):
                if request.id % 7 == 0:
                    cold = build_topology(paper.topology_spec())
                    for bound in request.requirement.ladder():
                        text = to_lp_text(build_ilp(warm, state, request, bound))
                        assert text == to_lp_text(build_ilp(cold, state, request, bound))
                        compared += 1
                outcome = solve_with_escalation(warm, state, request)
                if outcome.placed:
                    apply_placement(state, outcome.placement)
        assert compared > 3 * 142

    def test_same_app_on_two_topologies(self, paper, paper_topology):
        request = paper_request(paper, paper_topology)
        small = small_topology()
        on_small = dataclasses.replace(request, input_node=small.input_nodes["input000"])
        bound = Bound(RequirementKind.COST_CAP, 1e6)
        paper_model = build_ilp(paper_topology, ResidualState.fresh(paper_topology), request, bound)
        small_model = build_ilp(small, ResidualState.fresh(small), on_small, bound)
        assert small_model.binaries == ("x_carrier000_cpu00_cpu", "x_cloud000_cpu00_cpu", "x_user000_cpu00_cpu")
        assert len(paper_model.binaries) == 21
        assert paper_model == build_ilp(paper_topology, ResidualState.fresh(paper_topology), request, bound)

    def test_bound_kinds_do_not_leak(self, paper):
        topology = build_topology(paper.topology_spec())
        request = paper_request(paper, topology)
        state = ResidualState.fresh(topology)
        cost_bound, deadline_bound = Bound(RequirementKind.COST_CAP, 7000.0), Bound(RequirementKind.DEADLINE, 6.0)
        cost_first = build_ilp(topology, state, request, cost_bound)
        deadline = build_ilp(topology, state, request, deadline_bound)
        cost_again = build_ilp(topology, state, request, cost_bound)

        entries = sorted(candidate_table(topology, request.input_node, request.app), key=lambda e: e.device.id)
        names = [variable_name(e.device.id, e.variant.device_class) for e in entries]
        response_times = tuple(zip(names, (e.response_time for e in entries)))
        prices = tuple(zip(names, (e.price for e in entries)))
        assert cost_first.name == "request1_cost_cap" and deadline.name == "request1_deadline"
        assert cost_first.objective == response_times and cost_first.rows[1] == ("bound", prices, "<=", 7000.0)
        assert deadline.objective == prices and deadline.rows[1] == LpRow("bound", response_times, "<=", 6.0)
        assert cost_again == cost_first and to_lp_text(cost_again) == to_lp_text(cost_first)
        # Each kind alone, on a topology that never saw the other kind.
        for bound, model in ((cost_bound, cost_first), (deadline_bound, deadline)):
            alone = build_topology(paper.topology_spec())
            assert to_lp_text(build_ilp(alone, state, request, bound)) == to_lp_text(model)

    def test_residual_rows_follow_the_state(self, paper):
        topology = build_topology(paper.topology_spec())
        request = paper_request(paper, topology)
        ladder = [Bound(RequirementKind.COST_CAP, 7000.0), Bound(RequirementKind.COST_CAP, 9000.0)]
        fresh = ResidualState.fresh(topology)
        first, second = (build_ilp(topology, fresh, request, bound) for bound in ladder)
        assert all(a is b for a, b in zip(first.rows[2:], second.rows[2:]))

        device_id = first.rows[2].name[len("cap_"):]
        link_id = first.rows[-1].name[len("cap_"):]
        full, signed = (ResidualState(dict(fresh.device_remaining), dict(fresh.link_remaining)) for _ in range(2))
        full.device_remaining[device_id] = 0.0
        signed.device_remaining[device_id] = -0.0  # equal to 0.0, written "-0"
        full.link_remaining[link_id] = signed.link_remaining[link_id] = fresh.link_remaining[link_id] / 2
        for state in (full, signed, fresh, full):  # states take turns on one cached skeleton
            model = build_ilp(topology, state, request, ladder[0])
            cold = build_ilp(build_topology(paper.topology_spec()), state, request, ladder[0])
            assert model == cold and to_lp_text(model) == to_lp_text(cold)
            rhs = {row.name: row.rhs for row in model.rows}
            assert rhs[f"cap_{device_id}"] is state.device_remaining[device_id]
            assert rhs[f"cap_{link_id}"] is state.link_remaining[link_id]
        assert " <= -0\n" in to_lp_text(build_ilp(topology, signed, request, ladder[0]))
