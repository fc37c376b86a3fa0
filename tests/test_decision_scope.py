"""Bounded-exhaustive check of the decision rule on a small scope.

Every input of a small scope is decided by ``solve_request`` and by the
rule of ``solver.py``'s docstring, written out here: the tightest rung
that admits a fitting entry, then the window of the least minimized
metric, the window of the least bound metric, the shortest path and the
smallest device id.  The scope: one input; one CPU at the user site,
two at the carrier site (they tie on path length, so the device id
decides) and ``cloud_cpus`` at the cloud site.  Each entry's bound and
minimized metrics are set by hand to one of three values, at 0, 0.6
and 2 tolerances above a base, so that exact ties, near ties and just
separated values all occur.  Each device and each path link either
fits or is full.  Both kinds and three ladders are decided, one of them
with a loose rung at exactly the tolerance below the largest metric.

The LP half runs the same cases through ``build_ilp``: each model's
text, solved by the read-back enumerator of ``test_lp_export``, is
infeasible exactly when ``solve_request`` rejects under that bound, and
otherwise its optimum is the solver's objective within 1e-9.  Each metric
assignment installs a fresh candidate table, so the first model of each
is a cold build of its LP skeleton.

Tier-1 runs the 3-entry scope (69 984 decisions) and the LP half of every
3rd of its cases (31 104 models, about 2.4 s).  The 4-entry scope
(``cloud_cpus=1``, 2 519 424 decisions) took 20 s on a 2-vCPU Xeon and
the LP half of the whole 3-entry scope (93 312 models) about 7 s, so CI
runs them as their own steps after tier-1::

    python -c "import sys; sys.path.insert(0, 'tests'); from test_decision_scope import check_scope; check_scope(1)"
    python -c "import sys; sys.path.insert(0, 'tests'); from test_decision_scope import check_lp_scope; check_lp_scope(0)"
"""

from itertools import product

from edge_placer.lp_export import build_ilp, to_lp_text
from edge_placer.model import DeviceClass, FleetSpec, LinkSpec, TierSpec, TopologySpec, build_topology
from edge_placer.pricing import TOLERANCE, AppType, AppVariant
from edge_placer.solver import (
    CandidateTable,
    PlacementRequest,
    Requirement,
    RequirementKind,
    ResidualState,
    candidate_table,
    solve_request,
)

from test_lp_export import enumerate_optimum

V, W = 4.0, 6.0  # base bound metric and base minimized metric
OFFSETS = (0.0, 0.6e-9, 2e-9)
LADDERS = ((V,), (V - 1.0, V + 1e-9), (V + 1.5e-9,))
# Per kind, the entry field that its bounds cap and the field that its placement minimizes.
FIELDS = {RequirementKind.COST_CAP: ("price", "response_time"), RequirementKind.DEADLINE: ("response_time", "price")}


def rule_decision(ladder, entries):
    """(device id, granted rung) by the rule, or None; ``entries`` are (device id, path length, bounded, minimized, fits)."""
    fitting = [e for e in entries if e[4]]
    for rung in ladder:
        admitted = [e for e in fitting if e[2] <= rung + TOLERANCE]
        if admitted:
            break
    else:
        return None
    cut = min(e[3] for e in admitted) + TOLERANCE
    admitted = [e for e in admitted if e[3] <= cut]
    cut = min(e[2] for e in admitted) + TOLERANCE
    admitted = [e for e in admitted if e[2] <= cut]
    return min(admitted, key=lambda e: (e[1], e[0]))[0], rung


def scope_cases(cloud_cpus: int):
    """Yield (topology, state, requests, entries) for each case of the scope.

    ``requests`` holds one request per ladder of the case's kind, and
    ``entries`` the (device id, path length, bounded, minimized, fits) of
    each entry.  Each metric assignment installs a fresh ``CandidateTable``.
    """
    # The ladder's loose rung plus the tolerance is exactly the largest metric in float.
    assert (V + 1e-9) + TOLERANCE == V + OFFSETS[-1]
    cpu = (FleetSpec(DeviceClass.CPU, 1, 100.0, 1000.0),)
    topology = build_topology(TopologySpec(
        cloud=TierSpec(sites=1, fleet=cpu * cloud_cpus),
        carrier=TierSpec(sites=1, fleet=(FleetSpec(DeviceClass.CPU, 2, 100.0, 1000.0),)),
        user=TierSpec(sites=1, fleet=cpu),
        input_nodes=1,
        user_carrier_link=LinkSpec(30.0, 100.0),
        carrier_cloud_link=LinkSpec(100.0, 100.0),
    ))
    app = AppType("probe", 0.0, 1.0, (AppVariant(DeviceClass.CPU, 5.0, 5.0),))
    node = topology.input_nodes["input000"]
    base = candidate_table(topology, node, app)
    assert len(base) == 3 + cloud_cpus
    links = sorted({link.id for entry in base for link in entry.path})
    values = list(product((V + o for o in OFFSETS), (W + o for o in OFFSETS)))
    for kind in RequirementKind:
        bounded, minimized = FIELDS[kind]
        requests = [PlacementRequest(1, app, node, Requirement(kind, ladder)) for ladder in LADDERS]
        for metrics in product(values, repeat=len(base)):
            topology.candidate_tables[(node.attached_user_edge, app)] = CandidateTable(tuple(
                entry._replace(**{bounded: b, minimized: m}) for entry, (b, m) in zip(base, metrics)
            ))
            for devices_fit, links_fit in product(product((True, False), repeat=len(base)),
                                                  product((True, False), repeat=len(links))):
                state = ResidualState.fresh(topology)
                for entry, fit in zip(base, devices_fit):
                    state.device_remaining[entry.device.id] = entry.device.capacity if fit else 0.0
                for link_id, fit in zip(links, links_fit):
                    state.link_remaining[link_id] = topology.links[link_id].bandwidth_capacity if fit else 0.0
                full_links = {link_id for link_id, fit in zip(links, links_fit) if not fit}
                entries = [
                    (entry.device.id, len(entry.path), b, m,
                     fit and not any(link.id in full_links for link in entry.path))
                    for entry, (b, m), fit in zip(base, metrics, devices_fit)
                ]
                yield topology, state, requests, entries


def check_scope(cloud_cpus: int) -> int:
    """Assert that every decision of the scope follows the rule; return how many were compared."""
    decisions = 0
    for topology, state, requests, entries in scope_cases(cloud_cpus):
        for request in requests:
            placement = solve_request(topology, state, request, request.requirement)
            got = placement and (placement.device_id, placement.granted_bound.value)
            expected = rule_decision(request.requirement.bounds, entries)
            assert got == expected, (request.requirement, entries, got, expected)
            decisions += 1
    return decisions


def check_lp_scope(cloud_cpus: int, every: int = 1) -> int:
    """Assert that the LP text of every ``every``-th case, at each bound of its ladders, reads as the solver decides.

    The text, solved by the read-back enumerator of ``test_lp_export``, is
    infeasible exactly when ``solve_request`` rejects under that bound, and
    otherwise its optimum is ``solve_request``'s objective within 1e-9.
    Return how many models were compared.
    """
    models = 0
    for case, (topology, state, requests, entries) in enumerate(scope_cases(cloud_cpus)):
        if case % every:
            continue
        request = requests[0]  # given a bound, build_ilp and solve_request read only its app, input and id
        for bound in {rung.value: rung for each in requests for rung in each.requirement.ladder()}.values():
            optimum = enumerate_optimum(to_lp_text(build_ilp(topology, state, request, bound)))
            placement = solve_request(topology, state, request, bound)
            if placement is None:
                assert optimum is None, (bound, entries, optimum)
            else:
                minimized = placement.response_time if bound.kind is RequirementKind.COST_CAP else placement.price
                assert optimum is not None and abs(optimum - minimized) <= 1e-9, (bound, entries, optimum, minimized)
            models += 1
    return models


def test_every_decision_of_the_3_entry_scope_follows_the_rule():
    # 9 metric pairs per entry, each device and the one path link fit or full, 3 ladders, 2 kinds.
    assert check_scope(0) == 9**3 * 2**3 * 2 * 3 * 2


def test_lp_text_of_every_3rd_case_of_the_3_entry_scope_reads_as_the_solver_decides():
    # 9**3 * 2**3 * 2 cases per kind, 2 kinds, every 3rd of them (3 and the 16 fit cases of a table are
    # coprime, so every fit case is met), at each of the 4 distinct bounds of the ladders.
    assert check_lp_scope(0, every=3) == len(range(0, 9**3 * 2**3 * 2 * 2, 3)) * 4
