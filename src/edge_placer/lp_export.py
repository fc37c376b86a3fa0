"""Emit one request's 0-1 placement program in CPLEX LP text format.

One binary variable per compatible (device, variant) pair on the
request's root path; since choosing a device fixes the uplink path, link
usage is folded into each variable's coefficients instead of appearing
as separate variables.  Rows are the single-choice constraint, the
requirement bound, per-device residual capacity, and per-link residual
bandwidth.  The emitted model is infeasible exactly when the in-process
solver finds no candidate, and its optimum equals the solver's objective
otherwise, so an external ILP solver can cross-validate placements.

Variables and coefficients come from the solver's cached per-topology
candidate table (``solver.CandidateTable``), so the exporter and the
solver enumerate the same pairs with the same response times and prices.
Like the solver's sorted views, the model lists only the pairs whose
response time and price are finite (``CandidateTable.finite``); the
solver never places the others.

Everything but the model name and the right-hand sides is state-free, so
it is built once per candidate table, lazily, and cached on it with its
LP text rendered (``CandidateTable.lp_skeleton``); both bound kinds share
it.  Each ``build_ilp`` call fills in the name, the bound value and the
residuals, and ``to_lp_text`` formats only those numbers plus one
coefficient per device row.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .model import Topology
from .solver import Bound, CandidateTable, PlacementRequest, RequirementKind, ResidualState, _table

Term = tuple[str, float]  # variable name, coefficient


class LpRow(NamedTuple):
    name: str
    terms: tuple[Term, ...]
    sense: str  # "<=" or "="
    rhs: float


class IlpModel(NamedTuple):
    name: str
    objective: tuple[Term, ...]  # minimized
    rows: tuple[LpRow, ...]
    binaries: tuple[str, ...]


class _Rendered(tuple):
    """A static tuple of a skeleton that carries its LP text, rendered once.

    It compares and hashes as the plain tuple of its items.  Only a few
    per skeleton carry text.  The device rows' terms do not: an instance
    dict on each retained about 0.6 MB more over the 120 tables of the
    paper preset's LP-export stream, to save one format per row and call.
    """

    text: str


def _rendered(items, render) -> _Rendered:
    items = tuple(items)
    rendered = _Rendered(items)
    rendered.text = render(items)
    return rendered


class _Skeleton(NamedTuple):
    """The state-free part of every model of one candidate table."""

    response_time: _Rendered  # objective terms under a cost cap, bound terms under a deadline
    price: _Rendered  # the other way round
    assign: LpRow
    device_rows: tuple[tuple[str, tuple[Term, ...], str], ...]  # row name, terms, device id
    link_rows: tuple[tuple[str, _Rendered, str], ...]  # row name, terms, link id
    binaries: _Rendered


def variable_name(device_id: str, variant_class) -> str:
    # Interned: the tables of one topology share devices, so the names repeat.
    return sys.intern(f"x_{device_id}_{variant_class.value}")


def _skeleton(table: CandidateTable, bandwidth_demand: float) -> _Skeleton:
    """Variables ordered by device id then variant class, so identical inputs give identical models."""
    entries = sorted(table.finite(), key=lambda e: (e.device.id, e.variant.device_class.value))
    names = [variable_name(e.device.id, e.variant.device_class) for e in entries]
    link_terms: dict[str, list[Term]] = {}
    for var, entry in zip(names, entries):
        term = (var, bandwidth_demand)
        for link in entry.path:
            link_terms.setdefault(link.id, []).append(term)
    return _Skeleton(
        response_time=_rendered(zip(names, (e.response_time for e in entries)), _terms),
        price=_rendered(zip(names, (e.price for e in entries)), _terms),
        assign=LpRow("assign", _rendered(((var, 1.0) for var in names), _terms), "=", 1.0),
        device_rows=tuple(  # row names repeat across tables like variable names
            (sys.intern(f"cap_{e.device.id}"), ((var, e.variant.resource_demand),), e.device.id)
            for var, e in zip(names, entries)
        ),
        link_rows=tuple(
            (f"cap_{link_id}", _rendered(link_terms[link_id], _terms), link_id) for link_id in sorted(link_terms)
        ),
        binaries=_rendered(names, _binaries),
    )


def build_ilp(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
    bound: Bound,
) -> IlpModel:
    """Build the per-request model against the given residual state."""
    table = _table(topology, request.input_node, request.app)
    skeleton = table.lp_skeleton
    if skeleton is None:
        skeleton = table.lp_skeleton = _skeleton(table, request.app.bandwidth_demand)
    if bound.kind is RequirementKind.COST_CAP:
        objective, bound_terms = skeleton.response_time, skeleton.price
    else:
        objective, bound_terms = skeleton.price, skeleton.response_time
    device_remaining = state.device_remaining
    link_remaining = state.link_remaining
    rows = [skeleton.assign, LpRow("bound", bound_terms, "<=", bound.value)]
    rows += [LpRow(name, terms, "<=", device_remaining[device_id]) for name, terms, device_id in skeleton.device_rows]
    rows += [LpRow(name, terms, "<=", link_remaining[link_id]) for name, terms, link_id in skeleton.link_rows]
    return IlpModel(f"request{request.id}_{bound.kind.value}", objective, tuple(rows), skeleton.binaries)


def _terms(terms: tuple[Term, ...]) -> str:
    if type(terms) is _Rendered:
        return terms.text
    if not terms:
        return "0 x_none"
    var, coef = terms[0]
    text = f"{coef:.12g} {var}"
    for var, coef in terms[1:]:
        text += f" - {-coef:.12g} {var}" if coef < 0 else f" + {coef:.12g} {var}"
    return text


def _binaries(names: tuple[str, ...]) -> str:
    if type(names) is _Rendered:
        return names.text
    return "".join(f" {var}\n" for var in names)


def to_lp_text(model: IlpModel) -> str:
    """CPLEX LP format: Minimize / Subject To / Binary / End."""
    lines = [f"\\ {model.name}", "Minimize", f" obj: {_terms(model.objective)}", "Subject To"]
    lines += [f" {row.name}: {_terms(row.terms)} {row.sense} {row.rhs:.12g}" for row in model.rows]
    lines.append(f"Binary\n{_binaries(model.binaries)}End\n")
    return "\n".join(lines)
