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
The model lists the entries of the bound kind's sorted view
(``CandidateTable[kind]``), so only the pairs whose response time and
price are finite; the solver never places the others.

Everything but the model name and the right-hand sides is state-free, so
it is built once per candidate table, lazily, and cached on it with its
LP text rendered (``CandidateTable.lp_skeleton``); both bound kinds share
it, taking their objective and bound terms by ``solver.KIND_METRICS``.
Each ``build_ilp`` call fills in the name, the bound value and the
residuals, and ``to_lp_text`` formats only those numbers plus one
coefficient per device row.  The skeleton also keeps the last model's
residual rows, reused while their residual is the same float object, so
the models of one request's ladder build each residual row once.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .model import Topology
from .solver import KIND_METRICS, Bound, PlacementRequest, ResidualState, TableEntry, _table

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
    """The state-free part of every model of one candidate table, and the last model's residual rows."""

    terms: dict  # entry metric -> its (variable, coefficient) terms: a kind's objective or bound row
    assign: LpRow
    device_ids: tuple[str, ...]  # the residuals of the device rows,
    link_ids: tuple[str, ...]  # then of the link rows
    residual_rows: list[LpRow]  # the last model's device and link rows; right-hand side None before
    binaries: _Rendered


def variable_name(device_id: str, variant_class) -> str:
    # Interned: the tables of one topology share devices, so the names repeat.
    return sys.intern(f"x_{device_id}_{variant_class.value}")


def _skeleton(finite: list[TableEntry], bandwidth_demand: float) -> _Skeleton:
    """Variables ordered by device id then variant class, so identical inputs give identical models."""
    entries = sorted(finite, key=lambda e: (e.device.id, e.variant.device_class.value))
    names = [variable_name(e.device.id, e.variant.device_class) for e in entries]
    link_terms: dict[str, list[Term]] = {}
    for var, entry in zip(names, entries):
        term = (var, bandwidth_demand)
        for link in entry.path:
            link_terms.setdefault(link.id, []).append(term)
    link_ids = sorted(link_terms)
    return _Skeleton(
        terms={metric: _rendered(zip(names, map(metric, entries)), _terms)
               for metric in {metric for pair in KIND_METRICS.values() for metric in pair}},
        assign=LpRow("assign", _rendered(((var, 1.0) for var in names), _terms), "=", 1.0),
        device_ids=tuple(e.device.id for e in entries),
        link_ids=tuple(link_ids),
        residual_rows=[  # row names repeat across tables like variable names
            *(LpRow(sys.intern(f"cap_{e.device.id}"), ((var, e.variant.resource_demand),), "<=", None)
              for var, e in zip(names, entries)),
            *(LpRow(f"cap_{link_id}", _rendered(link_terms[link_id], _terms), "<=", None) for link_id in link_ids),
        ],
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
        skeleton = table.lp_skeleton = _skeleton(table[bound.kind][1], request.app.bandwidth_demand)
    bounded, minimized = KIND_METRICS[bound.kind]
    device_remaining = state.device_remaining
    link_remaining = state.link_remaining
    residuals = [device_remaining[device_id] for device_id in skeleton.device_ids]
    residuals += [link_remaining[link_id] for link_id in skeleton.link_ids]
    # Each row is checked against this state's residual, so threads never use another state's row.
    rows = [row if row.rhs is rhs else LpRow(row.name, row.terms, "<=", rhs)
            for row, rhs in zip(skeleton.residual_rows, residuals)]
    skeleton.residual_rows[:] = rows
    rows = (skeleton.assign, LpRow("bound", skeleton.terms[bounded], "<=", bound.value), *rows)
    return IlpModel(f"request{request.id}_{bound.kind.value}", skeleton.terms[minimized], rows, skeleton.binaries)


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
