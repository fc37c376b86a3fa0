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
candidate table (``solver.candidate_table``), so the exporter and the
solver enumerate the same pairs with the same response times and prices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Topology
from .solver import Bound, PlacementRequest, RequirementKind, ResidualState, candidate_table

Term = tuple[str, float]  # variable name, coefficient


@dataclass(frozen=True)
class LpRow:
    name: str
    terms: tuple[Term, ...]
    sense: str  # "<=" or "="
    rhs: float


@dataclass(frozen=True)
class IlpModel:
    name: str
    objective: tuple[Term, ...]  # minimized
    rows: tuple[LpRow, ...]
    binaries: tuple[str, ...]


def variable_name(device_id: str, variant_class) -> str:
    return f"x_{device_id}_{variant_class.value}"


def build_ilp(
    topology: Topology,
    state: ResidualState,
    request: PlacementRequest,
    bound: Bound,
) -> IlpModel:
    """Build the per-request model against the given residual state.

    Variables are ordered by device id then variant class, so identical
    inputs produce identical models.
    """
    app = request.app
    table = sorted(
        candidate_table(topology, request.input_node, app),
        key=lambda entry: (entry.device.id, entry.variant.device_class.value),
    )
    candidates = [(variable_name(e.device.id, e.variant.device_class), e) for e in table]
    cost_cap = bound.kind is RequirementKind.COST_CAP

    objective = tuple((var, e.response_time if cost_cap else e.price) for var, e in candidates)
    rows = [
        LpRow("assign", tuple((var, 1.0) for var, _ in candidates), "=", 1.0),
        LpRow("bound", tuple((var, e.price if cost_cap else e.response_time) for var, e in candidates),
              "<=", bound.value),
    ]
    for var, candidate in candidates:
        rows.append(
            LpRow(
                f"cap_{candidate.device.id}",
                ((var, candidate.variant.resource_demand),),
                "<=",
                state.device_remaining[candidate.device.id],
            )
        )
    link_terms: dict[str, list[Term]] = {}
    for var, candidate in candidates:
        for link in candidate.path:
            link_terms.setdefault(link.id, []).append((var, app.bandwidth_demand))
    for link_id in sorted(link_terms):
        rows.append(
            LpRow(f"cap_{link_id}", tuple(link_terms[link_id]), "<=", state.link_remaining[link_id])
        )

    return IlpModel(
        name=f"request{request.id}_{bound.kind.value}",
        objective=objective,
        rows=tuple(rows),
        binaries=tuple(var for var, _ in candidates),
    )


def _coef(value: float) -> str:
    text = f"{value:.12g}"
    return text


def _terms(terms: tuple[Term, ...]) -> str:
    if not terms:
        return "0 x_none"
    parts = []
    for i, (var, coef) in enumerate(terms):
        if i == 0:
            parts.append(f"{_coef(coef)} {var}")
        elif coef < 0:
            parts.append(f"- {_coef(-coef)} {var}")
        else:
            parts.append(f"+ {_coef(coef)} {var}")
    return " ".join(parts)


def to_lp_text(model: IlpModel) -> str:
    """CPLEX LP format: Minimize / Subject To / Binary / End."""
    lines = [f"\\ {model.name}", "Minimize", f" obj: {_terms(model.objective)}", "Subject To"]
    for row in model.rows:
        lines.append(f" {row.name}: {_terms(row.terms)} {row.sense} {_coef(row.rhs)}")
    lines.append("Binary")
    for var in model.binaries:
        lines.append(f" {var}")
    lines.append("End")
    return "\n".join(lines) + "\n"
