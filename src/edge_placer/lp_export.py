"""Emit one request's 0-1 placement program as LP text laid out as CPLEX LP (not yet standard: see README).

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
The model lists the table's entries whose response time and price are
finite (``CandidateTable.finite``, the entries of its sorted views); the
solver never places the others.

Everything but the model name and the right-hand sides is state-free, so
it is built once per candidate table, lazily, and cached on it with its
LP text rendered (``CandidateTable.lp_skeleton``); both bound kinds share
it, taking their objective and bound terms by ``solver.KIND_METRICS``.
Its text is put together from pieces formatted once each: a device's
variable name and ``cap_`` row head once per topology
(``Topology.lp_device_text``), each distinct metric or demand value once
per skeleton, and the coefficient of a row whose coefficients are all
equal (the ``assign`` and link rows) once per row.

The skeleton also keeps the last model's residual rows, each paired with
its rendered line, and reuses a row and its line while the row's residual
is the same float object.  A residual row's line is a prefix that ends in
``<= ``, then the residual.  The skeleton is built with the rows of the
model being built, formatting each distinct residual once; after that, a
row whose residual changes costs one format of the residual and one new
row, on the prefix that its last line holds up to the last space.  Each
``build_ilp`` call fills in the name, the bound value and the residuals,
and joins the text of the model's ``Subject To`` block from those lines,
so ``to_lp_text`` formats only the header and the model name, and the
text of a model is that of the state it was built on.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
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
    """A tuple of a model that carries its LP text, rendered once.

    It compares and hashes as the plain tuple of its items.  A skeleton's
    objective and bound terms and its binaries carry theirs; a built
    model's rows carry the text of its ``Subject To`` block.  The terms of
    the ``assign``, device and link rows carry none: their text is part of
    the rows' lines, which the skeleton keeps.
    """

    text: str


def _rendered(items: tuple, text: str) -> _Rendered:
    rendered = _Rendered(items)
    rendered.text = text
    return rendered


class _Skeleton(NamedTuple):
    """The state-free part of every model of one candidate table, and the last model's residual rows and lines."""

    terms: dict  # entry metric -> its (variable, coefficient) terms: a kind's objective or bound row
    assign: LpRow
    assign_line: str
    device_ids: tuple[str, ...]  # the residuals of the device rows,
    link_ids: tuple[str, ...]  # then of the link rows
    residual_rows: list[tuple[LpRow, str]]  # the last model's device and link rows, each with its line
    binaries: _Rendered


# A row or model straight from its field tuple, without the Python-level __new__ that NamedTuple generates.
_new = tuple.__new__
_DEVICE_ID = attrgetter("device.id")


def variable_name(device_id: str, variant_class) -> str:
    return f"x_{device_id}_{variant_class.value}"


def _number(value: float) -> str:
    """The LP text of a number: every coefficient, right-hand side and bound value goes through here."""
    return f"{value:.12g}"


def _texts(values: list[float]) -> list[str]:
    """The ``_number`` text of each value, formatting each distinct value once.

    0.0 and -0.0 are one dict key but render as ``0`` and ``-0``, so zeros
    are formatted one by one.
    """
    texts = {value: _number(value) for value in set(values)}
    return [texts[value] if value else _number(value) for value in values]


def _uniform_terms(names: list[str], coef: float) -> str:
    """``_terms`` of every name with the same coefficient: its one format joined over the names."""
    if not names:
        return "0 x_none"
    first = _number(coef)
    between = f" - {_number(-coef)} " if coef < 0 else f" + {first} "
    return f"{first} {between.join(names)}"


def _varied_terms(names: list[str], coefs: list[float]) -> str:
    """``_terms`` of the names with their coefficients, formatting each distinct coefficient once."""
    if not names:
        return "0 x_none"
    texts = _texts(coefs)  # a negative coefficient's text is "-" and the text of its magnitude
    terms = [f"{texts[0]} {names[0]}"]
    terms += [f" - {text[1:]} {var}" if coef < 0 else f" + {text} {var}"
              for var, coef, text in zip(names[1:], coefs[1:], texts[1:])]
    return "".join(terms)


def _skeleton(
    device_text: dict, finite: list[TableEntry], bandwidth_demand: float, state: ResidualState,
) -> _Skeleton:
    """The skeleton, with the residual rows of a model on ``state``.

    Variables are ordered by device id (a table lists each device once), so
    identical inputs give identical models.
    """
    entries = sorted(finite, key=_DEVICE_ID)
    device_ids = tuple([entry.device.id for entry in entries])
    texts = []  # each entry's variable name, row name and row head, made once per topology
    for device_id, entry in zip(device_ids, entries):
        text = device_text.get(device_id)
        if text is None:
            name = f"cap_{device_id}"
            text = device_text[device_id] = (variable_name(device_id, entry.variant.device_class), name, f" {name}: ")
        texts.append(text)
    names = [var for var, _, _ in texts]
    link_names: dict[str, list[str]] = {}
    for var, entry in zip(names, entries):
        for link_id in entry.link_ids:
            link_names.setdefault(link_id, []).append(var)
    link_ids = tuple(sorted(link_names))

    demands = [entry.variant.resource_demand for entry in entries]
    rows = [(name, ((var, demand),)) for (var, name, _), demand in zip(texts, demands)]
    prefixes = [f"{head}{text} {var} <= " for (var, _, head), text in zip(texts, _texts(demands))]
    for link_id in link_ids:
        link_vars = link_names[link_id]
        rows.append((f"cap_{link_id}", tuple(zip(link_vars, repeat(bandwidth_demand)))))
        prefixes.append(f" cap_{link_id}: {_uniform_terms(link_vars, bandwidth_demand)} <= ")
    residuals = _residuals(state, device_ids, link_ids)

    metric_terms = {}
    for metric in {metric for pair in KIND_METRICS.values() for metric in pair}:
        coefs = list(map(metric, entries))
        metric_terms[metric] = _rendered(tuple(zip(names, coefs)), _varied_terms(names, coefs))
    return _Skeleton(
        terms=metric_terms,
        assign=LpRow("assign", tuple(zip(names, repeat(1.0))), "=", 1.0),
        assign_line=f" assign: {_uniform_terms(names, 1.0)} = {_number(1.0)}",
        device_ids=device_ids,
        link_ids=link_ids,
        residual_rows=[(_new(LpRow, (name, terms, "<=", rhs)), prefix + text)
                       for (name, terms), prefix, rhs, text in zip(rows, prefixes, residuals, _texts(residuals))],
        binaries=_rendered(tuple(names), _binaries(names)),
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
        skeleton = table.lp_skeleton = _skeleton(topology.lp_device_text, table.finite, request.app.bandwidth_demand,
                                                 state)
    bounded, minimized = KIND_METRICS[bound.kind]
    residuals = _residuals(state, skeleton.device_ids, skeleton.link_ids)
    # Each row is checked against this state's residual, and a row and its line are read and
    # replaced as one slot, so threads never use another state's row or line.
    slots = [slot if slot[0].rhs is rhs else _slot(slot, rhs)
             for slot, rhs in zip(skeleton.residual_rows, residuals)]
    skeleton.residual_rows[:] = slots
    bound_row = _new(LpRow, ("bound", skeleton.terms[bounded], "<=", bound.value))
    rows = _Rendered((skeleton.assign, bound_row, *[row for row, _ in slots]))
    rows.text = "\n".join([skeleton.assign_line, _line(bound_row), *[line for _, line in slots]])
    return _new(IlpModel, (f"request{request.id}_{bound.kind.value}", skeleton.terms[minimized], rows,
                           skeleton.binaries))


def _residuals(state: ResidualState, device_ids: tuple[str, ...], link_ids: tuple[str, ...]) -> list[float]:
    residuals = [state.device_remaining[device_id] for device_id in device_ids]
    residuals += [state.link_remaining[link_id] for link_id in link_ids]
    return residuals


def _slot(slot: tuple[LpRow, str], rhs: float) -> tuple[LpRow, str]:
    """The slot's row and line at ``rhs``: the line up to its last space is the prefix, which ends in "<= "."""
    row, line = slot
    return _new(LpRow, (row.name, row.terms, "<=", rhs)), f"{line[:line.rindex(' ') + 1]}{_number(rhs)}"


def _terms(terms: tuple[Term, ...]) -> str:
    if type(terms) is _Rendered:
        return terms.text
    return _varied_terms([var for var, _ in terms], [coef for _, coef in terms])


def _line(row: LpRow) -> str:
    return f" {row.name}: {_terms(row.terms)} {row.sense} {_number(row.rhs)}"


def _binaries(names: tuple[str, ...]) -> str:
    if type(names) is _Rendered:
        return names.text
    return "".join([f" {var}\n" for var in names])


def to_lp_text(model: IlpModel) -> str:
    """CPLEX LP layout: Minimize / Subject To / Binary / End."""
    lines = [f"\\ {model.name}", "Minimize", f" obj: {_terms(model.objective)}", "Subject To"]
    rows = model.rows
    lines += [rows.text] if type(rows) is _Rendered else map(_line, rows)
    lines.append(f"Binary\n{_binaries(model.binaries)}End\n")
    return "\n".join(lines)
