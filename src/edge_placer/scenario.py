"""Scenario schema: topology plan, pricing, links, app catalog, request menus.

A scenario is the single input document for a simulation run.  The file
format is a UTF-8 sectioned text format: ``key = value`` lines grouped
under ``[section]`` headers, with ``[[apps]]`` starting one app entry
per occurrence.  Values are JSON literals (numbers, strings, booleans,
arrays, objects), so nested tables like menus stay on one line.  Parsing
is schema-validating and every error message is anchored to a line
number.

Device pricing model
--------------------
Devices are priced per resource unit: ``unit_price`` gives the cloud
tier's money per unit per month for each device class, and a device's
full monthly cost is unit price x tier multiplier x device capacity.
Example: at 6250 yen/GB a 16 GB cloud GPU costs 100000 yen/month while a
4 GB user-edge GPU costs 6250 x 1.5 x 4 = 37500 yen/month.  Setting
``flat_server_pricing = true`` switches to flat per-server pricing for
sensitivity runs: every device of a class then costs the cloud-sized
server's price times the tier multiplier, regardless of its capacity.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Mapping

from .model import (
    CLASS_ORDER,
    DeviceClass,
    FleetSpec,
    LinkSpec,
    Tier,
    TierSpec,
    TopologySpec,
    ValidationError,
    topology_spec_errors,
)
from .pricing import AppType, AppVariant, transfer_time

SCHEMA_VERSION = 1

_SECTIONS = ("topology", "pricing", "links", "apps", "requests")


class ScenarioError(ValueError):
    """Structural or semantic problem in a scenario document."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


@dataclass(frozen=True)
class TierPlan:
    """Per-site fleet of one tier: server counts and per-server capacities."""

    sites: int
    fleet: Mapping[DeviceClass, int]
    capacity: Mapping[DeviceClass, float]


def _hosted_classes(plan: TierPlan) -> list[DeviceClass]:
    """The device classes a tier's sites hold, in ``CLASS_ORDER``: none when it has no sites."""
    return [cls for cls in CLASS_ORDER if plan.sites > 0 and plan.fleet.get(cls, 0) > 0]


def _missing_capacity(plan: TierPlan, tier_key: str) -> list[str]:
    return [
        f"'{tier_key}_capacity' is missing device class {cls.value!r} used by '{tier_key}_fleet'"
        for cls in _hosted_classes(plan)
        if cls not in plan.capacity
    ]


@dataclass(frozen=True)
class AppEntry:
    app: AppType
    mix_weight: float
    price_menu: tuple[float, ...]
    deadline_menu: tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    schema_version: int
    name: str
    cloud: TierPlan
    carrier: TierPlan
    user: TierPlan
    input_nodes: int
    unit_price: Mapping[DeviceClass, float]  # cloud tier, money per resource unit
    carrier_multiplier: float
    user_multiplier: float
    flat_server_pricing: bool
    user_carrier_link: LinkSpec
    carrier_cloud_link: LinkSpec
    apps: tuple[AppEntry, ...]

    def tier_multiplier(self, tier: Tier) -> float:
        if tier is Tier.CLOUD:
            return 1.0
        return self.carrier_multiplier if tier is Tier.CARRIER_EDGE else self.user_multiplier

    def tier_plan(self, tier: Tier) -> TierPlan:
        return {Tier.CLOUD: self.cloud, Tier.CARRIER_EDGE: self.carrier, Tier.USER_EDGE: self.user}[tier]

    def device_full_cost(self, tier: Tier, device_class: DeviceClass) -> float:
        """Monthly cost of one whole device of that class at that tier."""
        plan = self.cloud if self.flat_server_pricing else self.tier_plan(tier)
        return self.unit_price[device_class] * plan.capacity[device_class] * self.tier_multiplier(tier)

    def topology_spec(self) -> TopologySpec:
        def tier_spec(tier: Tier) -> TierSpec:
            plan = self.tier_plan(tier)
            fleet = tuple(
                FleetSpec(
                    device_class=cls,
                    count=plan.fleet[cls],
                    capacity=plan.capacity[cls],
                    full_cost=self.device_full_cost(tier, cls),
                )
                for cls in _hosted_classes(plan)
            )
            return TierSpec(sites=plan.sites, fleet=fleet)

        return TopologySpec(
            cloud=tier_spec(Tier.CLOUD),
            carrier=tier_spec(Tier.CARRIER_EDGE),
            user=tier_spec(Tier.USER_EDGE),
            input_nodes=self.input_nodes,
            user_carrier_link=self.user_carrier_link,
            carrier_cloud_link=self.carrier_cloud_link,
        )

    def app_entry(self, name: str) -> AppEntry:
        for entry in self.apps:
            if entry.app.name == name:
                return entry
        raise KeyError(f"no app named {name!r}")

    def mix_cumulative(self) -> list[float]:
        """Cumulative selection probabilities following the app catalog order."""
        total = sum(entry.mix_weight for entry in self.apps)
        acc, out = 0.0, []
        for entry in self.apps:
            acc += entry.mix_weight / total
            out.append(acc)
        out[-1] = 1.0
        return out


def paper_scenario() -> Scenario:
    """Built-in evaluation preset.

    5 cloud / 20 carrier / 60 user-edge sites, 300 input nodes; per-site
    fleets 8+4+2, 4+2+1 and 2+1 servers; cloud full-server prices 50000
    (CPU, 100 units), 100000 (GPU, 16 GB) and 120000 yen (FPGA, 100
    percent-points), with carrier/user multipliers 1.25 and 1.5; links
    100 Mbps / 8000 yen above carrier, 30 Mbps / 5000 yen below; an FFT
    batch app (GPU-offloaded, 5x over CPU) and an image-reconstruction
    app (FPGA-offloaded, 7x over CPU) mixed 3:1.
    """
    nas_ft = AppType(
        name="NAS.FT",
        transfer_data_size=0.2,
        bandwidth_demand=2.0,
        variants=(
            AppVariant(DeviceClass.GPU, processing_time=5.8, resource_demand=1.0),
            AppVariant(DeviceClass.CPU, processing_time=29.0, resource_demand=100.0),
        ),
    )
    mri_q = AppType(
        name="MRI-Q",
        transfer_data_size=0.15,
        bandwidth_demand=1.0,
        variants=(
            AppVariant(DeviceClass.FPGA, processing_time=2.0, resource_demand=10.0),
            AppVariant(DeviceClass.CPU, processing_time=14.0, resource_demand=100.0),
        ),
    )
    return Scenario(
        schema_version=SCHEMA_VERSION,
        name="paper-3tier",
        cloud=TierPlan(
            sites=5,
            fleet={DeviceClass.CPU: 8, DeviceClass.GPU: 4, DeviceClass.FPGA: 2},
            capacity={DeviceClass.CPU: 100.0, DeviceClass.GPU: 16.0, DeviceClass.FPGA: 100.0},
        ),
        carrier=TierPlan(
            sites=20,
            fleet={DeviceClass.CPU: 4, DeviceClass.GPU: 2, DeviceClass.FPGA: 1},
            capacity={DeviceClass.CPU: 100.0, DeviceClass.GPU: 8.0, DeviceClass.FPGA: 100.0},
        ),
        user=TierPlan(
            sites=60,
            fleet={DeviceClass.CPU: 2, DeviceClass.GPU: 1},
            capacity={DeviceClass.CPU: 100.0, DeviceClass.GPU: 4.0},
        ),
        input_nodes=300,
        unit_price={DeviceClass.CPU: 500.0, DeviceClass.GPU: 6250.0, DeviceClass.FPGA: 1200.0},
        carrier_multiplier=1.25,
        user_multiplier=1.5,
        flat_server_pricing=False,
        user_carrier_link=LinkSpec(bandwidth_capacity=30.0, monthly_cost=5000.0),
        carrier_cloud_link=LinkSpec(bandwidth_capacity=100.0, monthly_cost=8000.0),
        apps=(
            AppEntry(
                app=nas_ft,
                mix_weight=3.0,
                price_menu=(7000.0, 8500.0, 10000.0),
                deadline_menu=(6.0, 7.0, 10.0),
            ),
            AppEntry(
                app=mri_q,
                mix_weight=1.0,
                price_menu=(12500.0, 20000.0),
                deadline_menu=(4.0, 8.0),
            ),
        ),
    )


def cost_performance_demo_scenario() -> Scenario:
    """Tiny offload-or-not demo: all devices at one user-edge site.

    ``mild-speedup`` gains only 1.5x from its GPU form at 2x the price,
    so under a deadline both forms satisfy, the cheaper CPU form wins;
    ``strong-speedup`` gains 3x, so under a cost cap covering both, the
    GPU form wins on response time.
    """
    mild = AppType(
        name="mild-speedup",
        transfer_data_size=0.0,
        bandwidth_demand=1.0,
        variants=(
            AppVariant(DeviceClass.CPU, processing_time=10.0, resource_demand=1.0),
            AppVariant(DeviceClass.GPU, processing_time=10.0 / 1.5, resource_demand=1.0),
        ),
    )
    strong = AppType(
        name="strong-speedup",
        transfer_data_size=0.0,
        bandwidth_demand=1.0,
        variants=(
            AppVariant(DeviceClass.CPU, processing_time=10.0, resource_demand=1.0),
            AppVariant(DeviceClass.GPU, processing_time=10.0 / 3.0, resource_demand=1.0),
        ),
    )
    return Scenario(
        schema_version=SCHEMA_VERSION,
        name="cost-performance-demo",
        cloud=TierPlan(sites=1, fleet={}, capacity={}),
        carrier=TierPlan(sites=1, fleet={}, capacity={}),
        user=TierPlan(
            sites=1,
            fleet={DeviceClass.CPU: 2, DeviceClass.GPU: 2},
            capacity={DeviceClass.CPU: 1.0, DeviceClass.GPU: 1.0},
        ),
        input_nodes=1,
        unit_price={DeviceClass.CPU: 1000.0, DeviceClass.GPU: 2000.0},
        carrier_multiplier=1.0,
        user_multiplier=1.0,
        flat_server_pricing=False,
        user_carrier_link=LinkSpec(bandwidth_capacity=100.0, monthly_cost=0.0),
        carrier_cloud_link=LinkSpec(bandwidth_capacity=100.0, monthly_cost=0.0),
        apps=(
            AppEntry(app=mild, mix_weight=1.0, price_menu=(1000.0, 2000.0), deadline_menu=(7.0, 12.0)),
            AppEntry(app=strong, mix_weight=1.0, price_menu=(2000.0,), deadline_menu=(4.0, 12.0)),
        ),
    )


# --- file format ------------------------------------------------------------

_TIER_KEYS = {Tier.CLOUD: "cloud", Tier.CARRIER_EDGE: "carrier", Tier.USER_EDGE: "user"}


def _refuse_non_finite(text: str):
    raise ValueError(f"{text[:24]} is not a finite number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _refuse_non_finite(text)
    return value


def _float_range_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(text)} digits is out of range")
    return value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


# JSON values with NaN, Infinity, numbers beyond the float range and
# repeated object keys refused.
_VALUE_DECODER = json.JSONDecoder(
    parse_constant=_refuse_non_finite, parse_float=_finite_float, parse_int=_float_range_int,
    object_pairs_hook=_unique_keys,
)


class _Section(dict):
    """One section's ``key -> (value, line)`` entries, each read once through ``take``."""

    def __init__(self, name: str, line: int | None = None):
        super().__init__()
        self.name = name
        self.line = line

    def take(self, key: str, kind: type, bound: str = ""):
        if key not in self:
            raise ScenarioError(f"[{self.name}] is missing key {key!r}", self.line)
        value, line = self.pop(key)
        if kind in (int, float):
            return _number(value, kind, repr(key), line, bound), line
        if not isinstance(value, kind):
            raise ScenarioError(f"{key!r} must be a {kind.__name__}", line)
        return value, line

    def finish(self):
        for key, (_, line) in self.items():  # the first key that no ``take`` read
            raise ScenarioError(f"unknown key {key!r} in [{self.name}]", line)


def _parse_lines(text: str) -> tuple[dict[str, _Section], list[_Section]]:
    """The sections by name, top-level keys under ``document``, and the ``[[apps]]`` entries."""
    sections = {"document": _Section("document")}
    apps: list[_Section] = []
    current = sections["document"]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, sep, value_text = raw.partition("=")
        if "#" in line:  # a '#' before the first '=' starts a comment; after it, the value's end decides
            line, sep = line[: line.index("#")], ""
        line = line.strip()
        if not sep:
            if not line:
                continue
            if line == "[[apps]]":
                current = _Section(f"apps #{len(apps) + 1}", lineno)
                apps.append(current)
                continue
            if line.startswith("[[") and line.endswith("]]"):
                raise ScenarioError(f"unknown repeated section {line}", lineno)
            if not (line.startswith("[") and line.endswith("]")):
                raise ScenarioError(f"expected 'key = value' or a section header, got {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            if name == "apps":
                raise ScenarioError("apps entries are written as [[apps]]", lineno)
            if name in sections:
                raise ScenarioError(f"duplicate section [{name}]", lineno)
            current = sections[name] = _Section(name, lineno)
            continue
        key, value_text = line, value_text.lstrip()
        try:
            value, end = _VALUE_DECODER.raw_decode(value_text)
            if value_text[end:].lstrip()[:1] not in ("", "#"):
                raise json.JSONDecodeError("Extra data", value_text, end)
            if "\\u" in value_text:  # only a \u escape decodes to a lone surrogate, which UTF-8 cannot hold
                _dump(value).encode("utf-8")
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid value for {key!r}: {exc.msg}", lineno) from None
        except UnicodeEncodeError:
            raise ScenarioError(f"invalid value for {key!r}: lone surrogate escape", lineno) from None
        except ValueError as exc:  # a non-finite or out-of-range number, or a repeated key
            raise ScenarioError(f"invalid value for {key!r}: {exc}", lineno) from None
        except RecursionError:
            raise ScenarioError(f"invalid value for {key!r}: nested too deeply", lineno) from None
        if key in current:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        current[key] = (value, lineno)
    return sections, apps


def _number(value: Any, kind: type, what: str, line: int, bound: str = ""):
    """``value`` as ``kind`` (int or float); refuses other JSON types, and values outside ``bound`` if given."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ScenarioError(f"{what} must be {'an integer' if kind is int else 'a number'}", line)
    if bound and (value < 0 or (value == 0 and bound == "> 0")):
        raise ScenarioError(f"{what} must be {bound}", line)
    return kind(value)


def _class_map(section: _Section, key: str, kind: type, bound: str) -> dict[DeviceClass, Any]:
    raw, line = section.take(key, dict)
    out: dict[DeviceClass, Any] = {}
    for cls_name, value in raw.items():
        try:
            cls = DeviceClass(cls_name)
        except ValueError:
            raise ScenarioError(f"{key!r}: unknown device class {cls_name!r}", line) from None
        out[cls] = _number(value, kind, f"{key!r}: value for {cls_name!r}", line, bound)
    return out


def _menu(raw: Any, key: str, line: int) -> tuple[float, ...]:
    if not isinstance(raw, list):
        raise ScenarioError(f"{key!r} must be an array", line)
    values = [_number(v, float, f"{key!r}: menu value", line, "> 0") for v in raw]
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ScenarioError(f"{key!r}: menu values must be strictly increasing", line)
    return tuple(values)


def parse_scenario(text: str) -> Scenario:
    """Parse and schema-validate a scenario document."""
    sections, apps = _parse_lines(text)

    top = sections["document"]
    version, vline = top.take("schema_version", int)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version}", vline)
    name, _ = top.take("name", str)
    top.finish()

    for section in ("topology", "pricing", "links", "requests"):
        if section not in sections:
            raise ScenarioError(f"missing section [{section}]")
    if not apps:
        raise ScenarioError("missing section [[apps]]: at least one app is required")

    topo = sections["topology"]
    count_keys = ("cloud_sites", "carrier_sites", "user_sites", "input_nodes")
    counts = {key: topo.take(key, int, ">= 0")[0] for key in count_keys}
    plans: dict[Tier, TierPlan] = {}
    for tier, tier_key in _TIER_KEYS.items():
        fleet = _class_map(topo, f"{tier_key}_fleet", int, ">= 0")
        capacity = _class_map(topo, f"{tier_key}_capacity", float, "> 0")
        plans[tier] = TierPlan(sites=counts[f"{tier_key}_sites"], fleet=fleet, capacity=capacity)
        for message in _missing_capacity(plans[tier], tier_key):  # the first, as validate_scenario lists them
            raise ScenarioError(message, topo.line)
    topo.finish()

    pricing = sections["pricing"]
    unit_price = _class_map(pricing, "unit_price", float, ">= 0")
    carrier_multiplier, _ = pricing.take("carrier_multiplier", float, "> 0")
    user_multiplier, _ = pricing.take("user_multiplier", float, "> 0")
    flat, _ = pricing.take("flat_server_pricing", bool)
    pricing.finish()

    links = sections["links"]
    link_specs = {}
    for key in ("user_carrier", "carrier_cloud"):
        raw, line = links.take(key, dict)
        if set(raw) != {"bandwidth_mbps", "monthly_cost"}:
            raise ScenarioError(f"{key!r} must have exactly bandwidth_mbps and monthly_cost", line)
        link_specs[key] = LinkSpec(
            bandwidth_capacity=_number(raw["bandwidth_mbps"], float, f"{key!r}: bandwidth_mbps", line, "> 0"),
            monthly_cost=_number(raw["monthly_cost"], float, f"{key!r}: monthly_cost", line, ">= 0"),
        )
    links.finish()

    app_types: list[AppType] = []
    for entry in apps:
        app_name, nline = entry.take("name", str)
        if not app_name:
            raise ScenarioError("app name must be non-empty", nline)
        if any(a.name == app_name for a in app_types):
            raise ScenarioError(f"duplicate app name {app_name!r}", nline)
        data_mb, _ = entry.take("transfer_data_mb", float)
        bandwidth, _ = entry.take("bandwidth_mbps", float)
        raw_variants, vline2 = entry.take("variants", list)
        variants = []
        for raw in raw_variants:
            if not isinstance(raw, dict) or set(raw) != {"device_class", "processing_time_s", "resource_demand"}:
                raise ScenarioError(
                    "each variant needs exactly device_class, processing_time_s, resource_demand",
                    vline2,
                )
            try:
                cls = DeviceClass(raw["device_class"])
            except ValueError:
                raise ScenarioError(f"unknown device class {raw['device_class']!r}", vline2) from None
            processing_time = _number(raw["processing_time_s"], float, "variant processing_time_s", vline2)
            demand = _number(raw["resource_demand"], float, "variant resource_demand", vline2)
            try:
                variants.append(AppVariant(cls, processing_time, demand))
            except ValidationError as exc:
                raise ScenarioError(str(exc), vline2) from None
        entry.finish()
        try:
            app_types.append(
                AppType(
                    name=app_name,
                    transfer_data_size=data_mb,
                    bandwidth_demand=bandwidth,
                    variants=tuple(variants),
                )
            )
        except ValidationError as exc:
            raise ScenarioError(str(exc), nline) from None

    requests = sections["requests"]
    tables = {key: requests.take(key, dict) for key in ("mix", "price_menus", "deadline_menus")}
    requests.finish()
    known_names = {a.name for a in app_types}
    for key, (table, line) in tables.items():
        for app_name in table:
            if app_name not in known_names:
                raise ScenarioError(f"{key!r} references unknown app {app_name!r}", line)
    (mix_raw, mix_line), (price_menus, pm_line), (deadline_menus, dm_line) = tables.values()

    entries = []
    for app_type in app_types:
        if app_type.name not in mix_raw:
            raise ScenarioError(f"'mix' is missing app {app_type.name!r}", mix_line)
        weight = _number(mix_raw[app_type.name], float, f"'mix' weight for {app_type.name!r}", mix_line, "> 0")
        entries.append(
            AppEntry(
                app=app_type,
                mix_weight=weight,
                price_menu=_menu(price_menus.get(app_type.name, []), "price_menus", pm_line),
                deadline_menu=_menu(deadline_menus.get(app_type.name, []), "deadline_menus", dm_line),
            )
        )

    return Scenario(
        schema_version=version,
        name=name,
        cloud=plans[Tier.CLOUD],
        carrier=plans[Tier.CARRIER_EDGE],
        user=plans[Tier.USER_EDGE],
        input_nodes=counts["input_nodes"],
        unit_price=unit_price,
        carrier_multiplier=carrier_multiplier,
        user_multiplier=user_multiplier,
        flat_server_pricing=flat,
        user_carrier_link=link_specs["user_carrier"],
        carrier_cloud_link=link_specs["carrier_cloud"],
        apps=tuple(entries),
    )


# Line breaks to str.splitlines, which reads the document, that JSON leaves unescaped.
_LINE_BREAK_ESCAPES = {0x85: "\\u0085", 0x2028: "\\u2028", 0x2029: "\\u2029"}


def _dump(value: Any) -> str:
    text = json.dumps(value, ensure_ascii=False)
    return text if text.isascii() else text.translate(_LINE_BREAK_ESCAPES)


def _class_table(table: Mapping[DeviceClass, Any]) -> str:
    ordered = {cls.value: table[cls] for cls in CLASS_ORDER if cls in table}
    return _dump(ordered)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) == s for every valid scenario."""
    out = [
        f"schema_version = {scenario.schema_version}",
        f"name = {_dump(scenario.name)}",
        "",
        "[topology]",
        f"cloud_sites = {scenario.cloud.sites}",
        f"carrier_sites = {scenario.carrier.sites}",
        f"user_sites = {scenario.user.sites}",
        f"input_nodes = {scenario.input_nodes}",
    ]
    for tier_key, plan in (("cloud", scenario.cloud), ("carrier", scenario.carrier), ("user", scenario.user)):
        out.append(f"{tier_key}_fleet = {_class_table(plan.fleet)}")
        out.append(f"{tier_key}_capacity = {_class_table(plan.capacity)}")
    out += [
        "",
        "[pricing]",
        f"unit_price = {_class_table(scenario.unit_price)}",
        f"carrier_multiplier = {_dump(scenario.carrier_multiplier)}",
        f"user_multiplier = {_dump(scenario.user_multiplier)}",
        f"flat_server_pricing = {_dump(scenario.flat_server_pricing)}",
        "",
        "[links]",
    ]
    for key, spec in (("user_carrier", scenario.user_carrier_link), ("carrier_cloud", scenario.carrier_cloud_link)):
        out.append(
            f"{key} = " + _dump({"bandwidth_mbps": spec.bandwidth_capacity, "monthly_cost": spec.monthly_cost})
        )
    for entry in scenario.apps:
        out += [
            "",
            "[[apps]]",
            f"name = {_dump(entry.app.name)}",
            f"transfer_data_mb = {_dump(entry.app.transfer_data_size)}",
            f"bandwidth_mbps = {_dump(entry.app.bandwidth_demand)}",
            "variants = " + _dump([
                {
                    "device_class": v.device_class.value,
                    "processing_time_s": v.processing_time,
                    "resource_demand": v.resource_demand,
                }
                for v in entry.app.variants
            ]),
        ]
    names = [entry.app.name for entry in scenario.apps]
    out += [
        "",
        "[requests]",
        "mix = " + _dump({n: e.mix_weight for n, e in zip(names, scenario.apps)}),
        "price_menus = " + _dump({n: list(e.price_menu) for n, e in zip(names, scenario.apps)}),
        "deadline_menus = " + _dump({n: list(e.deadline_menu) for n, e in zip(names, scenario.apps)}),
        "",
    ]
    return "\n".join(out)


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()


def validate_scenario(scenario: Scenario, require_placeable: bool = True) -> list[str]:
    """Cross-checks beyond the schema; returns violations (empty when sound).

    ``require_placeable=False`` drops the check that every app has a variant
    for some device class of the fleet: an app that no device can host still
    has a well-defined, infeasible per-request model.
    """
    available: set[DeviceClass] = set()
    violations = []
    for tier, tier_key in _TIER_KEYS.items():
        plan = scenario.tier_plan(tier)
        violations += _missing_capacity(plan, tier_key)
        available.update(_hosted_classes(plan))
    if scenario.flat_server_pricing and not violations:  # every class is priced at the cloud's capacity
        violations = [
            f"'cloud_capacity' is missing device class {cls.value!r} used by flat_server_pricing"
            for cls in CLASS_ORDER
            if cls in available and cls not in scenario.cloud.capacity
        ]
    violations += [
        f"unit_price is missing device class {cls.value!r}"
        for cls in CLASS_ORDER
        if cls in available and cls not in scenario.unit_price
    ]
    if not violations:  # the topology spec has a capacity and a price for every class in ``available``
        violations = topology_spec_errors(scenario.topology_spec())

    for entry in scenario.apps:
        app = entry.app
        if require_placeable and not any(v.device_class in available for v in app.variants):
            violations.append(f"app {app.name!r}: no variant's device class exists anywhere in the topology")
        if not math.isfinite(transfer_time(app.transfer_data_size, app.bandwidth_demand)):
            violations.append(
                f"app {app.name!r}: per-link transfer time 8 * transfer_data_mb / bandwidth_mbps is not finite"
            )
        if not entry.price_menu and not entry.deadline_menu:
            violations.append(f"app {app.name!r}: both request menus are empty")
    return violations
