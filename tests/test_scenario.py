import random

import pytest

from edge_placer.cli import main
from edge_placer.model import DeviceClass, LinkSpec, Tier, ValidationError
from edge_placer.pricing import AppType, AppVariant
from edge_placer.scenario import (
    AppEntry,
    Scenario,
    ScenarioError,
    TierPlan,
    cost_performance_demo_scenario,
    paper_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
    validate_scenario,
)
from edge_placer.solver import Requirement, RequirementKind


class TestPaperScenario:
    def test_processing_times(self, paper):
        nas = paper.app_entry("NAS.FT").app
        assert nas.variant_for(DeviceClass.GPU).processing_time == 5.8
        assert nas.variant_for(DeviceClass.CPU).processing_time == 29.0  # 5x slower than GPU
        mri = paper.app_entry("MRI-Q").app
        assert mri.variant_for(DeviceClass.FPGA).processing_time == 2.0
        assert mri.variant_for(DeviceClass.CPU).processing_time == 14.0  # 7x slower than FPGA

    def test_price_anchors(self, paper):
        assert paper.device_full_cost(Tier.CLOUD, DeviceClass.CPU) == pytest.approx(50000.0)
        assert paper.device_full_cost(Tier.CLOUD, DeviceClass.GPU) == pytest.approx(100000.0)
        assert paper.device_full_cost(Tier.CLOUD, DeviceClass.FPGA) == pytest.approx(120000.0)
        assert paper.carrier_multiplier == 1.25
        assert paper.user_multiplier == 1.5
        # per-unit pricing: a 4 GB user-edge GPU costs 6250 * 1.5 * 4
        assert paper.device_full_cost(Tier.USER_EDGE, DeviceClass.GPU) == pytest.approx(37500.0)
        assert paper.device_full_cost(Tier.CARRIER_EDGE, DeviceClass.GPU) == pytest.approx(62500.0)

    def test_flat_pricing_switch(self, paper):
        from dataclasses import replace

        flat = replace(paper, flat_server_pricing=True)
        # flat: every GPU costs the 16 GB cloud server price times the multiplier
        assert flat.device_full_cost(Tier.USER_EDGE, DeviceClass.GPU) == pytest.approx(150000.0)
        assert flat.device_full_cost(Tier.CARRIER_EDGE, DeviceClass.GPU) == pytest.approx(125000.0)
        assert flat.device_full_cost(Tier.CLOUD, DeviceClass.GPU) == pytest.approx(100000.0)

    def test_menus_and_mix(self, paper):
        nas = paper.app_entry("NAS.FT")
        mri = paper.app_entry("MRI-Q")
        assert nas.price_menu == (7000.0, 8500.0, 10000.0)
        assert nas.deadline_menu == (6.0, 7.0, 10.0)
        assert mri.price_menu == (12500.0, 20000.0)
        assert mri.deadline_menu == (4.0, 8.0)
        assert paper.mix_cumulative() == [0.75, 1.0]

    def test_validates_clean(self, paper):
        assert validate_scenario(paper) == []


class TestDemoScenario:
    def test_validates_clean(self):
        assert validate_scenario(cost_performance_demo_scenario()) == []

    def test_offload_or_not_examples(self, ):
        from edge_placer.model import build_topology
        from edge_placer.solver import (
            Bound,
            PlacementRequest,
            Requirement,
            RequirementKind,
            ResidualState,
            solve_request,
        )

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

        # a 1.5x speedup at 2x the price loses under a deadline both satisfy
        relaxed = solve("mild-speedup", RequirementKind.DEADLINE, 12.0)
        assert relaxed.variant_class is DeviceClass.CPU
        assert relaxed.price == pytest.approx(1000.0)
        # a 3x speedup wins under a cost cap covering both
        capped = solve("strong-speedup", RequirementKind.COST_CAP, 2000.0)
        assert capped.variant_class is DeviceClass.GPU
        assert capped.response_time == pytest.approx(10.0 / 3.0)
        # a tight deadline forces the faster form even at 2x price
        tight = solve("mild-speedup", RequirementKind.DEADLINE, 7.0)
        assert tight.variant_class is DeviceClass.GPU


class TestRoundTrip:
    def test_paper_round_trip(self, paper):
        assert parse_scenario(serialize_scenario(paper)) == paper

    def test_demo_round_trip(self):
        demo = cost_performance_demo_scenario()
        assert parse_scenario(serialize_scenario(demo)) == demo

    def test_hash_stable(self, paper):
        assert scenario_hash(paper) == scenario_hash(parse_scenario(serialize_scenario(paper)))

    def test_generated_scenarios_round_trip(self):
        rng = random.Random(1312)
        for trial in range(50):
            scenario = random_scenario(rng)
            text = serialize_scenario(scenario)
            assert parse_scenario(text) == scenario, f"trial {trial}"


def random_scenario(rng: random.Random) -> Scenario:
    classes = list(DeviceClass)

    def plan(sites):
        fleet, capacity = {}, {}
        for cls in classes:
            if rng.random() < 0.7:
                fleet[cls] = rng.randint(0, 4)
                capacity[cls] = round(rng.uniform(0.5, 64.0), rng.randint(0, 6))
        return TierPlan(sites=sites, fleet=fleet, capacity=capacity)

    carriers = rng.randint(1, 4)
    users = carriers * rng.randint(1, 3)
    apps = []
    for i in range(rng.randint(1, 3)):
        variants = tuple(
            AppVariant(cls, rng.uniform(0.1, 40.0), rng.uniform(0.1, 30.0))
            for cls in classes
            if rng.random() < 0.6
        ) or (AppVariant(DeviceClass.GPU, 1.5, 2.5),)
        app = AppType(
            name=f"app-{i}",
            transfer_data_size=round(rng.uniform(0.0, 5.0), 3),
            bandwidth_demand=round(rng.uniform(0.1, 8.0), 3),
            variants=variants,
        )
        menu_a = sorted({round(rng.uniform(100, 99999), 2) for _ in range(rng.randint(0, 3))})
        menu_b = sorted({round(rng.uniform(0.5, 60), 2) for _ in range(rng.randint(1, 3))})
        apps.append(
            AppEntry(
                app=app,
                mix_weight=round(rng.uniform(0.5, 5.0), 2),
                price_menu=tuple(menu_a),
                deadline_menu=tuple(menu_b),
            )
        )
    return Scenario(
        schema_version=1,
        name=f"generated-{rng.randint(0, 10**6)}",
        cloud=plan(1),
        carrier=plan(carriers),
        user=plan(users),
        input_nodes=users * rng.randint(1, 5),
        unit_price={cls: round(rng.uniform(0.0, 9000.0), 4) for cls in classes},
        carrier_multiplier=round(rng.uniform(1.0, 2.0), 4),
        user_multiplier=round(rng.uniform(1.0, 3.0), 4),
        flat_server_pricing=rng.random() < 0.5,
        user_carrier_link=LinkSpec(round(rng.uniform(1, 100), 3), round(rng.uniform(0, 9000), 2)),
        carrier_cloud_link=LinkSpec(round(rng.uniform(1, 500), 3), round(rng.uniform(0, 9000), 2)),
        apps=tuple(apps),
    )


class TestComments:
    def test_inline_and_full_line_comments(self, paper):
        lines = serialize_scenario(paper).splitlines()
        commented = ["# header comment"]
        for line in lines:
            if line.startswith("cloud_sites"):
                commented.append(line + "   # sites per tier")
            elif line.startswith("name"):
                commented.append(line + " # scenario title")
            else:
                commented.append(line)
        assert parse_scenario("\n".join(commented)) == paper

    def test_hash_inside_string_kept(self, paper):
        text = serialize_scenario(paper).replace('"NAS.FT"', '"NAS#FT"')
        parsed = parse_scenario(text)
        assert parsed.apps[0].app.name == "NAS#FT"


class TestParseErrors:
    def test_empty_file(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario("")

    def test_missing_section(self, paper):
        text = serialize_scenario(paper).replace("[links]", "[pricing2]")
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario(text)
        text = "\n".join(
            line for line in serialize_scenario(paper).splitlines() if not line.startswith("[requests]")
        )
        with pytest.raises(ScenarioError, match=r"missing section \[requests\]"):
            parse_scenario(text)

    def test_negative_price(self, paper):
        text = serialize_scenario(paper).replace('"cpu": 500.0', '"cpu": -500.0')
        with pytest.raises(ScenarioError, match="unit_price"):
            parse_scenario(text)

    def test_zero_capacity(self, paper):
        text = serialize_scenario(paper).replace(
            'cloud_capacity = {"cpu": 100.0', 'cloud_capacity = {"cpu": 0.0'
        )
        with pytest.raises(ScenarioError, match="cloud_capacity"):
            parse_scenario(text)

    def test_unknown_key_reports_line(self, paper):
        lines = serialize_scenario(paper).splitlines()
        index = lines.index("[pricing]") + 1
        lines.insert(index, "mystery_knob = 3")
        with pytest.raises(ScenarioError, match=rf"line {index + 1}: unknown key 'mystery_knob'"):
            parse_scenario("\n".join(lines))

    def test_bad_json_value_reports_line(self):
        with pytest.raises(ScenarioError, match="line 1: invalid value"):
            parse_scenario("schema_version = not-json")

    def test_duplicate_key(self, paper):
        text = serialize_scenario(paper)
        text = text.replace("carrier_multiplier = 1.25", "carrier_multiplier = 1.25\ncarrier_multiplier = 1.25")
        with pytest.raises(ScenarioError, match="duplicate key"):
            parse_scenario(text)

    def test_duplicate_section(self, paper):
        text = serialize_scenario(paper) + "\n[pricing]\n"
        with pytest.raises(ScenarioError, match=r"duplicate section \[pricing\]"):
            parse_scenario(text)

    def test_menu_not_increasing(self, paper):
        text = serialize_scenario(paper).replace("[7000.0, 8500.0, 10000.0]", "[8500.0, 7000.0, 10000.0]")
        with pytest.raises(ScenarioError, match="strictly increasing"):
            parse_scenario(text)

    def test_unknown_device_class(self, paper):
        text = serialize_scenario(paper).replace('"cpu": 500.0', '"tpu": 500.0')
        with pytest.raises(ScenarioError, match="unknown device class"):
            parse_scenario(text)

    def test_mix_referencing_unknown_app(self, paper):
        text = serialize_scenario(paper).replace('mix = {"NAS.FT": 3.0', 'mix = {"NOPE": 3.0')
        with pytest.raises(ScenarioError, match="unknown app|missing app"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e999", "int-beyond-float"],
    )
    def test_non_finite_number_reports_line(self, paper, literal):
        lines = serialize_scenario(paper).splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith("user_carrier = "))
        lines[index] = lines[index].replace('"bandwidth_mbps": 30.0', f'"bandwidth_mbps": {literal}')
        with pytest.raises(ScenarioError, match=rf"line {index + 1}: invalid value for 'user_carrier'"):
            parse_scenario("\n".join(lines))

    def test_non_finite_inside_nested_value(self, paper):
        text = serialize_scenario(paper).replace('"processing_time_s": 5.8', '"processing_time_s": NaN')
        with pytest.raises(ScenarioError, match="NaN is not a finite number"):
            parse_scenario(text)

    @pytest.mark.parametrize("count", ["8.7", "8.0"])
    def test_fractional_fleet_count_reports_line(self, paper, count):
        lines = serialize_scenario(paper).splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith("cloud_fleet = "))
        lines[index] = lines[index].replace('"cpu": 8,', f'"cpu": {count},')
        with pytest.raises(ScenarioError, match=rf"line {index + 1}: 'cloud_fleet': value for 'cpu' must be an integer"):
            parse_scenario("\n".join(lines))

    @pytest.mark.parametrize("key, old, new", [
        ("mix", '"NAS.FT": 3.0', '"NAS.FT": 3.0, "NAS.FT": 4.0'),
        ("variants", '"device_class": "gpu"', '"device_class": "gpu", "device_class": "cpu"'),
    ], ids=["mix", "nested-variant"])
    def test_duplicate_key_inside_value_reports_line(self, paper, key, old, new):
        lines = serialize_scenario(paper).splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
        lines[index] = lines[index].replace(old, new, 1)
        with pytest.raises(ScenarioError, match=rf"line {index + 1}: invalid value for '{key}': duplicate key"):
            parse_scenario("\n".join(lines))

    @pytest.mark.parametrize("key, old, new, anchor, message", [
        ("transfer_data_mb", "0.2", "-0.2", "name", "transfer_data_size must be finite and >= 0"),
        ("bandwidth_mbps", "2.0", "0", "name", "bandwidth_demand must be finite and > 0"),
        ("variants", '"processing_time_s": 5.8', '"processing_time_s": 0', "variants",
         "processing_time must be finite and > 0"),
        ("variants", '"resource_demand": 1.0', '"resource_demand": true', "variants",
         "resource_demand must be a number"),
        ("variants", '"device_class": "cpu"', '"device_class": "gpu"', "name", "duplicate variant device class"),
        ("variants", None, "[]", "name", "needs at least one variant"),
        ("variants", None, "[5]", "variants", "each variant needs exactly"),
    ], ids=["negative-transfer", "zero-bandwidth", "zero-processing-time", "boolean-demand",
            "duplicate-variant-class", "no-variants", "variant-not-object"])
    def test_malformed_app_entry_reports_line(self, paper, tmp_path, capsys, key, old, new, anchor, message):
        # AppVariant errors name the variants line, AppType errors the entry's name line.
        lines = serialize_scenario(paper).splitlines()
        start = lines.index('name = "NAS.FT"')
        line_of = {row.partition(" = ")[0]: i for i, row in enumerate(lines[start:start + 4], start=start)}
        index = line_of[key]
        lines[index] = f"{key} = {new}" if old is None else lines[index].replace(old, new, 1)
        text = "\n".join(lines)
        with pytest.raises(ScenarioError, match=message) as info:
            parse_scenario(text)
        assert info.value.line == line_of[anchor] + 1
        path = tmp_path / "bad_app.scn"
        path.write_text(text, encoding="utf-8")
        code = main(["run", "--scenario", str(path), "--pattern", "1", "--requests", "5",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"line {line_of[anchor] + 1}: " in err and "Traceback" not in err

    def test_dataclasses_refuse_non_finite(self):
        nan, inf = float("nan"), float("inf")
        for bad in (nan, inf):
            with pytest.raises(ValidationError, match="finite"):
                AppVariant(DeviceClass.GPU, bad, 1.0)
            with pytest.raises(ValidationError, match="finite"):
                AppVariant(DeviceClass.GPU, 1.0, bad)
            variant = AppVariant(DeviceClass.GPU, 1.0, 1.0)
            with pytest.raises(ValidationError, match="finite"):
                AppType("probe", bad, 1.0, (variant,))
            with pytest.raises(ValidationError, match="finite"):
                AppType("probe", 1.0, bad, (variant,))
            with pytest.raises(ValidationError, match="finite"):
                Requirement(RequirementKind.COST_CAP, (1.0, bad))


class TestValidateScenario:
    def test_unplaceable_app_flagged(self, paper):
        from dataclasses import replace

        entry = paper.apps[1]
        fpga_only = replace(
            entry,
            app=AppType(
                name=entry.app.name,
                transfer_data_size=entry.app.transfer_data_size,
                bandwidth_demand=entry.app.bandwidth_demand,
                variants=(entry.app.variant_for(DeviceClass.FPGA),),
            ),
        )
        # FPGA exists at cloud and carrier: still placeable, no violation
        scenario = replace(paper, apps=(paper.apps[0], fpga_only))
        assert validate_scenario(scenario) == []
        # remove FPGA fleets everywhere: violation
        def strip_fpga(plan):
            return TierPlan(
                sites=plan.sites,
                fleet={c: n for c, n in plan.fleet.items() if c is not DeviceClass.FPGA},
                capacity=dict(plan.capacity),
            )

        gutted = replace(
            scenario,
            cloud=strip_fpga(scenario.cloud),
            carrier=strip_fpga(scenario.carrier),
        )
        violations = validate_scenario(gutted)
        assert any("no variant" in v for v in violations)

    def test_indivisible_counts_flagged(self, paper):
        from dataclasses import replace

        scenario = replace(paper, input_nodes=301)
        assert any("input nodes" in v for v in validate_scenario(scenario))
