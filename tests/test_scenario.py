import dataclasses

import pytest

from edge_placer.cli import main
from edge_placer.model import DeviceClass, Tier, ValidationError
from edge_placer.pricing import AppType, AppVariant
from edge_placer.scenario import (
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

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
    def test_splitlines_breaks_in_names_round_trip(self, paper, char):
        # str.splitlines breaks lines at these; JSON would leave them raw.
        scenario = dataclasses.replace(paper, name=f"a{char}b")
        assert parse_scenario(serialize_scenario(scenario)) == scenario


class TestComments:
    @pytest.mark.parametrize("comment", ["# sites per tier", '# a=b "q" \\'])
    def test_inline_and_full_line_comments(self, paper, comment):
        lines = serialize_scenario(paper).splitlines()
        commented = ["# header comment"]
        for line in lines:
            if line.startswith("cloud_sites"):
                commented.append(line + "   " + comment)
            elif line.startswith("name"):
                commented.append(line + " # scenario title")
            elif line == "[topology]":
                commented.append(line + "   # note")
            else:
                commented.append(line)
        assert parse_scenario("\n".join(commented)) == paper

    @pytest.mark.parametrize("json_name, name", [('"NAS#FT"', "NAS#FT"), ('"NAS\\"#FT"', 'NAS"#FT')])
    def test_hash_inside_string_kept(self, paper, json_name, name):
        text = serialize_scenario(paper).replace('"NAS.FT"', json_name)
        parsed = parse_scenario(text)
        assert parsed.apps[0].app.name == name

    def test_hash_before_the_equals_sign_comments_it_out(self, paper):
        lines = serialize_scenario(paper).splitlines()
        lines.insert(1, "name # x = 1")
        with pytest.raises(ScenarioError, match=r"^line 2: expected 'key = value' or a section header, got 'name'$"):
            parse_scenario("\n".join(lines))


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

    @pytest.mark.parametrize("old, new, message", [
        ("cloud_sites = 5", "cloud_sites = -1", "'cloud_sites' must be >= 0"),
        ("cloud_sites = 5", "cloud_sites = 5.5", "'cloud_sites' must be an integer"),
        ("input_nodes = 300", "input_nodes = -300", "'input_nodes' must be >= 0"),
        ('cloud_fleet = {"cpu": 8', 'cloud_fleet = {"cpu": -8', "'cloud_fleet': value for 'cpu' must be >= 0"),
        ('user_capacity = {"cpu": 100.0', 'user_capacity = {"cpu": 0',
         "'user_capacity': value for 'cpu' must be > 0"),
        ('"fpga": 1200.0', '"fpga": -1200.0', "'unit_price': value for 'fpga' must be >= 0"),
        ('"fpga": 1200.0', '"fpga": "1200"', "'unit_price': value for 'fpga' must be a number"),
        ("carrier_multiplier = 1.25", "carrier_multiplier = 0", "'carrier_multiplier' must be > 0"),
        ("user_multiplier = 1.5", "user_multiplier = -1.5", "'user_multiplier' must be > 0"),
        ('"bandwidth_mbps": 30.0', '"bandwidth_mbps": 0', "'user_carrier': bandwidth_mbps must be > 0"),
        ('"monthly_cost": 8000.0', '"monthly_cost": -1', "'carrier_cloud': monthly_cost must be >= 0"),
        ('"MRI-Q": 1.0}', '"MRI-Q": 0}', "'mix' weight for 'MRI-Q' must be > 0"),
        ('"MRI-Q": 1.0}', '"MRI-Q": "1"}', "'mix' weight for 'MRI-Q' must be a number"),
        ("[7000.0,", "[-7000.0,", "'price_menus': menu value must be > 0"),
        ("[4.0, 8.0]", "[4.0, true]", "'deadline_menus': menu value must be a number"),
        ('name = "paper-3tier"', "name = 5", "'name' must be a str"),
        ("schema_version = 1", "schema_version = 2", "unsupported schema_version 2"),
        ("[links]", "[[links]]", "unknown repeated section [[links]]"),
        ("[[apps]]", "[apps]", "apps entries are written as [[apps]]"),
        ("carrier_multiplier = 1.25", "carrier_multiplier = 1.25 1.5",
         "invalid value for 'carrier_multiplier': Extra data"),
        ("[7000.0, 8500.0, 10000.0]", "7000.0", "'price_menus' must be an array"),
        (', "monthly_cost": 5000.0}', "}", "'user_carrier' must have exactly bandwidth_mbps and monthly_cost"),
        ('name = "NAS.FT"', 'name = ""', "app name must be non-empty"),
        ('name = "MRI-Q"', 'name = "NAS.FT"', "duplicate app name 'NAS.FT'"),
        ('"device_class": "gpu"', '"device_class": "tpu"', "unknown device class 'tpu'"),
        (', "MRI-Q": 1.0}', "}", "'mix' is missing app 'MRI-Q'"),
        # A key must be an identifier, refused at its own line, not later as a missing key.
        ("cloud_sites = 5", "cloud sites = 5", "expected 'key = value' or a section header, got 'cloud sites = 5'"),
        ("schema_version = 1", ' ""q"x = 1#=', """expected 'key = value' or a section header, got '""q"x = 1#='"""),
    ], ids=["sites-negative", "sites-fractional", "input-nodes-negative", "fleet-negative", "capacity-zero",
            "unit-price-negative", "unit-price-string", "carrier-multiplier-zero", "user-multiplier-negative",
            "link-bandwidth-zero", "link-cost-negative", "mix-weight-zero", "mix-weight-string",
            "price-menu-negative", "deadline-menu-boolean", "name-not-string", "schema-version-2",
            "repeated-links", "single-bracket-apps", "extra-data", "menu-not-array", "link-missing-cost",
            "empty-app-name", "duplicate-app-name", "variant-unknown-class", "mix-missing-app",
            "key-with-space", "key-with-quotes"])
    def test_numeric_rule_message_and_line(self, paper, old, new, message):
        lines = serialize_scenario(paper).splitlines()
        index = next(i for i, line in enumerate(lines) if old in line)
        lines[index] = lines[index].replace(old, new)
        with pytest.raises(ScenarioError) as info:
            parse_scenario("\n".join(lines))
        assert str(info.value) == f"line {index + 1}: {message}"
        assert info.value.line == index + 1

    def test_no_apps(self, paper):
        text = serialize_scenario(paper)
        text = text[: text.index("[[apps]]")] + text[text.index("[requests]"):]
        with pytest.raises(ScenarioError, match=r"^missing section \[\[apps\]\]: at least one app is required$"):
            parse_scenario(text)

    def test_missing_app_key_names_entry_header(self, paper):
        lines = serialize_scenario(paper).splitlines()
        lines.remove('name = "MRI-Q"')
        with pytest.raises(ScenarioError) as info:
            parse_scenario("\n".join(lines))
        assert str(info.value) == f"line {lines.index('[[apps]]', 26) + 1}: [apps #2] is missing key 'name'"

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

    def test_mix_weights_must_add_up_to_a_finite_total(self, paper):
        # Each weight is finite, but their total is not: every draw would pick the last app.
        nas, mri = (dataclasses.replace(entry, mix_weight=1e308) for entry in paper.apps)
        huge = dataclasses.replace(paper, apps=(nas, mri))
        assert huge.mix_cumulative() == [0.0, 1.0]
        assert validate_scenario(huge) == ["mix weights must add up to a finite total"]
        # Added left to right on every CPython, which `sum` (compensated from 3.12 on) is not.
        tenths = dataclasses.replace(paper, apps=(dataclasses.replace(paper.apps[0], mix_weight=0.1),) * 10)
        assert tenths.mix_total() == 0.9999999999999999
        assert validate_scenario(tenths) == []

    def test_indivisible_counts_flagged(self, paper):
        from dataclasses import replace

        scenario = replace(paper, input_nodes=301)
        assert any("input nodes" in v for v in validate_scenario(scenario))

    def test_fleet_of_a_siteless_tier_needs_no_unit_price(self, paper):
        from dataclasses import replace

        from edge_placer.model import build_topology

        # No user sites: the user fleet's FPGA exists nowhere, so neither
        # validation nor the topology spec asks for its unit price.
        def without_fpga(plan):
            return replace(plan, fleet={c: n for c, n in plan.fleet.items() if c is not DeviceClass.FPGA})

        scenario = replace(
            paper,
            cloud=without_fpga(paper.cloud),
            carrier=without_fpga(paper.carrier),
            user=TierPlan(sites=0, fleet={DeviceClass.FPGA: 1}, capacity={DeviceClass.FPGA: 100.0}),
            input_nodes=0,
            unit_price={c: p for c, p in paper.unit_price.items() if c is not DeviceClass.FPGA},
        )
        assert validate_scenario(scenario, require_placeable=False) == []
        assert not any(d.device_class is DeviceClass.FPGA for d in build_topology(scenario.topology_spec()).devices.values())

    def test_missing_capacity_reported_as_the_parser_words_it(self, paper):
        import re

        user = TierPlan(sites=60, fleet={DeviceClass.GPU: 1}, capacity={})
        message = "'user_capacity' is missing device class 'gpu' used by 'user_fleet'"
        assert validate_scenario(dataclasses.replace(paper, user=user)) == [message]
        with pytest.raises(ScenarioError, match=f"^line 4: {re.escape(message)}$"):
            parse_scenario(serialize_scenario(dataclasses.replace(paper, user=user)))
        # A tier without sites needs no capacity, in the file as in the API.
        siteless = dataclasses.replace(paper, user=dataclasses.replace(user, sites=0), input_nodes=0)
        assert validate_scenario(siteless) == []
        assert parse_scenario(serialize_scenario(siteless)) == siteless

        # Flat pricing prices every class at the cloud's capacity, which the parser does not check.
        cpu_cloud = TierPlan(paper.cloud.sites, {DeviceClass.CPU: 8}, {DeviceClass.CPU: 100.0})
        flat = dataclasses.replace(paper, cloud=cpu_cloud, flat_server_pricing=True)
        assert validate_scenario(flat) == [
            f"'cloud_capacity' is missing device class {cls!r} used by flat_server_pricing" for cls in ("gpu", "fpga")
        ]
        assert parse_scenario(serialize_scenario(flat)) == flat
        assert validate_scenario(dataclasses.replace(flat, flat_server_pricing=False)) == []
