"""Property tests: build_topology against topology_spec_errors, and the scenario text round trip."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from edge_placer.model import (  # noqa: E402
    CLASS_ORDER,
    DeviceClass,
    FleetSpec,
    LinkSpec,
    Tier,
    TierSpec,
    TopologySpec,
    ValidationError,
    build_topology,
    topology_spec_errors,
)
from edge_placer.pricing import AppType, AppVariant  # noqa: E402
from edge_placer.scenario import AppEntry, Scenario, TierPlan, parse_scenario, serialize_scenario  # noqa: E402

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def fleets(draw, sound):
    capacities = st.sampled_from([2.5, 10.0, 64.0] + ([] if sound else [0.0, -1.0, math.inf, math.nan]))
    costs = st.sampled_from([0.0, 300.0, 9000.0] + ([] if sound else [-1.0, math.inf, math.nan]))
    classes = draw(st.permutations(list(DeviceClass)))[: draw(st.integers(0, 3))]
    counts = st.integers(0 if sound else -1, 3)
    return tuple(FleetSpec(cls, draw(counts), draw(capacities), draw(costs)) for cls in classes)


@st.composite
def topology_specs(draw):
    # Half the specs build: no bad value, and every tier 1-3 times as large as the one above.
    sound = draw(st.booleans())
    skew = st.just(0) if sound else st.integers(-1, 1)
    multiplier = st.integers(1 if sound else 0, 3)
    cloud = draw(st.integers(1 if sound else -1, 3))
    carrier = cloud * draw(multiplier) + draw(skew)
    user = carrier * draw(multiplier) + draw(skew)
    inputs = user * draw(multiplier) + draw(skew)
    bandwidths = st.sampled_from([30.0] + ([] if sound else [0.0, math.inf]))
    costs = st.sampled_from([0.0, 5000.0] + ([] if sound else [-1.0, math.nan]))
    return TopologySpec(
        cloud=TierSpec(cloud, draw(fleets(sound))),
        carrier=TierSpec(carrier, draw(fleets(sound))),
        user=TierSpec(user, draw(fleets(sound))),
        input_nodes=inputs,
        user_carrier_link=LinkSpec(draw(bandwidths), draw(costs)),
        carrier_cloud_link=LinkSpec(draw(bandwidths), draw(costs)),
    )


@PROPERTY_SETTINGS
@given(topology_specs())
def test_build_topology_follows_spec_errors(spec):
    errors = topology_spec_errors(spec)
    if errors:
        with pytest.raises(ValidationError):
            build_topology(spec)
        return
    topology = build_topology(spec)
    tiers = [(Tier.CLOUD, spec.cloud), (Tier.CARRIER_EDGE, spec.carrier), (Tier.USER_EDGE, spec.user)]
    by_tier = {tier: [s for s in topology.sites.values() if s.tier is tier] for tier, _ in tiers}
    listed = []
    for (tier, tier_spec), above in zip(tiers, [None, Tier.CLOUD, Tier.CARRIER_EDGE]):
        sites = by_tier[tier]
        assert len(sites) == tier_spec.sites
        for i, site in enumerate(sites):
            link = topology.uplink_by_child.get(site.id)
            if above is None:
                assert link is None
            else:  # balanced blocks: child i of n goes to parent i // (n / parents)
                parents = by_tier[above]
                assert link.parent_site == parents[i // (len(sites) // len(parents))].id
            classes = [topology.devices[d].device_class for d in site.devices]
            assert classes == sorted(classes, key=CLASS_ORDER.index)
            for entry in tier_spec.fleet:
                assert classes.count(entry.device_class) == max(entry.count, 0)
            listed += site.devices
    assert len(topology.links) == spec.carrier.sites + spec.user.sites
    assert len(listed) == len(set(listed)) == len(topology.devices)
    assert set(listed) == set(topology.devices)
    attached = [node.attached_user_edge for node in topology.input_nodes.values()]
    users = [site.id for site in by_tier[Tier.USER_EDGE]]
    assert len(attached) == spec.input_nodes
    if attached:
        assert attached == [u for u in users for _ in range(spec.input_nodes // len(users))]


names = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
class_maps = st.dictionaries(st.sampled_from(list(DeviceClass)), positive, max_size=3)
menus = st.lists(positive, max_size=3, unique=True).map(lambda values: tuple(sorted(values)))


@st.composite
def tier_plans(draw, sites):
    capacity = draw(class_maps)
    fleet = {cls: draw(st.integers(0, 4)) for cls in capacity}
    return TierPlan(sites=sites, fleet=fleet, capacity=capacity)


@st.composite
def app_entries(draw, name):
    classes = draw(st.permutations(list(DeviceClass)))[: draw(st.integers(1, 3))]
    app = AppType(
        name=name,
        transfer_data_size=draw(non_negative),
        bandwidth_demand=draw(positive),
        variants=tuple(AppVariant(cls, draw(positive), draw(positive)) for cls in classes),
    )
    return AppEntry(app=app, mix_weight=draw(positive), price_menu=draw(menus), deadline_menu=draw(menus))


@st.composite
def scenarios(draw):
    cloud = draw(st.integers(0, 2))
    carrier = cloud * draw(st.integers(0, 2))
    user = carrier * draw(st.integers(0, 2))
    app_names = draw(st.lists(names.filter(bool), min_size=1, max_size=3, unique=True))
    return Scenario(
        schema_version=1,
        name=draw(names),
        cloud=draw(tier_plans(cloud)),
        carrier=draw(tier_plans(carrier)),
        user=draw(tier_plans(user)),
        input_nodes=user * draw(st.integers(0, 3)),
        unit_price=draw(st.dictionaries(st.sampled_from(list(DeviceClass)), non_negative, max_size=3)),
        carrier_multiplier=draw(positive),
        user_multiplier=draw(positive),
        flat_server_pricing=draw(st.booleans()),
        user_carrier_link=LinkSpec(draw(positive), draw(non_negative)),
        carrier_cloud_link=LinkSpec(draw(positive), draw(non_negative)),
        apps=tuple(draw(app_entries(name)) for name in app_names),
    )


@PROPERTY_SETTINGS
@given(scenarios())
def test_serialized_scenario_parses_back(scenario):
    assert parse_scenario(serialize_scenario(scenario)) == scenario
