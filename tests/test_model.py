import dataclasses

import pytest

from edge_placer.model import (
    DeviceClass,
    DeviceNode,
    FleetSpec,
    InputNode,
    Link,
    LinkSpec,
    Site,
    Tier,
    TierSpec,
    Topology,
    TopologySpec,
    ValidationError,
    build_topology,
    root_path_sites,
    uplink_path,
    validate_topology,
)


def make_spec(cloud=1, carrier=1, user=1, inputs=1, fleet_count=1):
    fleet = (FleetSpec(DeviceClass.CPU, fleet_count, 10.0, 1000.0),)
    return TopologySpec(
        cloud=TierSpec(sites=cloud, fleet=fleet),
        carrier=TierSpec(sites=carrier, fleet=fleet),
        user=TierSpec(sites=user, fleet=fleet),
        input_nodes=inputs,
        user_carrier_link=LinkSpec(30.0, 5000.0),
        carrier_cloud_link=LinkSpec(100.0, 8000.0),
    )


class TestBuildTopology:
    def test_paper_scale_counts(self, paper, paper_topology):
        assert len(paper_topology.sites) == 85
        assert len(paper_topology.links) == 80
        assert len(paper_topology.devices) == 390  # 5*14 + 20*7 + 60*3
        assert len(paper_topology.input_nodes) == 300

    def test_degenerate_single_cloud(self):
        spec = TopologySpec(
            cloud=TierSpec(sites=1, fleet=(FleetSpec(DeviceClass.GPU, 1, 16.0, 100000.0),)),
            carrier=TierSpec(sites=0),
            user=TierSpec(sites=0),
            input_nodes=0,
            user_carrier_link=LinkSpec(30.0, 5000.0),
            carrier_cloud_link=LinkSpec(100.0, 8000.0),
        )
        topo = build_topology(spec)
        assert len(topo.sites) == 1
        assert len(topo.links) == 0
        assert validate_topology(topo) == []

    def test_non_divisible_counts_rejected(self):
        with pytest.raises(ValidationError, match="not divisible"):
            build_topology(make_spec(cloud=1, carrier=3, user=7, inputs=7))

    def test_children_without_parents_rejected(self):
        with pytest.raises(ValidationError):
            build_topology(make_spec(cloud=1, carrier=0, user=2, inputs=2))

    def test_zero_capacity_rejected(self):
        spec = make_spec()
        bad = TopologySpec(
            cloud=TierSpec(sites=1, fleet=(FleetSpec(DeviceClass.CPU, 1, 0.0, 100.0),)),
            carrier=spec.carrier,
            user=spec.user,
            input_nodes=spec.input_nodes,
            user_carrier_link=spec.user_carrier_link,
            carrier_cloud_link=spec.carrier_cloud_link,
        )
        with pytest.raises(ValidationError, match="capacity"):
            build_topology(bad)

    def test_negative_cost_rejected(self):
        spec = make_spec()
        bad = TopologySpec(
            cloud=TierSpec(sites=1, fleet=(FleetSpec(DeviceClass.CPU, 1, 10.0, -1.0),)),
            carrier=spec.carrier,
            user=spec.user,
            input_nodes=spec.input_nodes,
            user_carrier_link=spec.user_carrier_link,
            carrier_cloud_link=spec.carrier_cloud_link,
        )
        with pytest.raises(ValidationError, match="cost"):
            build_topology(bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field, match", [
        ("capacity", "capacity"),
        ("full_cost", "cost"),
        ("bandwidth_capacity", "bandwidth"),
        ("monthly_cost", "link cost"),
    ])
    def test_non_finite_spec_rejected(self, field, match, value):
        spec = make_spec()
        fleet = FleetSpec(DeviceClass.CPU, 1, 10.0, 1000.0)
        link = LinkSpec(30.0, 5000.0)
        if field in ("capacity", "full_cost"):
            fleet = dataclasses.replace(fleet, **{field: value})
        else:
            link = dataclasses.replace(link, **{field: value})
        bad = dataclasses.replace(
            spec, carrier=TierSpec(sites=1, fleet=(fleet,)), user_carrier_link=link
        )
        with pytest.raises(ValidationError, match=f"{match} must be finite"):
            build_topology(bad)

    def test_balanced_attachment(self, paper_topology):
        # user i -> carrier i//3, carrier j -> cloud j//4, input n -> user n//5
        assert paper_topology.uplink_by_child["user000"].parent_site == "carrier000"
        assert paper_topology.uplink_by_child["user059"].parent_site == "carrier019"
        assert paper_topology.uplink_by_child["carrier007"].parent_site == "cloud001"
        assert paper_topology.input_nodes["input299"].attached_user_edge == "user059"
        assert paper_topology.input_nodes["input004"].attached_user_edge == "user000"
        assert paper_topology.input_nodes["input005"].attached_user_edge == "user001"

    def test_deterministic_rebuild(self, paper):
        spec = paper.topology_spec()
        first, second = build_topology(spec), build_topology(spec)
        assert first == second
        assert repr(first) == repr(second)


class TestUplinkPath:
    def test_same_site_empty(self, paper_topology):
        assert uplink_path(paper_topology, "input000", "user000") == []

    def test_one_hop_to_carrier(self, paper_topology):
        assert uplink_path(paper_topology, "input000", "carrier000") == ["link_user000_carrier000"]

    def test_two_hops_to_cloud(self, paper_topology):
        assert uplink_path(paper_topology, "input000", "cloud000") == [
            "link_user000_carrier000",
            "link_carrier000_cloud000",
        ]

    def test_foreign_subtree_rejected(self, paper_topology):
        with pytest.raises(ValueError, match="not on the uplink path"):
            uplink_path(paper_topology, "input000", "cloud001")
        with pytest.raises(ValueError):
            uplink_path(paper_topology, "input000", "user001")

    def test_unknown_site_rejected(self, paper_topology):
        with pytest.raises(KeyError):
            uplink_path(paper_topology, "input000", "nowhere")

    def test_path_length_equals_tier_distance(self, paper_topology):
        for input_id in paper_topology.input_nodes:
            for site_id in root_path_sites(paper_topology, input_id):
                tier = paper_topology.sites[site_id].tier
                path = uplink_path(paper_topology, input_id, site_id)
                assert len(path) == tier.distance_from_user

    def test_devices_reachable_only_from_own_subtree(self, paper_topology):
        # every site is reachable from exactly the inputs whose root path contains it
        reachable = {site_id: set() for site_id in paper_topology.sites}
        for input_id in paper_topology.input_nodes:
            for site_id in root_path_sites(paper_topology, input_id):
                reachable[site_id].add(input_id)
        # 5 inputs per user edge, 15 per carrier, 60 per cloud
        for site_id, inputs in reachable.items():
            tier = paper_topology.sites[site_id].tier
            expected = {Tier.USER_EDGE: 5, Tier.CARRIER_EDGE: 15, Tier.CLOUD: 60}[tier]
            assert len(inputs) == expected
        # foreign inputs cannot reach the site at all
        with pytest.raises(ValueError):
            uplink_path(paper_topology, "input000", "carrier001")


class TestValidateTopology:
    def test_paper_topology_clean(self, paper_topology):
        assert validate_topology(paper_topology) == []

    def test_device_listed_twice(self):
        device = DeviceNode("d1", "s1", Tier.CLOUD, DeviceClass.CPU, 10.0, 100.0)
        topo = Topology(
            sites={
                "s1": Site("s1", Tier.CLOUD, ("d1",)),
                "s2": Site("s2", Tier.CLOUD, ("d1",)),
            },
            devices={"d1": device},
            links={},
            input_nodes={},
        )
        violations = validate_topology(topo)
        assert len(violations) == 1
        assert "multiple sites" in violations[0]

    def test_link_with_cloud_child(self, paper_topology):
        links = dict(paper_topology.links)
        links["link_bad"] = Link("link_bad", "cloud000", "cloud001", 100.0, 8000.0)
        topo = Topology(
            sites=paper_topology.sites,
            devices=paper_topology.devices,
            links=links,
            input_nodes=paper_topology.input_nodes,
        )
        violations = validate_topology(topo)
        assert len(violations) == 1
        assert "cloud site as child" in violations[0]

    def test_input_on_wrong_tier(self, paper_topology):
        inputs = dict(paper_topology.input_nodes)
        inputs["input_bad"] = InputNode("input_bad", "carrier000")
        topo = Topology(
            sites=paper_topology.sites,
            devices=paper_topology.devices,
            links=paper_topology.links,
            input_nodes=inputs,
        )
        violations = validate_topology(topo)
        assert violations and "non-user-edge" in violations[0]
