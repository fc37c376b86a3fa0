import dataclasses
import hashlib
import inspect
import pickle
from itertools import product

import pytest

from edge_placer.model import (
    CLASS_ORDER,
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
    _device_node,
    _input_node,
    _link,
    _site,
    build_topology,
    root_path_sites,
    slot_builder,
    topology_spec_errors,
    uplink_path,
)
from edge_placer.scenario import cost_performance_demo_scenario, paper_scenario
from edge_placer.solver import Placement, PlacementRequest, RequestOutcome, _outcome, _placement, _placement_request


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


LINKS = {"user_carrier_link": LinkSpec(30.0, 5000.0), "carrier_cloud_link": LinkSpec(100.0, 8000.0)}
CLOUD_ONLY = TopologySpec(
    cloud=TierSpec(2, (FleetSpec(DeviceClass.GPU, 2, 16.0, 100000.0), FleetSpec(DeviceClass.CPU, 1, 10.0, 1000.0))),
    carrier=TierSpec(0),
    user=TierSpec(0),
    input_nodes=0,
    **LINKS,
)
FPGA_FIRST = TopologySpec(
    cloud=TierSpec(2, (FleetSpec(DeviceClass.FPGA, 2, 100.0, 9000.0), FleetSpec(DeviceClass.CPU, 3, 10.0, 1000.0))),
    carrier=TierSpec(4, (
        FleetSpec(DeviceClass.FPGA, 1, 50.0, 7000.0),
        FleetSpec(DeviceClass.GPU, 1, 8.0, 5000.0),
        FleetSpec(DeviceClass.CPU, 2, 5.0, 800.0),
    )),
    user=TierSpec(12, (FleetSpec(DeviceClass.FPGA, 1, 25.0, 4000.0), FleetSpec(DeviceClass.CPU, 1, 2.5, 300.0))),
    input_nodes=36,
    **LINKS,
)


def canonical_dump(topology):
    """Every site, device, link and input node, keyed and in dict order, one repr per line."""
    lines = []
    for mapping in (topology.sites, topology.devices, topology.links, topology.input_nodes):
        lines += [f"{key} {value!r}" for key, value in mapping.items()]
    return "\n".join(lines)


def reference_build_topology(spec):
    """The constructor loop that ``build_topology`` replaced, kept as its reference: each record through ``__init__``."""
    errors = topology_spec_errors(spec)
    if errors:
        raise ValidationError("invalid topology spec: " + "; ".join(errors))
    sites, devices, links = {}, {}, {}
    parents = []
    for tier, tier_spec, link_spec in (
        (Tier.CLOUD, spec.cloud, None),
        (Tier.CARRIER_EDGE, spec.carrier, spec.carrier_cloud_link),
        (Tier.USER_EDGE, spec.user, spec.user_carrier_link),
    ):
        fleet = sorted(tier_spec.fleet, key=lambda e: CLASS_ORDER.index(e.device_class))
        per_parent = tier_spec.sites // len(parents) if parents else 0
        ids = []
        for i in range(tier_spec.sites):
            site_id = f"{tier.value}{i:03d}"
            site_devices = []
            for entry in fleet:
                for j in range(entry.count):
                    device_id = f"{site_id}_{entry.device_class.value}{j:02d}"
                    devices[device_id] = DeviceNode(
                        device_id, site_id, tier, entry.device_class, entry.capacity, entry.full_cost
                    )
                    site_devices.append(device_id)
            sites[site_id] = Site(site_id, tier, tuple(site_devices))
            if parents:
                parent = parents[i // per_parent]
                link_id = f"link_{site_id}_{parent}"
                links[link_id] = Link(link_id, site_id, parent, link_spec.bandwidth_capacity, link_spec.monthly_cost)
            ids.append(site_id)
        parents = ids
    per_user = spec.input_nodes // len(parents) if parents else 0
    input_nodes = {}
    for n in range(spec.input_nodes):
        input_id = f"input{n:03d}"
        input_nodes[input_id] = InputNode(input_id, parents[n // per_user])
    return Topology(sites=sites, devices=devices, links=links, input_nodes=input_nodes)


def check_build_topology(spec) -> int:
    """Assert that ``build_topology(spec)`` is the reference's topology; return the number of records compared.

    Dict equality ignores key order, which ``ResidualState.fresh`` and the
    traces depend on, so each mapping's keys are compared as lists, and
    each record by type, ``==`` and ``repr`` (a ``Site``'s ``==`` compares
    its ``devices`` tuple, in order).
    """
    built, reference = build_topology(spec), reference_build_topology(spec)
    compared = 0
    for name in ("sites", "devices", "links", "input_nodes"):
        got, want = getattr(built, name), getattr(reference, name)
        assert list(got) == list(want), f"{name}: keys differ from the reference's, or their order does"
        for key, record in want.items():
            assert type(got[key]) is type(record) and got[key] == record and repr(got[key]) == repr(record), key
            compared += 1
    return compared


# Fleets for the reference specs: none, a zero-count entry, classes out of CLASS_ORDER, 101 servers of one class.
REFERENCE_FLEETS = (
    (),
    (FleetSpec(DeviceClass.CPU, 0, 10.0, 1000.0),),
    (FleetSpec(DeviceClass.FPGA, 1, 100.0, 9000.0), FleetSpec(DeviceClass.GPU, 0, 8.0, 5000.0),
     FleetSpec(DeviceClass.CPU, 3, 2.5, 0.0)),
    (FleetSpec(DeviceClass.GPU, 2, 16.0, 100000.0), FleetSpec(DeviceClass.CPU, 1, 64.0, 300.0)),
    (FleetSpec(DeviceClass.CPU, 101, 10.0, 1000.0), FleetSpec(DeviceClass.GPU, 1, 4.0, 750.0)),
)


def reference_specs():
    """A fixed set of 1080 buildable specs for ``check_build_topology``.

    1-3 cloud sites, 0, 1 or 4 carrier sites per cloud site, 0, 1 or 3
    user sites per carrier site and 0, 1, 5 or 100 inputs per user site.
    Each shape is built with the fleets rotated over the three tiers by one
    and by two places, so every fleet meets every tier; the largest shapes
    have 3600 inputs.
    """
    links = {"user_carrier_link": LinkSpec(30.0, 5000.0), "carrier_cloud_link": LinkSpec(100.0, 8000.0)}
    for cloud, carriers, users, inputs in product((1, 2, 3), (0, 1, 4), (0, 1, 3), (0, 1, 5, 100)):
        carrier = cloud * carriers
        user = carrier * users
        for f, step in product(range(len(REFERENCE_FLEETS)), (1, 2)):
            fleet = [REFERENCE_FLEETS[(f + step * t) % len(REFERENCE_FLEETS)] for t in range(3)]
            yield TopologySpec(TierSpec(cloud, fleet[0]), TierSpec(carrier, fleet[1]), TierSpec(user, fleet[2]),
                               user * inputs, **links)


def check_reference_specs() -> int:
    """``check_build_topology`` on every ``reference_specs()``; the number of records compared."""
    return sum(check_build_topology(spec) for spec in reference_specs())


class TestTopologyDigest:
    """Pins every id, field and insertion order of built topologies (sha256 taken before build_topology's rewrite)."""

    @pytest.mark.parametrize("name, digest", [
        ("paper", "6e845b299b66ca50c6fbeea403fdab18b8cb6c4dafa5e951f568fe72c1fa1e39"),
        ("cloud_only", "61199dc38575555c16a04d0d303ff993548e6ced3254e232a6f908c7a0e3d82e"),
        ("fpga_first", "fd7c55c36e67367fc73eaa03357d1a2f8291e52a00ea913eb15f498fb67ab9d1"),
    ])
    def test_canonical_dump_digest(self, paper, name, digest):
        spec = {"paper": paper.topology_spec(), "cloud_only": CLOUD_ONLY, "fpga_first": FPGA_FIRST}[name]
        assert hashlib.sha256(canonical_dump(build_topology(spec)).encode()).hexdigest() == digest


class TestReferenceBuilder:
    """``build_topology`` against the constructor loop it replaced; CI runs every ``reference_specs()`` as its own step."""

    @pytest.mark.parametrize("scenario", [paper_scenario, cost_performance_demo_scenario])
    def test_presets_equal_the_reference(self, scenario):
        assert check_build_topology(scenario().topology_spec()) > 0

    def test_every_ninth_reference_spec_equals_the_reference(self):
        specs = list(reference_specs())[::9]
        assert sum(check_build_topology(spec) for spec in specs) > 0

    def test_check_notices_key_order(self, monkeypatch):
        spec = make_spec(cloud=1, carrier=2, user=2, inputs=2)
        topology = build_topology(spec)
        reordered = dataclasses.replace(topology, sites=dict(reversed(topology.sites.items())))
        assert reordered == topology  # dict equality ignores order; the check must not
        monkeypatch.setattr("test_model.build_topology", lambda spec: reordered)
        with pytest.raises(AssertionError, match="sites: keys differ"):
            check_build_topology(spec)


class TestTopologyRecords:
    @pytest.mark.parametrize("record_type", [DeviceNode, Link, Site, InputNode])
    def test_slotted_records_stay_frozen(self, record_type, paper_topology):
        mapping = {DeviceNode: paper_topology.devices, Link: paper_topology.links,
                   Site: paper_topology.sites, InputNode: paper_topology.input_nodes}[record_type]
        record = next(iter(mapping.values()))
        assert type(record) is record_type and not hasattr(record, "__dict__")
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is record_type and copy == record and repr(copy) == repr(record)
        changed = dataclasses.replace(record, id="other")
        assert type(changed) is record_type and changed.id == "other" and changed != record
        assert dataclasses.replace(changed, id=record.id) == record


class TestSlotBuilder:
    @pytest.mark.parametrize("record_type, builder", [
        (DeviceNode, _device_node), (Link, _link), (Site, _site), (InputNode, _input_node),
        (PlacementRequest, _placement_request), (RequestOutcome, _outcome), (Placement, _placement),
    ])
    def test_builders_equal_their_constructors(self, record_type, builder):
        names = [f.name for f in dataclasses.fields(record_type)]
        # One parameter per field, in field order: a new field fails here.
        assert list(inspect.signature(builder).parameters) == names
        values = [f"{name}-value" for name in names]
        built, constructed = builder(*values), record_type(*values)
        assert type(built) is record_type and not hasattr(built, "__dict__")
        assert built == constructed and repr(built) == repr(constructed) and hash(built) == hash(constructed)
        assert [getattr(built, name) for name in names] == values
        copy = pickle.loads(pickle.dumps(built))
        assert type(copy) is record_type and copy == constructed and hash(copy) == hash(constructed)
        for name in names:
            changed = dataclasses.replace(built, **{name: "other"})
            assert changed == dataclasses.replace(constructed, **{name: "other"}) and changed != built
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, name, "other")
        assert [getattr(built, name) for name in names] == values

    def test_fields_named_like_the_builders_own_names(self):
        # Every name the builder of a plain record reads or binds, besides its parameters, becomes a field.
        code = slot_builder(InputNode).__code__
        own = sorted({*code.co_names, *code.co_varnames} - {"id", "attached_user_edge"})
        record_type = dataclasses.make_dataclass("Record", ["record", "cls", "new", "self", *own],
                                                 frozen=True, slots=True)
        names = [f.name for f in dataclasses.fields(record_type)]
        builder = slot_builder(record_type)
        assert list(inspect.signature(builder).parameters) == names
        values = [f"{name}-value" for name in names]
        built = builder(*values)
        assert type(built) is record_type and built == record_type(*values)
        assert [getattr(built, name) for name in names] == values


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
        assert topo.sites["cloud000"].devices == ("cloud000_gpu00",)
        assert topo.devices["cloud000_gpu00"].tier is Tier.CLOUD

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

    @pytest.mark.parametrize("change, message", [
        ({"cloud": TierSpec(sites=-1)}, "cloud site count is negative"),
        ({"carrier": TierSpec(sites=1, fleet=(FleetSpec(DeviceClass.GPU, -2, 8.0, 500.0),))},
         "carrier gpu server count is negative"),
        ({"input_nodes": -1}, "input node count is negative"),
    ])
    def test_negative_count_rejected(self, change, message):
        spec = dataclasses.replace(make_spec(), **change)
        assert topology_spec_errors(spec) == [message]
        with pytest.raises(ValidationError, match=f"^invalid topology spec: {message}$"):
            build_topology(spec)

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
        distance = {Tier.USER_EDGE: 0, Tier.CARRIER_EDGE: 1, Tier.CLOUD: 2}
        for input_id in paper_topology.input_nodes:
            for site_id in root_path_sites(paper_topology, input_id):
                tier = paper_topology.sites[site_id].tier
                path = uplink_path(paper_topology, input_id, site_id)
                assert len(path) == distance[tier]

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

