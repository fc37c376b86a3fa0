import copy
import dataclasses
import pickle
import random

import pytest

from edge_placer.model import DeviceClass, DeviceNode, Link, Tier
from edge_placer.pricing import (
    TOLERANCE,
    AppType,
    AppVariant,
    CandidatePlacement,
    ValidationError,
    fits,
    price,
    response_time,
    transfer_time,
)
from edge_placer.solver import ResidualState

TOL = 1e-9


def candidate(app, device_class, device, path=()):
    return CandidatePlacement(
        app=app, variant=app.variant_for(device_class), device=device, path=tuple(path)
    )


@pytest.fixture
def nas_ft(paper):
    return paper.app_entry("NAS.FT").app


@pytest.fixture
def mri_q(paper):
    return paper.app_entry("MRI-Q").app


def device_of(topology, device_id):
    return topology.devices[device_id]


def path_links(topology, input_id, site_id):
    from edge_placer.model import uplink_path

    return [topology.links[l] for l in uplink_path(topology, input_id, site_id)]


class TestTransferTime:
    def test_point_values(self):
        assert transfer_time(0.2, 2.0) == pytest.approx(0.8, abs=TOL)
        assert transfer_time(0.0, 1.0) == 0.0
        assert transfer_time(0.15, 1.0) == pytest.approx(1.2, abs=TOL)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            transfer_time(1.0, 0.0)
        with pytest.raises(ValueError):
            transfer_time(1.0, -2.0)


class TestResponseTime:
    def test_user_edge_equals_processing_time(self, nas_ft, paper_topology):
        c = candidate(nas_ft, DeviceClass.GPU, device_of(paper_topology, "user000_gpu00"))
        assert response_time(c) == pytest.approx(5.8, abs=TOL)

    def test_cloud_two_links(self, nas_ft, paper_topology):
        c = candidate(
            nas_ft,
            DeviceClass.GPU,
            device_of(paper_topology, "cloud000_gpu00"),
            path_links(paper_topology, "input000", "cloud000"),
        )
        assert response_time(c) == pytest.approx(7.4, abs=TOL)

    def test_mri_q_cloud(self, mri_q, paper_topology):
        c = candidate(
            mri_q,
            DeviceClass.FPGA,
            device_of(paper_topology, "cloud000_fpga00"),
            path_links(paper_topology, "input000", "cloud000"),
        )
        assert response_time(c) == pytest.approx(4.4, abs=TOL)

    def test_lower_bounded_by_processing_time(self, nas_ft, mri_q, paper_topology):
        for app, cls in ((nas_ft, DeviceClass.GPU), (mri_q, DeviceClass.FPGA), (nas_ft, DeviceClass.CPU)):
            for input_id in ("input000", "input100", "input299"):
                from edge_placer.model import root_path_sites

                for site_id in root_path_sites(paper_topology, input_id):
                    site = paper_topology.sites[site_id]
                    links = path_links(paper_topology, input_id, site_id)
                    for device_id in site.devices:
                        device = paper_topology.devices[device_id]
                        if device.device_class is not cls:
                            continue
                        c = candidate(app, cls, device, links)
                        assert response_time(c) >= c.variant.processing_time - TOL
                        if not links:
                            assert response_time(c) == pytest.approx(
                                c.variant.processing_time, abs=TOL
                            )


class TestPrice:
    def test_nas_ft_cloud_gpu(self, nas_ft, paper_topology):
        c = candidate(
            nas_ft,
            DeviceClass.GPU,
            device_of(paper_topology, "cloud000_gpu00"),
            path_links(paper_topology, "input000", "cloud000"),
        )
        # 100000/16 + 5000*2/30 + 8000*2/100
        assert price(c) == pytest.approx(6743.333333333333, abs=TOL)

    def test_mri_q_cloud_fpga(self, mri_q, paper_topology):
        c = candidate(
            mri_q,
            DeviceClass.FPGA,
            device_of(paper_topology, "cloud000_fpga00"),
            path_links(paper_topology, "input000", "cloud000"),
        )
        # 12000 + 5000/30 + 8000/100
        assert price(c) == pytest.approx(12246.666666666666, abs=TOL)

    def test_zero_demand_zero_price(self):
        app = AppType("freebie", 0.0, 1.0, (AppVariant(DeviceClass.CPU, 1.0, 1e-12),))
        device = DeviceNode("d", "s", Tier.USER_EDGE, DeviceClass.CPU, 100.0, 0.0)
        assert price(candidate(app, DeviceClass.CPU, device)) == 0.0

    def test_linear_in_demands_and_additive_over_links(self):
        rng = random.Random(7)
        for _ in range(100):
            capacity = rng.uniform(1, 50)
            full_cost = rng.uniform(0, 100000)
            demand = rng.uniform(0.1, capacity)
            bandwidth = rng.uniform(0.1, 8)
            device = DeviceNode("d", "s", Tier.CLOUD, DeviceClass.GPU, capacity, full_cost)
            links = [
                Link(f"l{i}", "a", "b", rng.uniform(1, 200), rng.uniform(0, 9000))
                for i in range(rng.randint(0, 2))
            ]
            app = AppType("x", rng.uniform(0, 3), bandwidth, (AppVariant(DeviceClass.GPU, 1.0, demand),))
            c = candidate(app, DeviceClass.GPU, device, links)
            expected = full_cost * demand / capacity + sum(
                l.monthly_cost * bandwidth / l.bandwidth_capacity for l in links
            )
            assert price(c) == pytest.approx(expected, rel=1e-12)

            # doubling demand doubles the device term only
            app2 = AppType("x", app.transfer_data_size, bandwidth, (AppVariant(DeviceClass.GPU, 1.0, 2 * demand),))
            c2 = candidate(app2, DeviceClass.GPU, device, links)
            link_part = sum(l.monthly_cost * bandwidth / l.bandwidth_capacity for l in links)
            assert price(c2) - link_part == pytest.approx(2 * (price(c) - link_part), rel=1e-9)

    def test_cost_scaling_is_exactly_linear(self, nas_ft, paper_topology):
        lam = 7.0
        c = candidate(
            nas_ft,
            DeviceClass.GPU,
            device_of(paper_topology, "cloud000_gpu00"),
            path_links(paper_topology, "input000", "cloud000"),
        )
        device = c.device
        scaled_device = DeviceNode(
            device.id, device.site_id, device.tier, device.device_class,
            device.capacity, device.full_cost * lam,
        )
        scaled_links = [
            Link(l.id, l.child_site, l.parent_site, l.bandwidth_capacity, l.monthly_cost * lam)
            for l in c.path
        ]
        scaled = candidate(nas_ft, DeviceClass.GPU, scaled_device, scaled_links)
        assert price(scaled) == pytest.approx(lam * price(c), rel=1e-12)
        assert response_time(scaled) == response_time(c)  # cost-independent


class TestFits:
    def test_fresh_cloud_gpu_fits(self, nas_ft, paper_topology):
        state = ResidualState.fresh(paper_topology)
        c = candidate(
            nas_ft,
            DeviceClass.GPU,
            device_of(paper_topology, "cloud000_gpu00"),
            path_links(paper_topology, "input000", "cloud000"),
        )
        assert fits(c, state)

    def test_boundary_inclusive(self, nas_ft, paper_topology):
        from edge_placer.solver import PlacementRequest, Requirement, RequirementKind, feasible_candidates

        # A NAS.FT GPU variant reserves 1.0 of its device and 2.0 Mbps of each path link.
        user_gpu = candidate(nas_ft, DeviceClass.GPU, device_of(paper_topology, "user000_gpu00"))
        cloud_gpu = candidate(
            nas_ft,
            DeviceClass.GPU,
            device_of(paper_topology, "cloud000_gpu00"),
            path_links(paper_topology, "input000", "cloud000"),
        )
        request = PlacementRequest(
            1, nas_ft, paper_topology.input_nodes["input000"], Requirement(RequirementKind.COST_CAP, (1e9,))
        )
        boundaries = [
            (user_gpu, "device_remaining", "user000_gpu00", 1.0),
            (cloud_gpu, "link_remaining", cloud_gpu.path[-1].id, 2.0),
        ]
        for c, residuals, key, demand in boundaries:
            # Exactly the demand fits, so does a shortfall within the tolerance; a larger one does not.
            for shortfall, expected in [(0.0, True), (TOLERANCE / 2, True), (1e-6, False)]:
                state = ResidualState.fresh(paper_topology)
                getattr(state, residuals)[key] = demand - shortfall
                assert fits(c, state) is expected, (key, shortfall)
                admitted = feasible_candidates(paper_topology, state, request, request.requirement)
                assert (c.device.id in {e.device.id for e in admitted}) is expected, (key, shortfall)

    def test_seventeenth_placement_rejected(self, nas_ft, paper_topology):
        from edge_placer.solver import Bound, PlacementRequest, Requirement, RequirementKind, apply_placement, solve_request

        state = ResidualState.fresh(paper_topology)
        bound = Bound(RequirementKind.COST_CAP, 7000.0)
        # 16 placements spread over the 12 user edges of the cloud000 subtree
        for k in range(16):
            input_id = f"input{5 * (k % 12) + k // 12:03d}"
            request = PlacementRequest(
                id=k + 1,
                app=nas_ft,
                input_node=paper_topology.input_nodes[input_id],
                requirement=Requirement(RequirementKind.COST_CAP, (7000.0,)),
            )
            placement = solve_request(paper_topology, state, request, bound)
            assert placement is not None and placement.device_id == "cloud000_gpu00"
            apply_placement(state, placement)
        assert state.device_remaining["cloud000_gpu00"] == pytest.approx(0.0, abs=TOL)
        c = candidate(
            nas_ft,
            DeviceClass.GPU,
            device_of(paper_topology, "cloud000_gpu00"),
            path_links(paper_topology, "input000", "cloud000"),
        )
        assert not fits(c, state)

    def test_unknown_ids_error(self, nas_ft, paper_topology):
        state = ResidualState(device_remaining={}, link_remaining={})
        c = candidate(nas_ft, DeviceClass.GPU, device_of(paper_topology, "user000_gpu00"))
        with pytest.raises(KeyError):
            fits(c, state)


class TestInvariantsOfTypes:
    def test_variant_validation(self):
        with pytest.raises(ValidationError):
            AppVariant(DeviceClass.GPU, 0.0, 1.0)
        with pytest.raises(ValidationError):
            AppVariant(DeviceClass.GPU, 1.0, 0.0)

    def test_app_validation(self):
        gpu = AppVariant(DeviceClass.GPU, 1.0, 1.0)
        with pytest.raises(ValidationError):
            AppType("x", -0.1, 1.0, (gpu,))
        with pytest.raises(ValidationError):
            AppType("x", 0.1, 0.0, (gpu,))
        with pytest.raises(ValidationError):
            AppType("x", 0.1, 1.0, ())
        with pytest.raises(ValidationError):
            AppType("x", 0.1, 1.0, (gpu, AppVariant(DeviceClass.GPU, 2.0, 2.0)))

    def test_app_hash_is_its_fields_hash(self, nas_ft):
        assert hash(nas_ft) == hash(
            (nas_ft.name, nas_ft.transfer_data_size, nas_ft.bandwidth_demand, nas_ft.variants)
        )

    def test_equal_apps_hash_equal_after_copies(self, nas_ft):
        copies = [
            dataclasses.replace(nas_ft),
            dataclasses.replace(dataclasses.replace(nas_ft, name="other"), name=nas_ft.name),
            copy.copy(nas_ft),
            copy.deepcopy(nas_ft),
            *(pickle.loads(pickle.dumps(nas_ft, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        ]
        for app in copies:
            assert app == nas_ft and hash(app) == hash(nas_ft)
        assert dataclasses.replace(nas_ft, bandwidth_demand=3.0) != nas_ft

    def test_candidate_class_mismatch(self, nas_ft, paper_topology):
        device = paper_topology.devices["cloud000_cpu00"]
        with pytest.raises(ValidationError):
            CandidatePlacement(nas_ft, nas_ft.variant_for(DeviceClass.GPU), device, ())
