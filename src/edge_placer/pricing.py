"""Response time, monthly price, and capacity feasibility of one candidate placement.

A candidate binds an application variant to one device plus the uplink
path from the requesting input node to the device's site.  Response time
is the variant's processing time plus one transfer of the app's payload
per path link; price is the reserved fraction of the device's monthly
cost plus the reserved bandwidth fraction of each path link's monthly
cost.

All functions are pure; ``fits`` additionally reads the residual state
maintained by the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import DeviceNode, DeviceClass, Link, ValidationError

if TYPE_CHECKING:
    from .solver import ResidualState

Money = float  # yen per month
Seconds = float

# Absolute tolerance for all money/seconds comparisons.
TOLERANCE = 1e-9

_BITS_PER_BYTE = 8.0


@dataclass(frozen=True)
class AppVariant:
    """One executable form of an application for a specific device class.

    ``processing_time`` is the measured run time on that class;
    ``resource_demand`` is the amount of the device's capacity the
    variant reserves (same unit as DeviceNode.capacity).
    """

    device_class: DeviceClass
    processing_time: Seconds
    resource_demand: float

    def __post_init__(self):
        if not (math.isfinite(self.processing_time) and self.processing_time > 0):
            raise ValidationError(f"{self.device_class.value} variant processing_time must be finite and > 0")
        if not (math.isfinite(self.resource_demand) and self.resource_demand > 0):
            raise ValidationError(f"{self.device_class.value} variant resource_demand must be finite and > 0")


@dataclass(frozen=True)
class AppType:
    """An application profile: payload size, bandwidth reservation, variants.

    ``transfer_data_size`` is in MB (decimal, 10^6 bytes) and
    ``bandwidth_demand`` in Mbps (10^6 bit/s).  At most one variant per
    device class.
    """

    name: str
    transfer_data_size: float
    bandwidth_demand: float
    variants: tuple[AppVariant, ...]

    def __post_init__(self):
        if not (math.isfinite(self.transfer_data_size) and self.transfer_data_size >= 0):
            raise ValidationError(f"app {self.name!r}: transfer_data_size must be finite and >= 0")
        if not (math.isfinite(self.bandwidth_demand) and self.bandwidth_demand > 0):
            raise ValidationError(f"app {self.name!r}: bandwidth_demand must be finite and > 0")
        if not self.variants:
            raise ValidationError(f"app {self.name!r}: needs at least one variant")
        classes = [v.device_class for v in self.variants]
        if len(set(classes)) != len(classes):
            raise ValidationError(f"app {self.name!r}: duplicate variant device class")
        # An app keys the solver's candidate tables, so every decision hashes
        # it: hash the fields once, not on every lookup.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (self.name, self.transfer_data_size, self.bandwidth_demand, self.variants)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: string hashes differ between
        # processes, so the cached hash must not travel in a pickle.
        return (type(self), self._fields())

    def variant_for(self, device_class: DeviceClass) -> AppVariant | None:
        for variant in self.variants:
            if variant.device_class is device_class:
                return variant
        return None


@dataclass(frozen=True)
class CandidatePlacement:
    """An (app variant, device, uplink path) triple under evaluation.

    ``path`` must be the link sequence from the requesting input's user
    edge to the device's site, which the caller obtains from
    ``uplink_path``.
    """

    app: AppType
    variant: AppVariant
    device: DeviceNode
    path: tuple[Link, ...]

    def __post_init__(self):
        if self.variant.device_class is not self.device.device_class:
            raise ValidationError(
                f"variant class {self.variant.device_class.value} does not match "
                f"device {self.device.id!r} class {self.device.device_class.value}"
            )


def transfer_time(data_size: float, bandwidth: float) -> Seconds:
    """Seconds to push ``data_size`` MB through ``bandwidth`` Mbps: 8*MB/Mbps."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    return _BITS_PER_BYTE * data_size / bandwidth

def per_link_time(app: AppType) -> Seconds:
    """One transfer of the app's payload over one path link.

    Each link takes the same time because the transfer is paced by the
    app's own reserved bandwidth, not by link capacity.
    """
    return transfer_time(app.transfer_data_size, app.bandwidth_demand)


def path_response_time(variant: AppVariant, links: int, per_link: Seconds) -> Seconds:
    """Processing time plus ``per_link`` for each of ``links`` path links."""
    return variant.processing_time + links * per_link


def device_price(device: DeviceNode, variant: AppVariant) -> Money:
    """The reserved fraction of the device's monthly cost."""
    return device.full_cost * (variant.resource_demand / device.capacity)


def link_price(link: Link, app: AppType) -> Money:
    """The reserved bandwidth fraction of one path link's monthly cost."""
    return link.monthly_cost * (app.bandwidth_demand / link.bandwidth_capacity)


def path_price(device_term: Money, link_terms) -> Money:
    """The device term plus each link term, added in path order."""
    total = device_term
    for term in link_terms:
        total += term
    return total


def response_time(candidate: CandidatePlacement) -> Seconds:
    """Processing time plus one payload transfer per path link."""
    return path_response_time(candidate.variant, len(candidate.path), per_link_time(candidate.app))


def price(candidate: CandidatePlacement) -> Money:
    """Monthly price: reserved fractions of device and path-link costs."""
    return path_price(
        device_price(candidate.device, candidate.variant),
        [link_price(link, candidate.app) for link in candidate.path],
    )


def fits(candidate: CandidatePlacement, residuals: "ResidualState") -> bool:
    """True iff the candidate's demands fit the remaining device and link capacity.

    Boundary-inclusive: a demand exactly equal to the residual fits.
    Raises KeyError when the residual state does not cover a referenced
    device or link.
    """
    if candidate.variant.resource_demand > residuals.device_remaining[candidate.device.id] + TOLERANCE:
        return False
    for link in candidate.path:
        if candidate.app.bandwidth_demand > residuals.link_remaining[link.id] + TOLERANCE:
            return False
    return True
