"""Cloud region catalogue.

The paper evaluates on the North American AWS regions (§9.1): us-east-1,
us-west-1, us-west-2, and ca-central-1, with us-east-2 and ca-west-1
mentioned as the remaining public NA regions (§2.1).  Each region carries
its coordinates (for the geodesic latency model), the jurisdiction it
falls under (for compliance constraints), and the grid zone its
datacenters draw power from (for carbon intensity lookups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Region:
    """A cloud provider region.

    Attributes:
        name: Provider-style region id, e.g. ``"us-east-1"``.
        provider: Cloud provider the region belongs to.
        latitude / longitude: Approximate datacenter coordinates.
        country: ISO country code, used for data-residency constraints.
        grid_zone: Electrical grid the region is attached to.  Regions on
            the same grid share a carbon-intensity series (us-east-1 and
            us-east-2 per §2.1).
    """

    name: str
    provider: str
    latitude: float
    longitude: float
    country: str
    grid_zone: str

    def __str__(self) -> str:
        return self.name


def _r(name: str, lat: float, lon: float, country: str, grid: str) -> Region:
    return Region(
        name=name,
        provider="aws",
        latitude=lat,
        longitude=lon,
        country=country,
        grid_zone=grid,
    )


#: The six public AWS North American regions (§2.1).  us-east-1/us-east-2
#: share the PJM grid; ca-west-1 (Calgary) rolled out in 2024 and is kept
#: in the catalogue but excluded from the paper's four-region evaluation.
NORTH_AMERICA: Tuple[Region, ...] = (
    _r("us-east-1", 38.9, -77.5, "US", "US-PJM"),
    _r("us-east-2", 40.0, -83.0, "US", "US-PJM"),
    _r("us-west-1", 37.4, -121.9, "US", "US-CAISO"),
    _r("us-west-2", 45.8, -119.7, "US", "US-BPA"),
    _r("ca-central-1", 45.5, -73.6, "CA", "CA-QC"),
    _r("ca-west-1", 51.0, -114.1, "CA", "CA-AB"),
)

#: The four regions used throughout the paper's evaluation (§9.1).
EVALUATION_REGIONS: Tuple[str, ...] = (
    "us-east-1",
    "us-west-1",
    "us-west-2",
    "ca-central-1",
)

_BY_NAME: Dict[str, Region] = {r.name: r for r in NORTH_AMERICA}


def get_region(name: str) -> Region:
    """Look up a region by name, raising ``KeyError`` with guidance."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown region {name!r}; known regions: {known}") from None


def all_regions() -> Tuple[Region, ...]:
    """Every region in the catalogue."""
    return NORTH_AMERICA
