"""Inter-region latency grid (CloudPing substitute).

CloudPing publishes measured RTTs between AWS regions.  Offline we derive
round-trip times from great-circle distance: light in fibre covers about
200 km/ms one-way, and real routes are ~1.6x longer than geodesic, plus a
fixed per-hop processing overhead.  The resulting matrix lands within a
few ms of CloudPing's published numbers for the NA regions (e.g.
us-east-1 <-> us-west-1 ~62 ms, us-east-1 <-> ca-central-1 ~16 ms).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.data.regions import Region, all_regions, get_region

#: Effective one-way propagation speed in fibre, km per second.
_FIBRE_KM_PER_S = 200_000.0
#: Ratio of route length to great-circle distance.
_ROUTE_STRETCH = 1.6
#: Fixed processing/queueing overhead per direction, seconds.
_PER_HOP_OVERHEAD_S = 0.002
#: RTT within one region (between AZs / services), seconds.
_INTRA_REGION_RTT_S = 0.001


def great_circle_km(a: Region, b: Region) -> float:
    """Great-circle distance between two regions in km (haversine)."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat, dlon = lat2 - lat1, lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * 6371.0 * math.asin(math.sqrt(h))


class LatencySource:
    """Region-to-region RTT estimates in seconds."""

    def __init__(self) -> None:
        self._rtt: Dict[Tuple[str, str], float] = {}
        regions = all_regions()
        for a in regions:
            for b in regions:
                if a.name == b.name:
                    rtt = _INTRA_REGION_RTT_S
                else:
                    one_way = (
                        great_circle_km(a, b) * _ROUTE_STRETCH / _FIBRE_KM_PER_S
                        + _PER_HOP_OVERHEAD_S
                    )
                    rtt = 2.0 * one_way
                self._rtt[(a.name, b.name)] = rtt

    def rtt(self, src: "Region | str", dst: "Region | str") -> float:
        """Round-trip time between two regions in seconds.  An unknown
        region raises ``get_region``'s ``KeyError``, which names the
        known regions; the names are checked only on a miss, since
        every transfer and KV access asks."""
        src_name = src.name if isinstance(src, Region) else src
        dst_name = dst.name if isinstance(dst, Region) else dst
        try:
            return self._rtt[(src_name, dst_name)]
        except KeyError:
            get_region(src_name)
            get_region(dst_name)
            raise

    def one_way(self, src: "Region | str", dst: "Region | str") -> float:
        """One-way latency estimate (half the RTT)."""
        return self.rtt(src, dst) / 2.0
