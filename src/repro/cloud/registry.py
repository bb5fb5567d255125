"""Container registry with crane-style cross-region image copy.

Initial deployment pushes each function's Docker image to the home
region's registry (§6.1 step 2).  Re-deployment does *not* rebuild:
the Deployment Migrator copies the existing image between registries
("crane, a lightweight library for image migration between arbitrary
container registries", §6.1), paying the image's bytes as a control-
plane transfer — one of the overheads the token bucket must budget for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cloud.network import Network
from repro.cloud.simulator import SimulationEnvironment
from repro.common.errors import DeploymentError


@dataclass(frozen=True)
class ImageManifest:
    """A pushed container image."""

    name: str
    tag: str
    size_bytes: float

    @property
    def reference(self) -> str:
        return f"{self.name}:{self.tag}"


class ContainerRegistry:
    """All regional registries of the provider."""

    def __init__(self, env: SimulationEnvironment, network: Network):
        self._env = env
        self._network = network
        # (region, "name:tag") -> ImageManifest
        self._images: Dict[Tuple[str, str], ImageManifest] = {}

    def push(
        self, region: str, name: str, tag: str, size_bytes: float
    ) -> ImageManifest:
        """Build-and-push an image into ``region``'s registry."""
        if size_bytes <= 0:
            raise ValueError(f"image size must be positive, got {size_bytes}")
        manifest = ImageManifest(name=name, tag=tag, size_bytes=size_bytes)
        self._images[(region, manifest.reference)] = manifest
        return manifest

    def exists(self, region: str, name: str, tag: str) -> bool:
        return (region, f"{name}:{tag}") in self._images

    def get(self, region: str, name: str, tag: str) -> ImageManifest:
        try:
            return self._images[(region, f"{name}:{tag}")]
        except KeyError:
            raise DeploymentError(
                f"image {name}:{tag} not present in {region}"
            ) from None

    def copy_image(
        self,
        name: str,
        tag: str,
        src_region: str,
        dst_region: str,
        workflow: str = "",
    ) -> float:
        """Crane-style copy between registries.

        Returns the transfer latency.  Copying an image that is already
        present is a cheap no-op (crane skips identical layers).
        """
        manifest = self.get(src_region, name, tag)
        if self.exists(dst_region, name, tag):
            return 0.0
        result = self._network.transfer(
            src_region,
            dst_region,
            manifest.size_bytes,
            workflow=workflow,
            kind="image",
            edge=f"crane:{manifest.reference}",
        )
        self._images[(dst_region, manifest.reference)] = manifest
        return result.latency_s

    def delete(self, region: str, name: str, tag: str) -> None:
        self._images.pop((region, f"{name}:{tag}"), None)


class IamService:
    """Identity and access management roles (§6.1 step 2).

    One role per (workflow, function, region), created when the function
    is deployed there and deleted when it is removed.
    """

    def __init__(self) -> None:
        self._roles: Dict[str, Dict[str, object]] = {}

    def create_role(self, role_name: str, policy: Optional[dict] = None) -> None:
        self._roles[role_name] = dict(policy or {})

    def delete_role(self, role_name: str) -> None:
        self._roles.pop(role_name, None)

    def roles(self) -> Tuple[str, ...]:
        return tuple(self._roles)
