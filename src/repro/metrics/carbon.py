"""Operational carbon models (paper §7.1, Eq. 7.1-7.5).

Execution carbon:

    Carbon_exec = I_grid * (E_proc + E_mem) * PUE                 (7.1)
    E_mem  = P_mem * (mem/1024) * t/3600                          (7.2)
    P_vcpu = P_min + cpu_total_time / (t * n_vcpu) * (P_max-P_min)(7.3)
    E_proc = P_vcpu * n_vcpu * t/3600                             (7.4)

Transmission carbon:

    Carbon_tran = I_route * EF_trans * S                          (7.5)

with I in gCO2eq/kWh, E in kWh, S in GB.  Only *operational* carbon is
modelled; embodied carbon is a sunk cost for offloading decisions (§7.1)
and adding an equal embodied baseline per region would not change the
relative differentials the solver exploits.

The transmission energy factor EF_trans is highly uncertain (0.001 to
0.005 kWh/GB across studies); the paper brackets it with a best-case
scenario (0.001 kWh/GB for any transfer, including intra-region) and a
worst-case scenario (0.005 kWh/GB inter-region, 0 intra-region), plus a
sensitivity sweep (Fig. 9).  :class:`TransmissionScenario` captures all
of these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Power usage effectiveness: the 1.07-1.15 AWS range averaged (§7.1).
PUE = 1.11
#: Memory power draw, kW per GB (§7.1, community estimate).
P_MEM_KW_PER_GB = 3.725e-4
#: Per-vCPU power draw at idle / full utilisation, kW (§7.1).
P_MIN_KW = 7.5e-4
P_MAX_KW = 3.5e-3
#: The paper's bracketing transmission energy factors, kWh/GB.
EF_BEST_CASE = 0.001
EF_WORST_CASE = 0.005


@dataclass(frozen=True)
class TransmissionScenario:
    """A transmission-energy accounting scenario.

    Attributes:
        ef_inter: Energy factor for cross-region transfers, kWh/GB.
        ef_intra: Energy factor for same-region transfers, kWh/GB.
        name: Label used in reports.
    """

    ef_inter: float
    ef_intra: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.ef_inter < 0 or self.ef_intra < 0:
            raise ValueError("energy factors must be non-negative")

    def energy_factor(self, intra_region: bool) -> float:
        return self.ef_intra if intra_region else self.ef_inter

    @classmethod
    def best_case(cls) -> "TransmissionScenario":
        """0.001 kWh/GB for any transmission, intra-region included."""
        return cls(ef_inter=EF_BEST_CASE, ef_intra=EF_BEST_CASE, name="best-case")

    @classmethod
    def worst_case(cls) -> "TransmissionScenario":
        """0.005 kWh/GB inter-region, free intra-region."""
        return cls(ef_inter=EF_WORST_CASE, ef_intra=0.0, name="worst-case")

    @classmethod
    def equal(cls, ef: float) -> "TransmissionScenario":
        """Fig. 9 scenario 1: the same factor between all regions."""
        return cls(ef_inter=ef, ef_intra=ef, name=f"equal-{ef:g}")

    @classmethod
    def free_intra(cls, ef: float) -> "TransmissionScenario":
        """Fig. 9 scenario 2: intra-region transmission is free."""
        return cls(ef_inter=ef, ef_intra=0.0, name=f"free-intra-{ef:g}")


class CarbonModel:
    """Computes operational carbon for executions and transmissions.

    The power model is the paper's (§7.1); only the transmission
    scenario varies."""

    pue = PUE
    p_mem = P_MEM_KW_PER_GB
    p_min = P_MIN_KW
    p_max = P_MAX_KW

    def __init__(self, scenario: TransmissionScenario):
        self.scenario = scenario

    # -- energy ------------------------------------------------------------
    def memory_energy_kwh(self, memory_mb: float, duration_s: float) -> float:
        """Eq. 7.2: memory energy in kWh."""
        return self.p_mem * (memory_mb / 1024.0) * duration_s / 3600.0

    def vcpu_power_kw(
        self, cpu_total_time_s: float, duration_s: float, n_vcpu: float
    ) -> float:
        """Eq. 7.3: per-vCPU power via the linear utilisation model."""
        if duration_s <= 0 or n_vcpu <= 0:
            raise ValueError("duration and vCPU count must be positive")
        utilisation = cpu_total_time_s / (duration_s * n_vcpu)
        utilisation = min(max(utilisation, 0.0), 1.0)
        return self.p_min + utilisation * (self.p_max - self.p_min)

    def processing_energy_kwh(
        self, cpu_total_time_s: float, duration_s: float, n_vcpu: float
    ) -> float:
        """Eq. 7.4: processor energy in kWh."""
        p_vcpu = self.vcpu_power_kw(cpu_total_time_s, duration_s, n_vcpu)
        return p_vcpu * n_vcpu * duration_s / 3600.0

    def execution_energy_kwh(
        self,
        duration_s: float,
        memory_mb: float,
        n_vcpu: float,
        cpu_total_time_s: float,
    ) -> float:
        """Total (proc + mem) execution energy, before PUE."""
        return self.processing_energy_kwh(
            cpu_total_time_s, duration_s, n_vcpu
        ) + self.memory_energy_kwh(memory_mb, duration_s)

    def execution_energy_kwh_batch(
        self,
        durations_s: np.ndarray,
        memory_mb: float,
        n_vcpu: float,
        cpu_total_times_s: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`execution_energy_kwh` over duration vectors.

        Replicates the scalar Eq. 7.2-7.4 arithmetic element for element
        (same operation order, same clamping) and is elementwise, so the
        Monte-Carlo estimator can price an execution-time support once
        and gather by drawn indices: the energies equal the scalar
        reference's on the drawn sample, bit for bit.
        """
        durations = np.asarray(durations_s, dtype=float)
        cpu_totals = np.asarray(cpu_total_times_s, dtype=float)
        if n_vcpu <= 0 or np.any(durations <= 0):
            raise ValueError("duration and vCPU count must be positive")
        utilisation = cpu_totals / (durations * n_vcpu)
        utilisation = np.minimum(np.maximum(utilisation, 0.0), 1.0)
        p_vcpu = self.p_min + utilisation * (self.p_max - self.p_min)
        proc = p_vcpu * n_vcpu * durations / 3600.0
        mem = self.p_mem * (memory_mb / 1024.0) * durations / 3600.0
        return proc + mem

    # -- carbon ------------------------------------------------------------
    def execution_carbon_g(
        self,
        grid_intensity: float,
        duration_s: float,
        memory_mb: float,
        n_vcpu: float,
        cpu_total_time_s: float,
    ) -> float:
        """Eq. 7.1: execution carbon in gCO2eq."""
        energy = self.execution_energy_kwh(
            duration_s, memory_mb, n_vcpu, cpu_total_time_s
        )
        return grid_intensity * energy * self.pue

    def transmission_carbon_g(
        self,
        route_intensity: float,
        size_bytes: float,
        intra_region: bool,
    ) -> float:
        """Eq. 7.5: transmission carbon in gCO2eq."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        size_gb = size_bytes / (1024.0**3)
        ef = self.scenario.energy_factor(intra_region)
        return route_intensity * ef * size_gb

    def with_scenario(self, scenario: TransmissionScenario) -> "CarbonModel":
        """A copy of this model under a different transmission scenario
        (used to re-price one simulated run under both paper scenarios)."""
        return CarbonModel(scenario)
