"""Tests for the carbon (Eq. 7.1-7.5) and cost models."""

import pytest

from repro.data.pricing import PricingSource
from repro.metrics.carbon import (
    EF_BEST_CASE,
    EF_WORST_CASE,
    P_MAX_KW,
    P_MEM_KW_PER_GB,
    P_MIN_KW,
    PUE,
    CarbonModel,
    TransmissionScenario,
)
from repro.metrics.cost import CostModel


@pytest.fixture
def model():
    return CarbonModel(TransmissionScenario.best_case())


class TestScenarios:
    def test_best_case_constants(self):
        s = TransmissionScenario.best_case()
        # §7.1: best case 0.001 kWh/GB for any transmission.
        assert s.ef_inter == EF_BEST_CASE == 0.001
        assert s.ef_intra == 0.001

    def test_worst_case_constants(self):
        s = TransmissionScenario.worst_case()
        # §7.1: worst case 0.005 inter- and 0 intra-region.
        assert s.ef_inter == EF_WORST_CASE == 0.005
        assert s.ef_intra == 0.0

    def test_fig9_scenarios(self):
        equal = TransmissionScenario.equal(0.01)
        assert equal.ef_inter == equal.ef_intra == 0.01
        free = TransmissionScenario.free_intra(0.01)
        assert free.ef_inter == 0.01 and free.ef_intra == 0.0

    def test_negative_ef_rejected(self):
        with pytest.raises(ValueError):
            TransmissionScenario(ef_inter=-1.0, ef_intra=0.0)


class TestExecutionCarbon:
    def test_memory_energy_eq72(self, model):
        # E_mem = 3.725e-4 kW/GB * (mem/1024) * t/3600
        e = model.memory_energy_kwh(memory_mb=2048, duration_s=3600)
        assert e == pytest.approx(P_MEM_KW_PER_GB * 2.0)

    def test_vcpu_power_eq73_bounds(self, model):
        idle = model.vcpu_power_kw(cpu_total_time_s=0.0, duration_s=10, n_vcpu=1)
        full = model.vcpu_power_kw(cpu_total_time_s=10.0, duration_s=10, n_vcpu=1)
        assert idle == pytest.approx(P_MIN_KW)  # 7.5e-4 kW idle
        assert full == pytest.approx(P_MAX_KW)  # 3.5e-3 kW at 100 %

    def test_vcpu_power_linear_at_half(self, model):
        half = model.vcpu_power_kw(cpu_total_time_s=5.0, duration_s=10, n_vcpu=1)
        assert half == pytest.approx((P_MIN_KW + P_MAX_KW) / 2)

    def test_utilisation_clamped(self, model):
        over = model.vcpu_power_kw(cpu_total_time_s=100.0, duration_s=10, n_vcpu=1)
        assert over == pytest.approx(P_MAX_KW)

    def test_execution_carbon_eq71(self, model):
        # One vCPU at full utilisation, 1769 MB, one hour, I = 400.
        carbon = model.execution_carbon_g(
            grid_intensity=400.0, duration_s=3600.0, memory_mb=1769,
            n_vcpu=1.0, cpu_total_time_s=3600.0,
        )
        expected_energy = P_MAX_KW + P_MEM_KW_PER_GB * (1769 / 1024)
        assert carbon == pytest.approx(400.0 * expected_energy * PUE)

    def test_pue_is_aws_average(self, model):
        assert model.pue == pytest.approx(1.11)

    def test_zero_duration_rejected(self, model):
        with pytest.raises(ValueError):
            model.vcpu_power_kw(1.0, 0.0, 1.0)


class TestTransmissionCarbon:
    def test_eq75(self, model):
        # Carbon = I_route * EF * S(GB)
        carbon = model.transmission_carbon_g(
            route_intensity=300.0, size_bytes=1024**3, intra_region=False
        )
        assert carbon == pytest.approx(300.0 * 0.001 * 1.0)

    def test_worst_case_intra_free(self):
        model = CarbonModel(TransmissionScenario.worst_case())
        assert model.transmission_carbon_g(300.0, 1024**3, intra_region=True) == 0.0
        assert model.transmission_carbon_g(300.0, 1024**3, intra_region=False) == (
            pytest.approx(300.0 * 0.005)
        )

    def test_negative_size_rejected(self, model):
        with pytest.raises(ValueError):
            model.transmission_carbon_g(300.0, -1.0, False)

    def test_with_scenario_repricing(self, model):
        worst = model.with_scenario(TransmissionScenario.worst_case())
        assert worst.scenario.name == "worst-case"
        assert worst.pue == model.pue


class TestCostModel:
    @pytest.fixture
    def cost(self):
        return CostModel(PricingSource())

    def test_execution_cost_gb_seconds(self, cost):
        # 1 GB for 10 s at us-east-1 rates + invocation fee.
        c = cost.execution_cost("us-east-1", duration_s=10.0, memory_mb=1024)
        assert c == pytest.approx(10 * 1.66667e-5 + 2e-7)

    def test_execution_cost_regional_multiplier(self, cost):
        east = cost.execution_cost("us-east-1", 10.0, 1024)
        west1 = cost.execution_cost("us-west-1", 10.0, 1024)
        assert west1 > east

    def test_intra_region_transfer_free(self, cost):
        assert cost.transmission_cost("us-east-1", "us-east-1", 1024**3) == 0.0

    def test_egress_per_gb(self, cost):
        c = cost.transmission_cost("us-east-1", "ca-central-1", 2 * 1024**3)
        assert c == pytest.approx(0.18)

    def test_messaging_and_kv(self, cost):
        assert 2 * cost.messaging_cost("us-east-1") == pytest.approx(1e-6)
        assert cost.kv_cost("us-east-1", n_reads=4, n_writes=2) == pytest.approx(
            4 * 0.25e-6 + 2 * 1.25e-6
        )

    def test_validation(self, cost):
        with pytest.raises(ValueError):
            cost.execution_cost("us-east-1", -1.0, 1024)
        with pytest.raises(ValueError):
            cost.transmission_cost("us-east-1", "us-west-1", -5)
        with pytest.raises(ValueError):
            cost.kv_cost("us-east-1", n_reads=-1)
