"""Tests for the synthetic data layer: regions, carbon, pricing, latency."""

import numpy as np
import pytest

from repro.data.carbon import CarbonIntensitySource, generate_carbon_trace
from repro.data.latency import LatencySource, great_circle_km
from repro.data.pricing import PricingSource
from repro.data.regions import (
    EVALUATION_REGIONS,
    all_regions,
    get_region,
)


class TestRegions:
    def test_six_na_regions(self):
        # §2.1: six public AWS North American regions.
        assert len(all_regions()) == 6

    def test_evaluation_subset(self):
        # §9.1 limits the evaluation to four regions.
        assert set(EVALUATION_REGIONS) == {
            "us-east-1", "us-west-1", "us-west-2", "ca-central-1",
        }

    def test_us_east_regions_share_grid(self):
        # §2.1: us-east-1 and us-east-2 are on the same grid.
        assert get_region("us-east-1").grid_zone == get_region("us-east-2").grid_zone

    def test_canadian_regions_have_ca_country(self):
        assert get_region("ca-central-1").country == "CA"
        assert get_region("ca-west-1").country == "CA"

    def test_unknown_region_raises_with_guidance(self):
        with pytest.raises(KeyError, match="known regions"):
            get_region("mars-north-1")


class TestCarbonTraces:
    def test_trace_length_and_positivity(self):
        trace = generate_carbon_trace("US-PJM", 24 * 7)
        assert len(trace) == 24 * 7
        assert np.all(trace > 0)

    def test_deterministic_per_seed(self):
        a = generate_carbon_trace("CA-QC", 48, seed=1)
        b = generate_carbon_trace("CA-QC", 48, seed=1)
        assert np.allclose(a, b)

    def test_seeds_change_noise(self):
        a = generate_carbon_trace("US-BPA", 48, seed=1)
        b = generate_carbon_trace("US-BPA", 48, seed=2)
        assert not np.allclose(a, b)

    def test_invalid_zone(self):
        with pytest.raises(KeyError, match="known zones"):
            generate_carbon_trace("NOWHERE", 24)

    def test_invalid_hours(self):
        with pytest.raises(ValueError):
            generate_carbon_trace("US-PJM", 0)

    def test_quebec_far_below_pjm(self):
        # §9.2 I1: ca-central-1 averaged 91.5 % below us-east-1.
        pjm = generate_carbon_trace("US-PJM", 24 * 7).mean()
        qc = generate_carbon_trace("CA-QC", 24 * 7).mean()
        assert qc < 0.15 * pjm

    def test_caiso_solar_diurnal_swing(self):
        # §2.1: solar-heavy grid -> night intensity much higher than day.
        trace = generate_carbon_trace("US-CAISO", 24 * 7)
        by_hour = trace.reshape(7, 24).mean(axis=0)
        assert by_hour.max() > 1.5 * by_hour.min()

    def test_caiso_peaks_at_night(self):
        trace = generate_carbon_trace("US-CAISO", 24 * 7)
        by_hour = trace.reshape(7, 24).mean(axis=0)
        peak_hour = int(np.argmax(by_hour))
        assert peak_hour >= 20 or peak_hour <= 4

    def test_bpa_comparable_to_pjm(self):
        # §9.2 I1: us-west-2 has comparable average intensity.
        pjm = generate_carbon_trace("US-PJM", 24 * 7).mean()
        bpa = generate_carbon_trace("US-BPA", 24 * 7).mean()
        assert 0.85 * pjm < bpa < 1.15 * pjm


class TestCarbonIntensitySource:
    def test_intensity_lookup_consistent_with_trace(self):
        source = CarbonIntensitySource(hours=48, seed=0)
        trace = source.trace("us-east-1")
        assert source.intensity_at("us-east-1", 3600.0 * 5 + 10) == trace[5]

    def test_wraps_past_horizon(self):
        source = CarbonIntensitySource(hours=24, seed=0)
        assert source.intensity_at_hour("us-west-1", 25) == source.intensity_at_hour(
            "us-west-1", 1
        )

    def test_trace_read_only(self):
        source = CarbonIntensitySource(hours=24)
        with pytest.raises(ValueError):
            source.trace("us-east-1")[0] = 0.0

    def test_route_intensity_is_endpoint_mean(self):
        source = CarbonIntensitySource(hours=24)
        a = source.intensity_at("us-east-1", 0.0)
        b = source.intensity_at("ca-central-1", 0.0)
        assert source.route_intensity_at("us-east-1", "ca-central-1", 0.0) == (
            pytest.approx((a + b) / 2)
        )

    def test_average_window(self):
        source = CarbonIntensitySource(hours=48)
        full = source.trace("us-west-2")
        assert source.average("us-west-2", 0, 10) == pytest.approx(full[:10].mean())

    def test_overrides_respected(self):
        override = [100.0] * 24
        source = CarbonIntensitySource(
            hours=24, overrides={"US-PJM": override}
        )
        assert source.intensity_at_hour("us-east-1", 5) == 100.0
        # Other zones still synthetic.
        assert source.intensity_at_hour("ca-central-1", 5) != 100.0

    def test_short_override_rejected(self):
        with pytest.raises(ValueError):
            CarbonIntensitySource(hours=48, overrides={"US-PJM": [1.0] * 24})

    def test_unknown_override_zone_rejected(self):
        with pytest.raises(KeyError):
            CarbonIntensitySource(hours=24, overrides={"XX": [1.0] * 24})


class TestPricing:
    def test_base_lambda_price(self):
        prices = PricingSource().prices("us-east-1")
        assert prices.lambda_gb_second == pytest.approx(1.66667e-5)
        assert prices.lambda_invocation == pytest.approx(2e-7)

    def test_regional_multiplier(self):
        src = PricingSource()
        assert src.prices("us-west-1").lambda_gb_second > src.prices(
            "us-east-1"
        ).lambda_gb_second

    def test_intra_region_egress_free(self):
        assert PricingSource().egress_per_gb("us-east-1", "us-east-1") == 0.0

    def test_cross_region_egress_charged_to_sender(self):
        src = PricingSource()
        assert src.egress_per_gb("us-east-1", "ca-central-1") == pytest.approx(0.09)

    def test_unit_prices_derived(self):
        prices = PricingSource().prices("us-east-1")
        assert prices.sns_publish == pytest.approx(0.5e-6)
        assert prices.dynamodb_write == pytest.approx(1.25e-6)
        assert prices.dynamodb_read == pytest.approx(0.25e-6)

    def test_unknown_region(self):
        with pytest.raises(KeyError, match="known"):
            PricingSource().prices("nowhere-1")


class TestLatency:
    def test_intra_region_rtt_small(self):
        assert LatencySource().rtt("us-east-1", "us-east-1") == pytest.approx(
            0.001
        )

    def test_symmetry(self):
        src = LatencySource()
        assert src.rtt("us-east-1", "us-west-2") == pytest.approx(
            src.rtt("us-west-2", "us-east-1")
        )

    def test_coast_to_coast_magnitude(self):
        # CloudPing reports ~60-75 ms us-east-1 <-> us-west-1.
        rtt = LatencySource().rtt("us-east-1", "us-west-1")
        assert 0.04 < rtt < 0.09

    def test_nearby_regions_fast(self):
        # us-east-1 <-> ca-central-1 is ~15-20 ms on CloudPing.
        rtt = LatencySource().rtt("us-east-1", "ca-central-1")
        assert 0.008 < rtt < 0.03

    @pytest.mark.parametrize(
        "pair", [("nowhere-1", "us-east-1"), ("us-east-1", "nowhere-1")]
    )
    def test_unknown_region_raises_the_guidance(self, pair):
        # The names are checked only when the lookup misses; the error
        # is still get_region's, naming the known regions.
        with pytest.raises(KeyError, match="unknown region 'nowhere-1'; known regions: "):
            LatencySource().rtt(*pair)

    def test_one_way_is_half_rtt(self):
        src = LatencySource()
        assert src.one_way("us-east-1", "us-west-2") == pytest.approx(
            src.rtt("us-east-1", "us-west-2") / 2
        )

    def test_great_circle_reasonable(self):
        a = get_region("us-east-1")
        b = get_region("us-west-1")
        km = great_circle_km(a, b)
        assert 3500 < km < 4500  # Virginia <-> N. California
