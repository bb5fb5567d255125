"""Golden Prometheus-exposition test (mirror of ``test_report_golden.py``).

The quickstart run's full Prometheus text exposition — every counter,
gauge, and histogram the simulation reports, with cumulative buckets —
must reproduce byte for byte from a fixed seed.  This pins the metric
*names and label sets* (the dashboards' contract) as much as the
values; any new or renamed instrument shows up as a reviewable diff
of ``golden/quickstart_prom.txt`` (``python -m tests.golden diff
quickstart_prom``; see ``tests/golden.py``).
"""

from repro.apps import get_app
from repro.experiments.harness import run_caribou
from repro.obs.timeseries import TelemetryConfig
from tests import golden

SEED = 1234
REGIONS = ("us-east-1", "ca-central-1")


def quickstart_prom() -> str:
    outcome = run_caribou(
        get_app("text2speech_censoring"),
        "small",
        REGIONS,
        seed=SEED,
        n_invocations=2,
        telemetry=TelemetryConfig(),
    )
    return outcome.prom


class TestGoldenPrometheus:
    def test_exposition_matches_snapshot(self):
        golden.check("quickstart_prom", quickstart_prom())

    def test_snapshot_is_well_formed(self):
        text = golden.load("quickstart_prom")
        lines = text.splitlines()
        assert lines, "empty exposition"
        families = set()
        for line in lines:
            if line.startswith("# TYPE "):
                _, _, name, ftype = line.split(" ")
                assert ftype in ("counter", "gauge", "histogram")
                families.add(name)
            else:
                sample_name = line.split("{")[0].split(" ")[0]
                base = sample_name
                for suffix in ("_bucket", "_sum", "_count"):
                    if base.endswith(suffix) and base[: -len(suffix)] in families:
                        base = base[: -len(suffix)]
                        break
                assert base in families, f"sample without TYPE: {line}"
                assert sample_name.startswith("caribou_")

    def test_snapshot_covers_core_instruments(self):
        text = golden.load("quickstart_prom")
        for family in (
            "caribou_executor_requests",
            "caribou_executor_request_latency_s",
            "caribou_faas_invocations",
        ):
            assert family in text

    def test_histograms_have_inf_bucket_equal_to_count(self):
        text = golden.load("quickstart_prom")
        inf_lines = [
            ln for ln in text.splitlines() if 'le="+Inf"' in ln
        ]
        assert inf_lines
        for line in inf_lines:
            name_labels, value = line.rsplit(" ", 1)
            family = name_labels.split("{")[0][: -len("_bucket")]
            labels = name_labels.split("{", 1)[1].rsplit(",", 1)[0]
            count_line = next(
                ln for ln in text.splitlines()
                if ln.startswith(f"{family}_count")
                and (labels in ln or "{" not in ln)
            )
            assert count_line.rsplit(" ", 1)[1] == value
