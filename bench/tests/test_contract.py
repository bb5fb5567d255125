"""``BENCHMARK.json`` says what ``bench/run.py`` prints, within the
driver's limits."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    path = ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_doc():
    return run.run_workload("fleet_day", seed=3, scale=0.1, traced=True)


def test_top_level_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert spec["run_seconds"] == run.REFERENCE_SECONDS


def test_workloads_are_the_ones_the_benchmark_runs(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].WHY
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metric_names_units_and_bounds(spec, traced_doc):
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    assert list(end_to_end) == list(traced_doc["end_to_end"])
    assert list(per_layer) == list(traced_doc["per_layer"])
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    assert not set(end_to_end) & set(per_layer)
    for name, entry in {**end_to_end, **per_layer}.items():
        assert NAME.match(name), name
        assert UNIT.match(entry["unit"]), (name, entry["unit"])
        assert entry["better"] in ("higher", "lower")
    for name, entry in end_to_end.items():
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        assert entry["unit"] == traced_doc["end_to_end"][name]["unit"]
    for name, entry in per_layer.items():
        assert set(entry) == {"name", "unit", "better"}
        assert entry["unit"] == traced_doc["per_layer"][name]["unit"]
    assert end_to_end["setup_s"]["unit"] == "s" and end_to_end["setup_s"]["better"] == "lower"
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_last_line_is_the_contract_object(traced_doc):
    line = json.loads(run.contract_line(traced_doc))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == list(traced_doc["per_layer"])
    untraced = dict(traced_doc, traced=False)
    assert json.loads(run.contract_line(untraced))["metrics"] == traced_doc["end_to_end"]
    for entry in traced_doc["end_to_end"].values():
        assert entry["value"] != 0


def test_a_failed_operation_fails_the_run(traced_doc):
    broken = dict(traced_doc, failed=1)
    assert run.correct(broken) is False
    unattributed = json.loads(json.dumps(traced_doc))
    unattributed["per_layer"]["trace.attributed_pct"]["value"] = 89.0
    assert run.correct(unattributed) is False


def test_refuses_to_run_outside_a_checkout(tmp_path, spec):
    """With only ``BENCHMARK.json`` and the benchmark's own directories
    there is no program to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
        )
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "solve_cold",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
