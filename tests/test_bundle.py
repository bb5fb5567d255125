"""The run bundle: one ``caribou.run/v1`` file per run, one loader.

``caribou run --report FILE`` writes a header, the run report, the
spans and the series points; ``report``, ``dash`` and ``diff`` read it
back through :func:`~repro.obs.report.load_bundle`.  These tests pin
the quickstart bundle (its report, spans and points are the goldens'
and the live run's, byte for byte), hold the loader to its rejections,
and mutate every value of a small bundle to show that what the loader
accepts, every view renders.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from repro.apps import get_app
from repro.cli import main
from repro.common.errors import MalformedInputError
from repro.core.lifecycle import BENCH_SOLVER_SETTINGS
from repro.experiments.harness import run_caribou
from repro.obs import views
from repro.obs.report import (
    BUNDLE_SCHEMA,
    REPORT_SCHEMA,
    RunBundle,
    load_bundle,
    report_json,
)
from repro.obs.timeseries import TelemetryConfig
from repro.obs.trace import Span, Tracer
from tests import golden

#: The smallest report record every view can render.
MINIMAL_REPORT = {"schema": REPORT_SCHEMA, "run": {}, "scenarios": {},
                  "per_region": {}, "metrics": {}}

#: The quickstart bundle (``caribou run text2speech_censoring -n 2
#: --regions us-east-1,ca-central-1 --seed 1234 --report F``).  The file
#: itself (~220 KB) is not committed: ``golden/quickstart_bundle.json``
#: pins its sha256 and record counts, and the report and Prometheus
#: goldens its parts.
QUICKSTART_ARGV = ["run", "text2speech_censoring", "-n", "2",
                   "--regions", "us-east-1,ca-central-1", "--seed", "1234"]


def bundle_pin(text: str) -> dict:
    """A bundle's sha256 and its record counts by kind."""
    counts = {"report": 0, "span": 0, "point": 0}
    for line in text.splitlines()[1:]:
        [key] = json.loads(line)
        counts[key] += 1
    return {"sha256": golden.digest(text), "counts": counts}


def quickstart_pin() -> dict:
    """The quickstart bundle's pin, from one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle = pathlib.Path(tmp) / "run.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(QUICKSTART_ARGV + ["--report", str(bundle)]) == 0
        return bundle_pin(bundle.read_text())


def write_bundle(path, spans=(), points=(), window_s=3600.0,
                 doc=MINIMAL_REPORT) -> str:
    """Write a bundle of ``spans`` and ``points`` to ``path``."""
    bundle = RunBundle(copy.deepcopy(doc), list(spans), list(points), window_s)
    path.write_text(bundle.to_jsonl())
    return str(path)


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """The quickstart run written twice by the CLI: two (bundle text,
    Prometheus text) pairs.  The CLI's summary is captured: a module
    fixture runs outside any test's capture."""
    runs = []
    for i in range(2):
        out = tmp_path_factory.mktemp(f"quickstart{i}")
        bundle, prom = out / "run.jsonl", out / "run.prom.txt"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(QUICKSTART_ARGV + ["--report", str(bundle),
                                           "--export-prom", str(prom)]) == 0
        assert f"-> {bundle}" in stdout.getvalue()
        runs.append((bundle.read_text(), prom.read_text()))
    return runs


class TestQuickstartBundle:
    def test_pinned_by_digest_and_counts(self, quickstart):
        text, _ = quickstart[0]
        header = json.loads(text.splitlines()[0])
        assert header == {"schema": BUNDLE_SCHEMA, "window_s": 3600.0}
        golden.check("quickstart_bundle", bundle_pin(text))

    def test_two_runs_are_byte_identical(self, quickstart):
        assert quickstart[0] == quickstart[1]

    @pytest.mark.parametrize("hash_seed", ["1", "2", "77"])
    def test_same_digest_in_every_process(self, hash_seed, tmp_path):
        """No byte of the bundle may depend on ``set`` or ``dict``
        iteration over hashed strings."""
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        bundle = tmp_path / "run.jsonl"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *QUICKSTART_ARGV,
             "--report", str(bundle)],
            env=env, capture_output=True, check=True, timeout=300,
        )
        digest = hashlib.sha256(bundle.read_bytes()).hexdigest()
        assert digest == golden.load("quickstart_bundle")["sha256"]

    def test_report_and_prom_are_the_goldens(self, quickstart, tmp_path):
        text, prom = quickstart[0]
        path = tmp_path / "run.jsonl"
        path.write_text(text)
        report = load_bundle(str(path)).report
        assert report_json(report) == golden.REGISTRY["quickstart_report"].text()
        assert prom == golden.load("quickstart_prom")

    def test_spans_and_points_are_the_runs(self, quickstart):
        """Span records are the run's trace lines and point records its
        series, in order and byte for byte."""
        tracer = Tracer()
        outcome = run_caribou(
            get_app("text2speech_censoring"), "small",
            ("us-east-1", "ca-central-1"), seed=1234, n_invocations=2,
            tracer=tracer, solver_settings=BENCH_SOLVER_SETTINGS,
            telemetry=TelemetryConfig(),
        )
        lines = quickstart[0][0].splitlines()
        spans = [line for line in lines if line.startswith('{"span":')]
        assert spans == [
            '{"span":' + line + "}" for line in tracer.to_jsonl().splitlines()
        ]
        points = [json.loads(line)["point"] for line in lines
                  if line.startswith('{"point":')]
        assert points == outcome.series


class TestLoader:
    SPANS = [Span(0, "request", "r1", 0.0, 2.0, None, "wf", "r1",
                  {"status": "completed"}),
             Span(1, "invocation", "wf.a", 0.5, 1.5, 0, "wf", "r1",
                  {"node": "a"})]
    POINTS = [{"metric": "a", "window": 0.0, "type": "counter", "value": 1.0},
              {"metric": "b", "window": 3600.0, "type": "gauge", "value": 2.5}]

    def test_round_trip(self, tmp_path):
        path = write_bundle(tmp_path / "run.jsonl", self.SPANS, self.POINTS,
                            window_s=1800.0)
        bundle = load_bundle(path)
        assert bundle == RunBundle(MINIMAL_REPORT, self.SPANS, self.POINTS,
                                   1800.0)
        assert bundle.to_jsonl() == pathlib.Path(path).read_text()

    def test_lines_are_compact_and_sorted(self, tmp_path):
        path = write_bundle(tmp_path / "run.jsonl", self.SPANS, self.POINTS)
        for line in pathlib.Path(path).read_text().splitlines():
            doc = json.loads(line)
            assert ": " not in line and ", " not in line
            body = next(iter(doc.values())) if len(doc) == 1 else doc
            assert list(body) == sorted(body)

    def _refused(self, tmp_path, *lines):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(MalformedInputError) as exc:
            load_bundle(str(path))
        message = str(exc.value)
        assert message.startswith(f"{path}: not a {BUNDLE_SCHEMA} bundle (line ")
        return message

    @pytest.mark.parametrize("window_s", ["0", "-1", "true", "null", "NaN",
                                          "Infinity", '"3600"'])
    def test_window_must_be_a_positive_number(self, tmp_path, window_s):
        message = self._refused(
            tmp_path, f'{{"schema":"{BUNDLE_SCHEMA}","window_s":{window_s}}}'
        )
        assert "(line 1: header window_s is not a positive number)" in message

    @pytest.mark.parametrize("record, reason", [
        ("[1]", "not a one-key record"),
        ('{"span":{},"point":{}}', "not a one-key record"),
        ('{"span":[]}', "span is not an object"),
        ('{"span":{"span_id":0,"bogus":1}}', "not a span ("),
        ('{"span":{"span_id":0,"kind":"kv","name":"x","t0":0,"t1":"z"}}',
         "span t0/t1 are not numbers"),
        ('{"span":{"span_id":0,"kind":1,"name":"x","t0":0}}',
         "span kind/name/workflow/request_id are not strings"),
        ('{"span":{"span_id":"0","kind":"kv","name":"x","t0":0}}',
         "span id, attrs or arrivals have the wrong type"),
        ('{"span":{"span_id":0,"kind":"sync_gate","name":"x","t0":0,'
         '"attrs":{"arrivals":{"a->s":"late"}}}}',
         "span id, attrs or arrivals have the wrong type"),
        ('{"point":{"window":0,"type":"counter","value":1}}',
         "point has no string 'metric'"),
        ('{"point":{"metric":"m","window":0,"type":"summary","value":1}}',
         "point type is not counter, gauge or histogram"),
        ('{"point":{"metric":"m","window":0,"type":"gauge"}}',
         "point needs numeric window, value"),
        ('{"point":{"metric":"m","window":0,"type":"histogram","count":1,'
         '"sum":1,"buckets":{},"p95":"slow"}}',
         "point needs numeric window, count, sum"),
        ('{"point":{"metric":"m","window":0,"type":"histogram","count":1,'
         '"sum":1}}', "histogram point 'buckets' is not an object"),
        ('{"report":{"schema":"caribou.run_report/v1","run":{},'
         '"scenarios":{},"per_region":{},"metrics":{},"slo":{}}}',
         "report section 'slo' is not a list or null"),
        ('{"report":{"schema":"caribou.run_report/v1","run":{},'
         '"scenarios":{},"per_region":{},"metrics":{},"solver":[]}}',
         "report section 'solver' is not an object or null"),
        ('{"report":{"schema":"caribou.run_report/v1","run":{},'
         '"scenarios":{"best":1},"per_region":{},"metrics":{}}}',
         "report sections nest the wrong types"),
    ])
    def test_record_rejected_with_its_line(self, tmp_path, record, reason):
        header = json.dumps({"schema": BUNDLE_SCHEMA, "window_s": 60})
        report = json.dumps({"report": MINIMAL_REPORT})
        message = self._refused(tmp_path, header, report, record)
        assert f"(line 3: {reason}" in message


def _small_bundle() -> dict:
    """Header, report and records of a small bundle that fills every
    section the views walk."""
    doc = golden.load("quickstart_report")
    doc["metrics"] = {k: doc["metrics"][k] for k in sorted(doc["metrics"])[:2]}
    doc["metrics"]["executor.request_latency_s"] = {
        "count": 2, "sum": 3.0, "mean": 1.5, "min": 1.0, "max": 2.0,
        "buckets": {"1": 1, "5": 1, "+Inf": 0},
    }
    doc["critical_path"]["by_node"] = dict(
        list(doc["critical_path"]["by_node"].items())[:2]
    )
    doc["slo"] = [{"name": "p95(x)<=1", "windows": 2, "violations": 1,
                   "compliance": 0.5, "budget_spent": 5.0, "met": False,
                   "alerts": [{"window": 0.0}]}]
    doc["fleet"] = {"workflows": 1, "per_workflow": {
        "wf": {"checks": 1, "solves": 1, "migrations": 0,
               "invocations_observed": 2, "tokens_g": 0.5}}}
    spans = [
        Span(0, "request", "r1", 0.0, 4.0, None, "wf", "r1",
             {"status": "completed"}),
        Span(1, "invocation", "wf.a", 0.5, 1.5, 0, "wf", "r1", {"node": "a"}),
        Span(2, "publish", "a->s", 1.5, 2.0, 0, "wf", "r1", {}),
        Span(3, "sync_gate", "s", 2.0, 2.0, 0, "wf", "r1",
             {"sync_node": "s", "gate": "a->s",
              "arrivals": {"a->s": 2.0, "b->s": 1.0}}),
    ]
    points = [
        {"metric": "ledger.carbon_g{region=us-east-1,workflow=wf}",
         "window": 0.0, "type": "counter", "value": 1.5},
        {"metric": "executor.request_latency_s{workflow=wf}", "window": 0.0,
         "type": "histogram", "count": 2, "sum": 3.0, "buckets": {"5": 2},
         "p50": 1.0, "p90": 2.0, "p95": 2.0, "p99": 2.0},
        {"metric": "executor.requests{workflow=wf}", "window": 3600.0,
         "type": "counter", "value": 2.0},
    ]
    return {"header": {"schema": BUNDLE_SCHEMA, "window_s": 3600.0},
            "records": [{"report": doc}]
            + [{"span": s.to_dict()} for s in spans]
            + [{"point": p} for p in points]}


def _positions(value, path=()):
    """Every path to a value inside ``value`` (dict keys, list indices)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _positions(child, path + (key,))


_DELETE = object()
JUNK = ("abc", None, [1], {"k": 1}, float("nan"), True, -1, _DELETE)


def _render_every_view(bundle: RunBundle, other: RunBundle) -> None:
    """Every view the CLI prints of a bundle; ``report_markdown`` with the
    spans also renders each request's path."""
    views.report_markdown(bundle.report, bundle.spans)
    views.span_summary(bundle.spans)
    views.dashboard(bundle)
    views.diff(bundle, other)
    views.diff(other, bundle)


class TestViewsOfAnyLoadedBundle:
    """What the loader accepts, every view renders: each value of a small
    bundle replaced by junk (or deleted) either loads and renders, or is
    refused with :class:`MalformedInputError` — never anything else."""

    def test_every_mutation_loads_and_renders_or_is_refused(self, tmp_path):
        base = _small_bundle()
        path = tmp_path / "run.jsonl"

        def write(header, records):
            path.write_text("\n".join(
                json.dumps(line) for line in [header] + records
            ) + "\n")
            return str(path)

        good = load_bundle(write(base["header"], base["records"]))
        _render_every_view(good, good)
        outcomes = {"rendered": 0, "refused": 0}
        targets = [("header", p) for p in _positions(base["header"])]
        targets += [("records", p) for p in _positions(base["records"])]
        for part, position in targets:
            for junk in JUNK:
                mutated = copy.deepcopy(base)
                parent = mutated[part]
                for key in position[:-1]:
                    parent = parent[key]
                if junk is _DELETE:
                    del parent[position[-1]]
                else:
                    parent[position[-1]] = junk
                try:
                    bundle = load_bundle(
                        write(mutated["header"], mutated["records"])
                    )
                except MalformedInputError:
                    outcomes["refused"] += 1
                    continue
                _render_every_view(bundle, good)
                outcomes["rendered"] += 1
        # Both branches are exercised, many times over.
        assert outcomes["rendered"] > 500 and outcomes["refused"] > 500
