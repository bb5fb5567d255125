"""Tests for the CLI (deployment utility command line, §6.1/§8)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.report import REPORT_SCHEMA
from repro.obs.timeseries import export_series


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        assert "arguments are required" in capsys.readouterr().err

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "dna_visualization"])
        assert args.size == "small"
        assert args.invocations == 20
        assert args.coarse is None

    def test_invalid_size_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "dna_visualization", "--size", "huge"]
            )
        assert "invalid choice: 'huge'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["run", "solve", "fleet-report", "submit"]
    )
    def test_unknown_app_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_invocations_rejected(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "dna_visualization", "-n", n])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestBadInput:
    """Bad input is one line on stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [(["run", "--coarse", "bogus"], "invalid choice: 'bogus'"),
         (["run", "--window", "0"], "must be > 0"),
         (["run", "--trace-sample", "0"], "must be >= 1"),
         (["run", "--slo", "garbage"], "SLO spec needs '<='")]
        + [([command, "--regions", regions], message)
           for command in ("run", "solve", "deploy")
           for regions, message in (
               ("us-east-1,bogus-1", "unknown region bogus-1"),
               ("us-west-2", "must include the home region us-east-1"))]
        + [([command, "--regions", "us-east-1,us-west-2,us-west-2"],
            "duplicate region us-west-2")
           for command in ("run", "solve", "deploy")],
    )
    def test_rejected_by_the_parser(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["dna_visualization"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, n_paths, name",
        [("report", 1, "absent.json"), ("dash", 1, "absent.jsonl"),
         ("diff", 2, "absent.json")],
    )
    def test_missing_input_file(self, command, n_paths, name, tmp_path,
                                capsys):
        missing = str(tmp_path / name)
        assert main([command] + [missing] * n_paths) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"caribou {command}: {missing}: No such file or directory\n"
        )

    def test_dash_missing_file_without_jsonl_suffix(self, tmp_path, capsys):
        # The loader guesses path-or-text from the name; the command
        # must not: a missing ``.txt`` is a missing file, not bad JSON.
        missing = str(tmp_path / "nosuchfile.txt")
        assert main(["dash", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"caribou dash: {missing}: No such file or directory\n"
        )

    @pytest.mark.parametrize(
        "content", ["hello, not json\n", "[1, 2]\n",
                    '{"schema": "something.else/v9"}\n'],
    )
    def test_dash_file_that_is_not_a_series_dump(self, content, tmp_path,
                                                 capsys):
        path = tmp_path / "notes.txt"
        path.write_text(content)
        assert main(["dash", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("caribou dash: not a series dump (")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, name, content, message",
        [("report", "r.json", "hello, not json\n",
          "not a run report (not JSON)"),
         ("report", "r.json", "[1, 2]\n",
          "not a run report (not a JSON object)"),
         ("report", "r.json", '{"schema": "x"}\n',
          "not a run report (schema='x'"),
         ("report", "t.jsonl", '{"a": 1}\n',
          "not a trace (line 1 is not a span"),
         ("report", "t.jsonl", "hello, not json\n",
          "not a trace (line 1 is not a span"),
         ("diff", "r.json", '{"schema": "x"}\n',
          "r.json: not a run report (schema='x'")],
    )
    def test_malformed_report_or_trace(self, command, name, content,
                                       message, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(content)
        n_paths = 2 if command == "diff" else 1
        assert main([command] + [str(path)] * n_paths) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"caribou {command}: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    def test_dash_report_that_is_not_a_run_report(self, tmp_path, capsys):
        series = tmp_path / "run.series.jsonl"
        series.write_text("")
        report = tmp_path / "report.json"
        report.write_text('{"schema": "x"}\n')
        assert main(["dash", str(series), "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "caribou dash: not a run report (schema='x'"
        )
        assert captured.err.count("\n") == 1

    def test_diff_report_against_series(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"schema": REPORT_SCHEMA, "carbon_g": 1.0}))
        series = tmp_path / "s.jsonl"
        export_series([], str(series))
        assert main(["diff", str(report), str(series)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("caribou diff: cannot diff report (")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "content, message",
        [("hello, not json\n", "not a job store (not JSON"),
         ("[1, 2]\n", "not a job store (not a JSON object)"),
         (json.dumps({"schema": REPORT_SCHEMA, "carbon_g": 1.0}),
          "job 'schema': not a job record"),
         (json.dumps({"kv.reads": {"type": "counter", "value": 1.0}}),
          "job 'kv.reads': not a job record")],
        ids=["not-json", "list", "run-report", "metrics-snapshot"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["jobs"], ["job", "x-0001"], ["cancel", "x-0001"],
         ["serve", "--steps", "1"], ["submit", "dna_visualization"]],
        ids=lambda argv: argv[0],
    )
    def test_store_that_is_not_a_job_store(self, argv, content, message,
                                           tmp_path, capsys):
        store = tmp_path / "jobs.json"
        store.write_text(content)
        assert main(argv + ["--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"caribou {argv[0]}: {store}: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert store.read_text() == content  # never overwritten

    def test_exhaustive_solver_is_refused_in_one_line(self, capsys):
        # Full enumeration is a test oracle, not a --solver choice.
        for command in ("run", "solve"):
            with pytest.raises(SystemExit) as exc:
                main([command, "image_processing", "--solver", "exhaustive"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [
                line for line in captured.err.splitlines() if "error:" in line
            ]
            assert len(errors) == 1
            assert errors[0].startswith(
                f"caribou {command}: error: argument --solver: invalid "
                "choice: 'exhaustive'"
            )


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("dna_visualization", "video_analytics",
                     "text2speech_censoring"):
            assert name in out

    def test_deploy(self, capsys):
        assert main(["deploy", "rag_ingestion"]) == 0
        out = capsys.readouterr().out
        assert "deployed 'rag_ingestion'" in out
        assert "extract_metadata" in out

    def test_deploy_unknown_app(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["deploy", "ghost_app"])
        assert exc.value.code == 2
        assert "invalid choice: 'ghost_app'" in capsys.readouterr().err

    def test_run_coarse(self, capsys):
        assert main(["run", "dna_visualization", "-n", "4",
                     "--coarse", "ca-central-1"]) == 0
        out = capsys.readouterr().out
        assert "coarse:ca-central-1" in out
        assert "mgCO2eq/inv" in out

    def test_run_caribou(self, capsys):
        assert main(["run", "rag_ingestion", "-n", "4",
                     "--regions", "us-east-1,ca-central-1"]) == 0
        out = capsys.readouterr().out
        assert "caribou:" in out
        assert "regions used" in out

    def test_solve_prints_plan(self, capsys):
        assert main(["solve", "rag_ingestion",
                     "--regions", "us-east-1,ca-central-1"]) == 0
        out = capsys.readouterr().out
        assert "24-hour plan set" in out
        assert "->" in out

    def test_carbon_table(self, capsys):
        assert main(["carbon", "--hours", "3"]) == 0
        out = capsys.readouterr().out
        assert "us-east-1" in out
        assert len(out.strip().splitlines()) == 4  # header + 3 hours

    def test_submit_skips_ids_already_taken(self, tmp_path, capsys):
        store = str(tmp_path / "jobs.json")
        app = "dna_visualization"
        assert main(["submit", app, "--store", store,
                     "--job-id", f"{app}-0002"]) == 0
        # One job in the store: the automatic id must not be -0002.
        assert main(["submit", app, "--store", store]) == 0
        assert main(["submit", app, "--store", store]) == 0
        out = capsys.readouterr().out
        assert f"submitted {app}-0003" in out
        assert f"submitted {app}-0004" in out


class TestObservabilityFlags:
    def test_run_metrics_dump(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        assert main(["run", "dna_visualization", "-n", "3",
                     "--coarse", "us-east-1",
                     "--metrics", str(metrics_file)]) == 0
        out = capsys.readouterr().out
        assert "metrics" in out
        snap = json.loads(metrics_file.read_text())
        assert snap  # harness-driven runs always record instruments
        # Flat registry snapshot: counters/gauges are numbers,
        # histograms are {count, sum, mean, min, max} objects.
        assert any(k.startswith("faas.") for k in snap)
        for value in snap.values():
            assert isinstance(value, (int, float, dict))
        # Canonical serialisation: keys arrive sorted.
        assert list(snap) == sorted(snap)

    def test_run_report_writes_valid_document(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        assert main(["run", "text2speech_censoring", "-n", "3",
                     "--regions", "us-east-1,ca-central-1",
                     "--report", str(report_file)]) == 0
        doc = json.loads(report_file.read_text())
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["run"]["app"] == "text2speech_censoring"
        assert doc["run"]["n_invocations"] == 3
        # --report implies tracing, so the critical-path section exists.
        assert doc["critical_path"]["n_requests"] > 0
        assert doc["per_region"]  # ledger-derived usage present
        assert "report            : ->" in capsys.readouterr().out

    def test_report_renders_saved_report(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        main(["run", "text2speech_censoring", "-n", "2",
              "--regions", "us-east-1,ca-central-1",
              "--report", str(report_file)])
        capsys.readouterr()
        assert main(["report", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert "# Run report" in out
        assert "## Critical path" in out
        assert "## Carbon & cost" in out

    def test_report_analyzes_trace_jsonl(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.jsonl"
        main(["run", "text2speech_censoring", "-n", "2",
              "--regions", "us-east-1,ca-central-1",
              "--trace", str(trace_file)])
        capsys.readouterr()
        assert main(["report", str(trace_file), "--requests"]) == 0
        out = capsys.readouterr().out
        assert "requests, total critical-path time" in out
        assert "invocation" in out
        assert "end-to-end" in out  # per-request path renderings

    def test_report_rejects_non_report_json(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "something/else"}')
        assert main(["report", str(bogus)]) == 2
        assert "not a run report" in capsys.readouterr().err


class TestTelemetryFlags:
    def test_run_parses_telemetry_flags(self):
        args = build_parser().parse_args(
            ["run", "dna_visualization", "--timeseries", "s.jsonl",
             "--window", "60", "--slo", "--export-prom", "p.txt"]
        )
        assert args.timeseries == "s.jsonl"
        assert args.window == 60.0
        assert args.slo == [""]  # bare --slo: stock objectives
        assert args.export_prom == "p.txt"

    def test_slo_accepts_explicit_specs(self):
        args = build_parser().parse_args(
            ["run", "dna_visualization",
             "--slo", "p95(executor.request_latency_s)<=2",
             "--slo", "ratio(ledger.carbon_g/ledger.requests)<=0.5"]
        )
        assert len(args.slo) == 2

    def test_run_writes_series_prom_and_slo_status(self, tmp_path, capsys):
        series = tmp_path / "run.series.jsonl"
        prom = tmp_path / "run.prom.txt"
        assert main(["run", "text2speech_censoring", "-n", "2",
                     "--regions", "us-east-1,ca-central-1",
                     "--timeseries", str(series),
                     "--export-prom", str(prom), "--slo"]) == 0
        out = capsys.readouterr().out
        assert "timeseries" in out and "points ->" in out
        assert "slo [" in out
        text = series.read_text()
        assert text.startswith('{"schema":"caribou.series/v1"')
        assert "ledger.carbon_g" in text
        assert prom.read_text().startswith("# TYPE caribou_")

    def test_run_without_flags_has_no_telemetry(self, tmp_path, capsys):
        assert main(["run", "text2speech_censoring", "-n", "2",
                     "--regions", "us-east-1,ca-central-1"]) == 0
        out = capsys.readouterr().out
        assert "timeseries" not in out
        assert "slo [" not in out


class TestDiffDashCommands:
    def _two_series(self, tmp_path, capsys):
        paths = []
        for seed in (1, 7):
            path = tmp_path / f"run{seed}.series.jsonl"
            main(["run", "text2speech_censoring", "-n", "2",
                  "--regions", "us-east-1,ca-central-1",
                  "--seed", str(seed), "--timeseries", str(path)])
            paths.append(str(path))
        capsys.readouterr()
        return paths

    def test_diff_two_seeds_emits_delta_table(self, tmp_path, capsys):
        a, b = self._two_series(tmp_path, capsys)
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert out.startswith("## Series diff:")
        assert "| metric | window |" in out
        assert "changed" in out  # non-empty delta table

    def test_diff_identical_artifacts(self, tmp_path, capsys):
        a, _ = self._two_series(tmp_path, capsys)
        assert main(["diff", a, a]) == 0
        assert "No per-window differences." in capsys.readouterr().out

    def test_dash_renders_sparklines(self, tmp_path, capsys):
        a, _ = self._two_series(tmp_path, capsys)
        assert main(["dash", a]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Caribou run dashboard")
        assert "### Carbon by region (g)" in out

    def test_dash_with_report_shows_slo_budget(self, tmp_path, capsys):
        series = tmp_path / "run.series.jsonl"
        report = tmp_path / "run.report.json"
        main(["run", "text2speech_censoring", "-n", "2",
              "--regions", "us-east-1,ca-central-1",
              "--timeseries", str(series), "--slo",
              "--report", str(report)])
        capsys.readouterr()
        assert main(["dash", str(series), "--report", str(report)]) == 0
        assert "### SLO budget" in capsys.readouterr().out


class TestFleetReportCommand:
    def test_markdown_rollup(self, capsys):
        assert main(["fleet-report", "text2speech_censoring",
                     "-w", "2", "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "**workflows**: 2" in out
        assert "| workflow |" in out
        assert "text2speech_censoring-000" in out
        assert "text2speech_censoring-001" in out

    def test_json_rollup(self, capsys):
        assert main(["fleet-report", "text2speech_censoring",
                     "-w", "2", "-n", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workflows"] == 2
        assert doc["checks"] == 2
        assert doc["solves"] == 2
        assert set(doc["per_workflow"]) == {
            "text2speech_censoring-000", "text2speech_censoring-001",
        }
        for entry in doc["per_workflow"].values():
            assert entry["invocations_observed"] == 1


class TestCrossProcessDeterminism:
    """For a given seed the output is the same in every process, whatever
    ``PYTHONHASHSEED`` says: no result may depend on ``set`` or ``dict``
    iteration over hashed strings."""

    def test_solve_is_byte_equal_under_different_hash_seeds(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for hash_seed in ("1", "2", "77"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
            outputs.add(subprocess.run(
                [sys.executable, "-m", "repro.cli", "solve",
                 "dna_visualization"],
                env=env, capture_output=True, check=True, timeout=300,
            ).stdout)
        assert len(outputs) == 1
        assert b"24-hour plan set" in outputs.pop()
