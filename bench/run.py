#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --trace 1            # ... then once more traced
    python3 bench/run.py --workload solve_cold --seed 7 --seconds 20 --trace 0

Without ``--workload`` each workload runs in a fresh subprocess.  With it,
this process runs that one workload and prints, as its last line, the JSON
object ``BENCHMARK.json`` describes: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  The exit code is non-zero when an
output fails verification or a traced run attributes under 90 % of its
wall time.  ``bench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

#: ``--seconds`` at which the frozen sizing constants run at scale 1.
REFERENCE_SECONDS = 20.0
#: Set-up repeats: at least the first, at most the second, stopping in
#: between once this many seconds of set-up have been measured.
SETUP_REPEATS = (3, 25)
SETUP_BUDGET_S = 1.0
#: A traced run must attribute this share of its wall time to layers.
MIN_ATTRIBUTED_PCT = 90.0

def bootstrap_path() -> None:
    """Import ``repro`` and ``bench`` from this checkout and nowhere else.

    Run as a script, Python puts ``bench/`` first on the path, where
    ``trace.py`` would shadow the standard library's ``trace``.
    """
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"{src}/repro not found: the benchmark runs from a checkout of the repo")
    here = Path(__file__).resolve().parent
    sys.path[:] = [p for p in sys.path if Path(p or os.curdir).resolve() != here]
    sys.path[:0] = [str(src), str(ROOT)]


def steady_process(reexec: bool) -> None:
    """Take two sources of run-to-run drift out of the measuring process.

    String hashing is randomised per process, which moves every dict and
    set around in memory and the host time with it; a fixed
    ``PYTHONHASHSEED`` (set by re-executing once) makes the same seed the
    same run.  Pinning to the last allowed CPU keeps the single-threaded
    run off CPU 0, where the sandbox's own housekeeping lands, and stops
    it migrating.
    """
    if reexec and os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Steps:
    """Times each workload step and tells the recorder which one is open."""

    def __init__(self, recorder=None):
        self.times: List[float] = []
        self._recorder = recorder

    def __call__(self, fn: Callable[[], Any]) -> Any:
        rec = self._recorder
        if rec is not None:
            rec.step = len(self.times)
        t0 = perf_counter()
        result = fn()
        self.times.append(perf_counter() - t0)
        if rec is not None:
            rec.step = -1
        return result


class UnknownWorkload(ValueError):
    pass


def run_workload(
    name: str,
    seed: int,
    scale: float = 1.0,
    traced: bool = False,
    delays: Optional[Dict[Tuple[str, str], float]] = None,
    trace_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one workload in this process and return its result document.

    ``delays`` (traced runs only) adds a busy-wait inside the named
    wrappers; it exists for the sensitivity self-test.
    """
    t0 = perf_counter()
    import numpy as np

    from bench import trace
    from bench.workloads import WORKLOADS

    # Loading numpy and the program is part of what a run waits for
    # before it can start (0 when this process has loaded them before).
    import_s = perf_counter() - t0
    if name not in WORKLOADS:
        raise UnknownWorkload(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    recorder = verifier = None
    if traced:
        trace.install()
        recorder = trace.Recorder(delays)
        verifier = trace.Recorder()
    try:
        setup_times: List[float] = []
        state = None
        while len(setup_times) < SETUP_REPEATS[0] or (
            len(setup_times) < SETUP_REPEATS[1] and sum(setup_times) < SETUP_BUDGET_S
        ):
            state = None  # free the previous build before timing the next
            t0 = perf_counter()
            state = workload.setup(seed, scale)
            setup_times.append(perf_counter() - t0)

        gc.collect()
        steps = Steps(recorder)
        trace.activate(recorder)
        cpu0, t0 = _cpu_s(), perf_counter()
        workload.run(state, steps)
        wall_s = perf_counter() - t0
        cpu_s = _cpu_s() - cpu0

        trace.activate(verifier)
        outcome = workload.finish(state)
        trace.activate(None)

        tally = outcome.tally
        pct = workload.TAIL_PERCENTILE
        values = {
            "wall_s": (wall_s, "s"),
            "ops_per_s": (outcome.ops / wall_s, "1/s"),
            "cpu_s": (cpu_s, "s"),
            "step_p50_ms": (statistics.median(steps.times) * 1e3, "ms"),
            "step_tail_ms": (float(np.percentile(steps.times, pct)) * 1e3, "ms"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ops_pct": (100.0 * (tally.attempted - tally.failed) / tally.attempted, "%"),
            "carbon_g_per_request": (outcome.carbon_g_per_request, "gCO2eq"),
            "sim_latency_p95_s": (outcome.sim_latency_p95_s, "s"),
            "hbss_carbon_vs_exact_pct": (outcome.hbss_carbon_vs_exact_pct, "%"),
            "events_per_request": (outcome.events_per_request, "count"),
            "sim_s_per_host_s": (outcome.virtual_s / wall_s, "x"),
        }
        doc: Dict[str, Any] = {
            "workload": name, "seed": seed, "scale": scale, "traced": traced,
            "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures, "ops": outcome.ops,
            "steps": len(steps.times), "tail_percentile": pct,
            "setups": len(setup_times), "import_s": import_s,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        }
        if traced:
            layers = trace.layer_metrics(recorder, verifier, wall_s, outcome.layer_counts)
            doc["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            doc["layer_self_s"] = {
                layer: self_s for layer, self_s in recorder.layers().items() if layer != "bench"
            }
            if trace_path is not None:
                trace_path.parent.mkdir(parents=True, exist_ok=True)
                recorder.write_jsonl(trace_path, t0)
        return doc
    finally:
        if traced:
            trace.uninstall()


def correct(doc: Dict[str, Any]) -> bool:
    if doc["failed"]:
        return False
    if doc["traced"]:
        return doc["per_layer"]["trace.attributed_pct"]["value"] >= MIN_ATTRIBUTED_PCT
    return True


def contract_line(doc: Dict[str, Any]) -> str:
    """The last line the driver reads."""
    metrics = doc["per_layer"] if doc["traced"] else doc["end_to_end"]
    return json.dumps({
        "correct": correct(doc),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    })


def layer_shares(doc: Dict[str, Any]) -> Dict[str, float]:
    """Each layer's share of the traced phase's program time (self times
    of the program's layers, tracing cost left out), largest first."""
    total = sum(doc["layer_self_s"].values())
    return {layer: self_s / total for layer, self_s in doc["layer_self_s"].items()}


def report(doc: Dict[str, Any]) -> None:
    """Every metric by name and unit, for a person."""
    from bench import trace

    print(
        f"== {doc['workload']}  seed={doc['seed']} scale={doc['scale']:g} "
        f"traced={int(doc['traced'])}  ops={doc['ops']} steps={doc['steps']} "
        f"(tail = p{doc['tail_percentile']}) setups={doc['setups']} import={doc['import_s']:.3f}s "
        f"attempted={doc['attempted']} failed={doc['failed']}"
    )
    for failure in doc["failures"]:
        print(f"   FAILED: {failure}")
    for name, entry in doc["end_to_end"].items():
        print(f"   {name:44s} {entry['value']:16.6f} {entry['unit']}")
    if doc["traced"]:
        for name, entry in doc["per_layer"].items():
            print(f"   {name:44s} {entry['value']:16.6f} {entry['unit']}")
        shares = layer_shares(doc)
        print("   top layers by self time: " + ", ".join(
            f"{layer} {100 * share:.1f}%" for layer, share in list(shares.items())[:5]
        ))
        print(
            f"   share of program time: solver stack "
            f"{100 * sum(shares.get(name, 0.0) for name in trace.SOLVER_LAYERS):.1f}%, "
            f"simulated cloud {100 * sum(shares.get(name, 0.0) for name in trace.CLOUD_LAYERS):.1f}%, "
            f"largest layer {100 * max(shares.values()):.1f}%"
        )
        if not correct(doc) and not doc["failed"]:
            print(f"   FAILED: trace.attributed_pct is under {MIN_ATTRIBUTED_PCT:g}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess; traced runs follow untraced."""
    from bench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        walls = {}
        for traced in ([0, 1] if args.trace else [0]):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(traced),
            ]
            if args.scale is not None:
                cmd += ["--scale", str(args.scale)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.rstrip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"   {name} (traced={traced}) exited with code {proc.returncode}")
                status = 1
                continue
            if not json.loads(lines[-1])["correct"]:
                status = 1
            for line in lines:
                if line.split()[:1] == ["wall_s"]:
                    walls[traced] = float(line.split()[1])
        if len(walls) == 2:
            print(
                f"   traced wall {walls[1]:.3f}s vs untraced {walls[0]:.3f}s: "
                f"measured overhead {100 * (walls[1] / walls[0] - 1):.1f}%"
            )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run this one workload in-process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=1, help="seed the inputs are generated from")
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="length the timed phase is sized for (sets the scale)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = install the wrappers and report per-layer metrics")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the scale --seconds implies (tests use 0.1)")
    args = parser.parse_args(argv)
    bootstrap_path()

    if args.workload is None:
        return run_all(args)

    scale = args.scale if args.scale is not None else args.seconds / REFERENCE_SECONDS
    if scale <= 0:
        parser.error("--seconds and --scale must be positive")
    steady_process(reexec=argv is None)
    try:
        doc = run_workload(
            args.workload, args.seed, scale, traced=bool(args.trace),
            trace_path=OUT_DIR / f"trace_{args.workload}.jsonl",
        )
    except UnknownWorkload as exc:
        parser.error(str(exc))
    report(doc)
    print(contract_line(doc))
    return 0 if correct(doc) else 1


if __name__ == "__main__":
    sys.exit(main())
