"""Every view of the run bundle pinned in ``golden/views.json``.

Four ``caribou run --report`` invocations write four bundles, chosen so
that between them every section of every view renders:

* ``q`` — text2speech over two regions (per-region tables, sync gates);
* ``c`` — dna_visualization under chaos with the default SLOs and a
  30-minute window (reliability, SLO tables and the dashboard's budget);
* ``k`` — rag_ingestion pinned to one region with one custom SLO and
  every second request traced;
* ``m`` — sixty image_processing requests with the default SLOs (long
  series, so the dashboard downsamples at every width).

On each bundle the capture runs ``report``, ``report --requests`` and
``dash --width 48|12|1``; then ``diff`` on the pairs q/q, q/c, c/k and
k/q, and ``fleet-report dna_visualization -w 3`` with and without
``--json``.  Each entry is one command's exit code and stdout, with the
bundles' directory stripped from the paths it prints.

The golden was captured before the views were folded into one module;
every entry must stay equal ever after.  Regenerate (only for a
declared behaviour change) with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_views_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "views.json"

#: Bundle name -> the ``caribou run`` arguments that write it.
RUNS = {
    "q": ("text2speech_censoring", "-n", "2",
          "--regions", "us-east-1,ca-central-1", "--seed", "1234"),
    "c": ("dna_visualization", "-n", "6", "--chaos", "--slo",
          "--window", "1800", "--seed", "3"),
    "k": ("rag_ingestion", "-n", "3", "--coarse", "ca-central-1",
          "--seed", "5", "--slo", "p95(executor.request_latency_s)<=0.1",
          "--trace-sample", "2"),
    "m": ("image_processing", "-n", "60", "--seed", "7", "--slo"),
}
WIDTHS = ("48", "12", "1")
DIFF_PAIRS = (("q", "q"), ("q", "c"), ("c", "k"), ("k", "q"))
FLEET = ("fleet-report", "dna_visualization", "-w", "3", "--seed", "2")

#: Each case's argv, bundle names standing for their paths.
COMMANDS = (
    [("run", *args, "--report", name) for name, args in RUNS.items()]
    + [(cmd, *flags, name) for name in RUNS for cmd, *flags in (
        ("report",), ("report", "--requests"),
        *(("dash", "--width", w) for w in WIDTHS))]
    + [("diff", a, b) for a, b in DIFF_PAIRS]
    + [FLEET, (*FLEET, "--json")]
)
CASES = [" ".join(argv) for argv in COMMANDS]


def _run(argv, directory: pathlib.Path) -> dict:
    """One command's exit code and stdout, bundle names made paths."""
    full = [str(directory / a) if a in RUNS else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(full)
    stdout = out.getvalue().replace(f"{directory}{os.sep}", "")
    return {"code": code, "stdout": stdout}


def capture(directory: pathlib.Path) -> dict:
    """Every case, in order: the runs first, since the views read the
    bundles they write into ``directory``."""
    return {name: _run(argv, directory) for name, argv in zip(CASES, COMMANDS)}


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def write(pinned: dict) -> None:
    GOLDEN.write_text(
        json.dumps(pinned, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write(capture(pathlib.Path(tmp)))
