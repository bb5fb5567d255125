"""Nothing under ``src/`` reads the host clock or starts a thread.

The simulation runs on :class:`repro.common.clock.VirtualClock`; how long
the host took is measured from outside, by ``bench/run.py``.  A host
timestamp inside ``src/`` is dead weight or, worse, an input to a
decision that then differs between machines.

The simulation is also single-threaded: concurrency is expressed through
virtual-time events, and the solver, the control loop and the service
engine are plain loops over their own state.  So no module under
``src/`` imports a thread, process or event-loop library, and nothing
there needs a lock.

Both checks are textual, so a docstring that spells one of these out
trips them too: reword it.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

HOST_CLOCK = re.compile(
    r"^\s*(?:import|from)\s+(?:time|timeit|datetime)\b"
    r"|\b(?:perf_counter|monotonic|process_time|time_ns|default_timer)\w*\s*\("
    r"|\btime\.time\s*\("
    r"|\b(?:datetime|date)\.(?:now|utcnow|today)\s*\(",
    re.MULTILINE,
)
#: ``repro.common.clock`` maps virtual seconds onto calendar dates: the
#: one ``datetime`` import in ``src/``, and exactly the names it uses.
CLOCK_MODULE = "repro/common/clock.py"
CLOCK_IMPORT = "import datetime as _dt\n"
CLOCK_NAMES = {"datetime", "timezone", "timedelta"}

THREADS = re.compile(
    r"^\s*(?:import|from)\s+"
    r"(?:threading|_thread|multiprocessing|concurrent|asyncio)\b",
    re.MULTILINE,
)


def host_clock_reads(rel, text):
    hits = []
    if rel == CLOCK_MODULE:
        text = text.replace(CLOCK_IMPORT, "", 1)
        hits = sorted(set(re.findall(r"\b_dt\.(\w+)", text)) - CLOCK_NAMES)
    return hits + [m.group(0).strip() for m in HOST_CLOCK.finditer(text)]


def thread_imports(rel, text):
    return [m.group(0).strip() for m in THREADS.finditer(text)]


def violations(rel, text):
    return host_clock_reads(rel, text) + thread_imports(rel, text)


@pytest.mark.parametrize(
    "rel, text",
    [
        ("repro/x.py", "import time\n"),
        ("repro/x.py", "    from time import sleep\n"),
        ("repro/x.py", "import timeit\n"),
        ("repro/x.py", "import datetime\n"),
        ("repro/x.py", "t0 = perf_counter()\n"),
        ("repro/x.py", "t0 = time.monotonic_ns()\n"),
        ("repro/x.py", "t0 = time.time()\n"),
        ("repro/x.py", "t0 = os.process_time()\n"),
        (CLOCK_MODULE, CLOCK_IMPORT + "from datetime import date\n"),
        (CLOCK_MODULE, CLOCK_IMPORT + "d = _dt.date(2023, 1, 1)\n"),
        (CLOCK_MODULE, CLOCK_IMPORT + "t = _dt.datetime.now()\n"),
        ("repro/x.py", "import threading\n"),
        ("repro/x.py", "    from threading import Lock\n"),
        ("repro/x.py", "import _thread\n"),
        ("repro/x.py", "import multiprocessing as mp\n"),
        ("repro/x.py", "from concurrent.futures import ThreadPoolExecutor\n"),
        ("repro/x.py", "import concurrent.futures\n"),
        ("repro/x.py", "from concurrent import futures\n"),
        ("repro/x.py", "import asyncio\n"),
    ],
)
def test_checker_flags(rel, text):
    assert violations(rel, text)


def scan_src(check):
    """``{file: hits}`` of ``check`` over every module under ``src/``."""
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 50
    found = {}
    for path in files:
        rel = path.relative_to(SRC).as_posix()
        hits = check(rel, path.read_text())
        if hits:
            found[rel] = hits
    return found


def test_src_never_reads_the_host_clock():
    assert host_clock_reads("repro/x.py", "now = self._clock.now()\n") == []
    assert scan_src(host_clock_reads) == {}


def test_src_never_starts_a_thread():
    assert thread_imports("repro/x.py", "import threadpoolctl\nn_threads = 2\n") == []
    assert scan_src(thread_imports) == {}
