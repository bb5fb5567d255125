"""Make ``repro`` and ``bench`` importable the way ``bench/run.py`` does.

Run with ``python3 -m pytest bench/tests -o addopts=""`` from the repo
root; these tests are not part of tier-1 (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
