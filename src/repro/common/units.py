"""Unit constants and conversion helpers.

All sizes inside the simulator are plain ``int``/``float`` bytes; all
energies are kWh; all carbon quantities are grams of CO2-equivalent
(gCO2eq); all money is USD.  These helpers exist so that call sites read
naturally (``mb(2.4)`` instead of ``2.4 * 1024 * 1024``).
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def kb(n: float) -> float:
    """``n`` kibibytes in bytes."""
    return n * KB


def mb(n: float) -> float:
    """``n`` mebibytes in bytes."""
    return n * MB
