"""Interpreter-speed calibration.

The machines this benchmark runs on are shared: the same work can take up to
twice as long from one second to the next.  A fixed loop of plain
interpreter work, timed right before and right after each measured unit,
tracks that speed; each timed sample is scaled to the speed at which the loop
takes ``NOMINAL_S``.  Changes to ``trc`` cannot change the loop, so they move
the scaled figures exactly as they move the raw ones.
"""

from __future__ import annotations

import time

LOOPS = 20000
NOMINAL_S = 0.004  # about the loop's fastest time on the reference machine


def loop_s() -> float:
    """Time of a fixed piece of tuple, dict and integer work."""
    start = time.perf_counter()
    table: dict[int, tuple] = {}
    total = 0
    for i in range(LOOPS):
        item = (i, i + 1, (i & 7,))
        table[i & 255] = item
        total += len(table) + item[2][0]
    return time.perf_counter() - start


def scaled(name: str, value: float, loop: float) -> float:
    """``value`` of metric ``name`` at the nominal speed, given the loop time
    measured around it: times (``*_s``) shrink on a slow moment, rates
    (``*_per_s``) grow."""
    factor = NOMINAL_S / loop
    return value / factor if name.endswith("_per_s") else value * factor
