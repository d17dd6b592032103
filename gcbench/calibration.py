"""A fixed piece of pure-Python work whose time reads the host's speed at
that moment.  The worker times it right before its timed calls, and
``run.py`` times it in a fresh interpreter right after each worker exits:

    python3 gcbench/calibration.py    # prints the seconds it took

It imports only the standard library and shares no state with the
program, so its time moves with the host and not with the program.  It
keeps under a megabyte live, so it does not raise the worker's peak
memory.
"""

from __future__ import annotations

import random
import time


def calibrate(draws: int = 15000) -> float:
    """Seconds for counting seeded random 6-subsets of 13 points in a dict,
    then sorting the counts and rebuilding every subset as a frozenset.
    Like the program's own work it is mostly hashing, allocation and
    sorting."""
    started = time.perf_counter()
    rng = random.Random(5)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(draws):
        key = tuple(sorted(rng.sample(range(13), 6)))
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    total = sum(len(frozenset(key)) * count for key, count in ordered)
    elapsed = time.perf_counter() - started
    if total != 6 * draws:
        raise AssertionError("calibration miscounted")
    return elapsed


if __name__ == "__main__":
    print(repr(calibrate()))
