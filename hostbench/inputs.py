"""Every input the benchmark can run, and the seeded order it runs them in.

The program under test only ever sees the generated inputs; the seed
decides their order (``sim``, ``sim-replay``, ``cli``) or which points of
a fixed candidate grid a sweep draws (``sweep``).  The oracle
(``oracle.py``) is computed over exactly these candidates, and its
``inputs_digest`` pins them: edit a list below and the benchmark refuses
to run until the oracle is regenerated.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

#: The 12 Figure 13 suite keys, in the suite's own order.
SUITE_KEYS = ("1", "1F", "2", "2F", "3", "4", "SS", "SF", "BS", "BF", "5", "FB")

#: The two chips of ``benchmarks/test_sim_hotpath.py``: the 64-PE array
#: of ``BENCHMARK_PROCESSOR`` tiles and 256 PEs of 20 MHz/2048-word tiles.
#: Only the tile spec reaches the compiler.
SIM_CHIPS = {
    "64": {"clock_hz": 20e6, "memory_words": 512,
           "read_cycles_per_element": 1.0, "write_cycles_per_element": 1.0},
    "256": {"clock_hz": 20e6, "memory_words": 2048},
}

#: ``sim`` / ``sim-replay`` inputs: (suite key, chip), 24 in all.
SIM_INPUTS = tuple(itertools.product(SUITE_KEYS, SIM_CHIPS))

#: ``cli`` inputs: ``python -m repro simulate KEY --json`` with CLI defaults.
CLI_KEYS = SUITE_KEYS

#: ``sweep`` candidate grid of ``image_pipeline`` points (750 in all).
#: Small frames and short horizons keep per-job simulation small, so the
#: executor, pickling, cache/store I/O and HTTP layers carry the weight.
SWEEP_AXES = {
    "width": (16, 20, 24, 28, 32),
    "height": (8, 12, 16, 20, 24),
    "rate_hz": (50.0, 100.0, 200.0, 300.0, 400.0),
    "mapping": ("greedy", "1:1"),
    "frames": (1, 2, 3),
}

#: Points per submitted sweep: two per worker of the default pool of 2.
SWEEP_POINTS_PER_RUN = 4


def sim_id(key: str, chip: str) -> str:
    return f"{key}@{chip}"


def sweep_points() -> list[dict]:
    """The whole candidate grid, in a fixed order."""
    names = list(SWEEP_AXES)
    return [dict(zip(names, combo))
            for combo in itertools.product(*SWEEP_AXES.values())]


def point_id(point: dict) -> str:
    return (f"w{point['width']}-h{point['height']}-r{point['rate_hz']:g}"
            f"-{point['mapping']}-f{point['frames']}")


def inputs_digest() -> str:
    """sha256 over every candidate input; the oracle records it."""
    blob = json.dumps({
        "sim": [list(p) for p in SIM_INPUTS],
        "chips": SIM_CHIPS,
        "cli": list(CLI_KEYS),
        "sweep": sweep_points(),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def shuffled(items, rng: random.Random) -> list:
    """One seeded permutation of ``items`` (the multiset never changes)."""
    out = list(items)
    rng.shuffle(out)
    return out
