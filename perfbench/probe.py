"""Machine-speed probe.

Wall time on a shared machine swings by up to 2x within minutes, and CPU
time swings with it (measured on the 2-vCPU VM the benchmark was written
on: identical rounds ranged 0.28-0.43 s, and whole runs 20% apart).  The
benchmark therefore times a fixed loop of its own around every timed piece
of work and reports times at the speed of a reference machine:

    reference seconds = wall seconds * REF_PROBE_S / probe seconds

The loop is the benchmark's, not the program's, so a change to the program
never moves it.  With a probe after every ~0.25 s round, the run-to-run
spread of identical work fell from 19% to 4%.
"""
from __future__ import annotations

from time import perf_counter

#: speed_probe() seconds on the reference machine (2-vCPU Xeon VM, Python 3.11)
REF_PROBE_S = 0.016
#: probes taken before and after each set-up; one probe alone varies by ~20%
SETUP_PROBES = 4


def speed_probe(n: int = 40000) -> float:
    """Seconds this process takes for a fixed loop of big-int and dict work."""
    x = (1 << 144) - 1
    acc = 0
    table: dict[int, int] = {}
    start = perf_counter()
    for i in range(n):
        m = x & ((i * 0x9E3779B97F4A7C15) ^ (x >> (i % 64)))
        acc += m.bit_count()
        table[i & 255] = acc
    return perf_counter() - start


def to_reference(wall_s: float, probe_s: float) -> float:
    """``wall_s`` at the reference machine's speed, given the probe time then."""
    return wall_s * REF_PROBE_S / probe_s
