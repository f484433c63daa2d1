"""The host's load over a timed interval, reported beside the timings of
tools/call_cost.py and tools/bench_pairs.py: the share of CPU time the
hypervisor stole (the `steal` column of /proc/stat's `cpu` line, read
before and after) and the 1-minute load average.  A noisy pair of runs
shows as a high steal share; a real change does not need one.
"""

from __future__ import annotations

import os

STAT = "/proc/stat"


def cpu_ticks(path: str = STAT):
    """(steal, total) of the cumulative `cpu` line, in clock ticks; total
    sums user, nice, system, idle, iowait, irq, softirq and steal (guest
    time is counted inside user and nice).  None where the file is absent."""
    try:
        with open(path) as f:
            fields = f.readline().split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:9]]
    return ticks[7], sum(ticks)


def host_load(before, after) -> dict:
    """The steal share between two `cpu_ticks` readings (None if either is
    None, 0.0 if no tick passed) and the 1-minute load average now (None
    where the platform has none)."""
    steal = None
    if before is not None and after is not None:
        ticks = after[1] - before[1]
        steal = round((after[0] - before[0]) / ticks, 4) if ticks else 0.0
    try:
        load = round(os.getloadavg()[0], 2)
    except OSError:
        load = None
    return {"steal_share": steal, "load_1m": load}
