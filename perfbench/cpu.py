"""CPU time of the system under test: this process and its node servers.

On a shared virtual machine the hypervisor takes the CPU away for a
varying share of wall time ("steal"); a thread's CPU time leaves that
share out, so it measures the program's own work.
"""

from __future__ import annotations

import os
import time
from typing import List, Sequence

_TICKS = os.sysconf("SC_CLK_TCK")


def child_pids() -> List[int]:
    """The live direct child processes of this process (Linux ``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def cpu_seconds(pids: Sequence[int] = ()) -> float:
    """CPU time of this process plus that of the live processes ``pids``
    (user + system, all threads)."""
    total = time.process_time()
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total
