"""Host speed reference: the yardstick every timing metric is divided by.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over minutes: the hypervisor takes CPU time away (steal), and
other tenants slow this one down on shared cores and caches.  Two
measures take most of that out of the timing metrics:

* work is timed in CPU seconds, which on a Linux guest with steal-time
  accounting exclude the time the hypervisor ran someone else;
* next to the work, the benchmark times a fixed pure-Python kernel of
  its own (a small set-associative cache model, the same mix of dict
  lookups, attribute access and calls as the simulator).  A timing is
  multiplied by ``NOMINAL_S / pace`` and so reported in *seconds at the
  reference speed*: what the work would have taken on the host the
  benchmark was tuned on, when that host was quiet.

The kernel lives here, never in the program, so no change to the
program can move it.  It allocates nothing while timed and runs with
the garbage collector off, so the size of the program's heap does not
move it either.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import time

#: Median CPU seconds of one ``pace_sample`` on a quiet 2-vCPU Intel
#: Xeon (2.1 GHz) guest with Python 3.11.  Only scales the reported values.
NOMINAL_S = 0.0100
#: Accesses per kernel run (about 10 ms at the nominal speed).
ACCESSES = 25000


class _Line:
    __slots__ = ("tag", "state", "age")

    def __init__(self, tag: int):
        self.tag = tag
        self.state = 0
        self.age = 0


class _Set:
    """One 8-way set with LRU replacement over preallocated lines."""

    __slots__ = ("ways", "index")

    def __init__(self):
        self.ways = [_Line(-1) for _ in range(8)]
        self.index = {}

    def access(self, tag: int, clock: int, write: bool) -> bool:
        line = self.index.get(tag)
        if line is not None:
            line.age = clock
            if write:
                line.state = 3
            return True
        victim = self.ways[0]
        for way in self.ways:
            if way.age < victim.age:
                victim = way
        self.index.pop(victim.tag, None)
        victim.tag = tag
        victim.state = 3 if write else 1
        victim.age = clock
        self.index[tag] = victim
        return False


_RNG = random.Random(20180224)
_ADDRESSES = tuple(_RNG.randrange(1 << 10) for _ in range(1024))
_SETS = [_Set() for _ in range(64)]


def _kernel() -> int:
    for cache_set in _SETS:
        cache_set.index.clear()
        for clock, way in enumerate(cache_set.ways):
            way.tag, way.state, way.age = -1 - clock, 0, 0
    hits = 0
    for clock in range(1, ACCESSES + 1):
        addr = _ADDRESSES[(clock * 17) & 1023] ^ (clock & 7)
        if _SETS[addr & 63].access(addr >> 6, clock, clock % 5 == 0):
            hits += 1
    return hits


#: The hit count of one kernel run; a sample that disagrees is refused.
_EXPECTED_HITS = _kernel()


def pace_sample() -> tuple[float, float]:
    """Run the kernel once: ``(cpu_s, wall_s)`` it took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall = time.perf_counter()
        cpu = time.thread_time()
        hits = _kernel()
        cpu = time.thread_time() - cpu
        wall = time.perf_counter() - wall
    finally:
        if enabled:
            gc.enable()
    if hits != _EXPECTED_HITS:
        raise RuntimeError("pace kernel result changed")
    return cpu, wall


def scale(seconds: float, pace_s: float) -> float:
    """*seconds* measured at *pace_s* per kernel run, at the reference speed."""
    return seconds * NOMINAL_S / pace_s


def tree_cpu_s() -> float:
    """CPU seconds of this process and every process it started.

    This process and its reaped children come from ``getrusage``; live
    descendants from ``/proc``: every thread's on-CPU nanoseconds in
    ``schedstat``, plus the children they reaped (clock ticks).
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    gone = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + gone.ru_utime + gone.ru_stime
    return total + sum(_proc_cpu(pid) for pid in descendants(os.getpid()))


_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ")".
    return text[text.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    parents = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                parents[int(name)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def _proc_cpu(pid: int) -> float:
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # cutime, cstime: fields 16 and 17 of /proc/<pid>/stat.
    reaped = (int(fields[13]) + int(fields[14])) / _TICK
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return reaped
    running = 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                running += int(fh.read().split()[0])
        except (OSError, IndexError, ValueError):
            pass
    return reaped + running / 1e9
