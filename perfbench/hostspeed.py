"""Host-speed probe: process CPU time in reference seconds.

A shared host slows every process on it for spells of seconds to minutes,
and the simulator's host time swings with it: on a 2-vCPU KVM guest a
fixed simulation loop ran 1.6x slower for 10-20 s at a time, and a short
interpreter loop timed between its iterations slowed with it (correlation
0.9 over 130 pairs).  Two things slow it down:

* time the process does not run: the hypervisor runs another guest on
  the vCPU (steal time) or another process runs on it.  The clock reads
  the process's CPU time (``time.process_time``), which leaves that out:
  the guest kernel keeps steal time out of task run time
  (``CONFIG_PARAVIRT_TIME_ACCOUNTING``).
* slower instructions while it runs: busy neighbours on the same physical
  core, shared caches and memory bandwidth, clock changes.
  :class:`PacedClock` runs a probe loop in the measuring process itself,
  between units of the measured work (a simulation, a capture, a figure
  pass), at most every :data:`PROBE_EVERY_S` of CPU time.  The probes cut
  the run into gaps of the program's own work; an interval is reported in
  *reference seconds*: each gap's CPU time in it, weighted by
  ``REF_LOOP_S`` over the mean loop time of the two probes around the gap.

That is the CPU time the interval would have taken at the reference
speed.  Probe time itself is never counted, and the program's work is
timed as before: only the host's speed at the time is divided out.  With
the work in one process and nothing to wait for, that is the wall time of
an unloaded host.  A probe is the fastest of :data:`PROBE_REPEATS`
back-to-back loops, so one loop that starts with cold caches does not
read as a slow host.

Run on its own to print the loop's time on this machine::

    python3 perfbench/hostspeed.py
"""

import contextlib
import statistics
import time
from bisect import bisect_right
from typing import Iterable, List, Tuple

#: The clock: this process's CPU time, all threads.
_now = time.process_time

#: Iterations of one probe loop (:func:`loop`): about 1.1 ms at the
#: reference speed.
LOOP_N = 4_000
#: Loops per probe; the probe's loop time is the fastest of them.
PROBE_REPEATS = 3
#: CPU seconds of measured work between two probes (at least).
PROBE_EVERY_S = 0.25
#: One probe's loop time at the reference speed: its median on an
#: unloaded 2-vCPU Xeon KVM guest, the host the bounds in BENCHMARK.json
#: were set on.  Any constant would do: it scales every normalised time
#: alike.
REF_LOOP_S = 0.0011


class _Cell:
    __slots__ = ("tag", "value")

    def __init__(self, tag: int):
        self.tag = tag
        self.value = 0

    def touch(self, value: int) -> int:
        self.value += value & 0xFF
        return self.tag ^ self.value


def loop(n: int = LOOP_N) -> int:
    """Interpreter work shaped like the simulator's: dict lookups,
    attribute reads and writes, method calls and integer arithmetic."""
    cells = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 1023
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell(key)
        acc += cell.touch(i) >> 2
        if acc > 1 << 40:
            acc &= 0xFFFF
    return acc


class PacedClock:
    """Probes between units of measured work; wall time to reference time.

    Call :meth:`probe` right before and right after every interval that
    :meth:`ref_seconds` will be asked about, and :meth:`tick` between the
    units of work inside it (:meth:`paced` installs the ticks).
    """

    #: The clock every time given to or returned by this class is on.
    now = staticmethod(_now)

    def __init__(self, every: float = PROBE_EVERY_S):
        self.every = every
        #: (start, end, loop seconds) of every probe, in order.
        self.probes: List[Tuple[float, float, float]] = []
        self._starts: List[float] = []

    def probe(self) -> float:
        """Time one probe now; returns its end."""
        start = _now()
        best = None
        for _ in range(PROBE_REPEATS):
            t0 = _now()
            loop()
            seconds = _now() - t0
            best = seconds if best is None else min(best, seconds)
        end = _now()
        self.probes.append((start, end, best))
        self._starts.append(start)
        return end

    def tick(self) -> None:
        """Probe if :attr:`every` seconds passed since the last probe."""
        if not self.probes or _now() - self.probes[-1][1] >= self.every:
            self.probe()

    @contextlib.contextmanager
    def paced(self, targets: Iterable[Tuple[object, str]]):
        """Tick before and after every call of each ``(owner, name)``.

        ``owner`` is a module or a class whose ``name`` is a plain
        function; the originals are put back on exit.
        """
        patches = []
        try:
            for owner, name in targets:
                raw = owner.__dict__[name]
                setattr(owner, name, self._ticking(raw))
                patches.append((owner, name, raw))
            yield self
        finally:
            for owner, name, raw in reversed(patches):
                setattr(owner, name, raw)

    def _ticking(self, fn):
        tick = self.tick

        def wrapper(*args, **kwargs):
            tick()
            try:
                return fn(*args, **kwargs)
            finally:
                tick()

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def _gap_factor(self, index: int) -> float:
        """Reference over measured speed in the gap after probe ``index``."""
        return REF_LOOP_S / ((self.probes[index][2]
                              + self.probes[index + 1][2]) / 2.0)

    def factor_at(self, t: float) -> float:
        """The speed factor of the gap that holds time ``t``."""
        index = bisect_right(self._starts, t) - 1
        if index < 0 or index + 1 >= len(self.probes):
            raise ValueError(f"time {t} lies outside the probed span")
        return self._gap_factor(index)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The clock interval [t0, t1] in reference seconds.

        Only the gaps between probes count; an interval that reaches past
        the first or the last probe is an error.
        """
        if not self.probes or t0 < self.probes[0][0] or \
                t1 > self.probes[-1][1]:
            raise ValueError(f"[{t0}, {t1}] is not inside the probed span")
        total = 0.0
        first = max(0, bisect_right(self._starts, t0) - 1)
        for index in range(first, len(self.probes) - 1):
            gap0, gap1 = self.probes[index][1], self.probes[index + 1][0]
            if gap0 >= t1:
                break
            overlap = min(gap1, t1) - max(gap0, t0)
            if overlap > 0:
                total += overlap * self._gap_factor(index)
        return total

    def summary(self) -> dict:
        """Probe loop-time quartiles over the run, for the run record."""
        times = [probe[2] for probe in self.probes]
        if len(times) < 2:
            return {"probes": len(times)}
        q1, q2, q3 = statistics.quantiles(times, n=4)
        return {"probes": len(times), "ref_loop_ms": REF_LOOP_S * 1e3,
                "loop_ms_q1": round(q1 * 1e3, 4),
                "loop_ms_median": round(q2 * 1e3, 4),
                "loop_ms_q3": round(q3 * 1e3, 4)}


def main(seconds: float = 20.0) -> None:
    """Print the probe loop-time quartiles over ``seconds``."""
    clock = PacedClock()
    end = _now() + seconds
    while _now() < end:
        clock.probe()
    s = clock.summary()
    print(f"{s['probes']} probes: q1 {s['loop_ms_q1']} median "
          f"{s['loop_ms_median']} q3 {s['loop_ms_q3']} ms "
          f"(REF_LOOP_S {REF_LOOP_S * 1e3} ms)")


if __name__ == "__main__":
    main()
