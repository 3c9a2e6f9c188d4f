"""Event counters shared by all hardware models.

A Stats object holds one flat, declared namespace: the keys of
:mod:`repro.sim.stat_keys`.  Keeping one namespace (rather than
per-component objects) makes cross-cutting metrics such as "total
off-chip request bytes" trivial to aggregate and compare across
configurations; the benchmark harness and the energy model read it after
a run.

Every event counter is a **slot**: a fixed index
(:data:`repro.sim.stat_keys.SLOT_INDEX`) into :attr:`Stats.slots`, a plain
list of floats.  The slots *are* the counters.  The engine's per-op loops
bind that list once and do ``slots[SLOT_X] += 1.0`` inline — no method
call, no string hashing — and every read goes straight to the slot.  The
list's identity is stable for the lifetime of the Stats object
(``suspended()`` restores it in place), so components may cache a
reference.

The only other values are the **gauges** of
:data:`~repro.sim.stat_keys.GAUGE_KEYS` (runtime, byte totals read off the
links at collection time), written through :meth:`Stats.set`.  A key is
one or the other: ``add`` on a gauge or an undeclared key raises
``KeyError``, as does ``set`` on anything but a gauge.  Typed instruments
(including latency histograms) live in :mod:`repro.obs.metrics`.
"""

from contextlib import contextmanager
from typing import Dict, List

from repro.sim.stat_keys import GAUGE_KEYS, N_SLOTS, SLOT_INDEX, SLOT_KEYS


class Stats:
    """The slot counters of one machine plus its collection-time gauges."""

    __slots__ = ("_gauges", "slots")

    def __init__(self):
        #: One accumulator per SLOT_KEYS entry.  Hot components bind this
        #: list at construction; its identity never changes.
        self.slots: List[float] = [0.0] * N_SLOTS
        self._gauges: Dict[str, float] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name``; ``KeyError`` unless it has a slot."""
        self.slots[SLOT_INDEX[name]] += value

    def set(self, name: str, value: float) -> None:
        """Set gauge ``name`` (e.g. runtime); ``KeyError`` unless declared
        in ``GAUGE_KEYS``."""
        if name not in GAUGE_KEYS:
            raise KeyError(name)
        self._gauges[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        if name in self._gauges:
            return self._gauges[name]
        index = SLOT_INDEX.get(name)
        if index is not None and self.slots[index]:
            return self.slots[index]
        return default

    def __getitem__(self, name: str) -> float:
        return self.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        # Without this, ``in`` would fall back to __getitem__(0), (1), ...
        # and never end.
        index = SLOT_INDEX.get(name)
        return name in self._gauges or (index is not None
                                       and self.slots[index] != 0.0)

    @contextmanager
    def suspended(self):
        """Discard every ``add``/``set`` made inside the block.

        Used for modeled-but-unmeasured phases (cache warm-start emulates
        the paper's skipped initialization): component state still mutates,
        but no event may be charged to the measured run.  The slots and
        gauges are saved on entry and restored on exit — the slots in
        place, so components holding a reference keep the same list.
        """
        slots = self.slots
        saved_slots, saved_gauges = slots[:], dict(self._gauges)
        try:
            yield self
        finally:
            slots[:] = saved_slots
            self._gauges = saved_gauges

    def to_dict(self) -> Dict[str, float]:
        """The gauges, then every nonzero counter in slot order."""
        out = dict(self._gauges)
        for key, value in zip(SLOT_KEYS, self.slots):
            if value:
                out[key] = value
        return out
