"""Bounded PEI schedules: the state space the protocol checker explores.

A *schedule* is a totally ordered sequence of PEI/pfence steps together with
a deterministic issue-time assignment.  Because the simulator's executor is
synchronous, the order in which PEIs visit the PIM directory equals their
issue order; enumerating every ordered sequence over a small step alphabet
(reader/writer × host-/memory-side × two target blocks × short/long
occupancy, plus pfence) together with every issue-spacing mode therefore
enumerates every *interleaving* the timestamp protocol can encounter at
that size.

Two blocks are enough to exercise every conflict class the Section 4.3
protocol distinguishes: same block (must serialize — a false negative here
is a correctness bug), different blocks in different entries (must not
serialize), and different blocks aliased onto one tag-less entry (may
serialize — a false positive, safe by design).  The block pair of a
:class:`DirectoryCase` selects between those geometries.

Steps are interned: :func:`step_alphabet` builds each distinct step object
once and sequences share them, which keeps the ~half-million-schedule
default sweep allocation-free in the hot loop.
"""

import itertools
from dataclasses import dataclass
from typing import Iterator, Tuple, Union

from repro.core.isa import HASH_PROBE, INT_INCREMENT, PimOp

__all__ = [
    "N_BLOCKS",
    "WRITER_OP",
    "READER_OP",
    "PeiStep",
    "FenceStep",
    "FENCE",
    "Step",
    "Schedule",
    "DirectoryCase",
    "ExploreBounds",
    "default_directory_cases",
    "step_alphabet",
    "enumerate_step_sequences",
    "enumerate_schedules",
    "count_schedules",
]

#: Logical blocks per schedule: two cover every conflict class (module
#: docstring), and every geometry's block table holds exactly two.
N_BLOCKS = 2

#: The operations replayed writer / reader steps carry (any Table 1 pair
#: works; the protocol keys only on the R/W columns).
WRITER_OP: PimOp = INT_INCREMENT
READER_OP: PimOp = HASH_PROBE


@dataclass(frozen=True)
class PeiStep:
    """One PEI of a bounded workload.

    ``block`` is a logical block id (an index into the active
    :class:`DirectoryCase`'s block table), not an address.  ``duration`` is
    the compute occupancy charged after the lock grant; memory-side steps
    additionally pay the case's clean/ship lead before computing.
    """

    is_writer: bool
    on_host: bool
    block: int
    duration: float

    def describe(self) -> str:
        kind = "W" if self.is_writer else "R"
        side = "host" if self.on_host else "mem"
        return f"{kind}{self.block}/{side}/{self.duration:g}"


@dataclass(frozen=True)
class FenceStep:
    """One pfence: waits for every previously issued writer PEI."""

    def describe(self) -> str:
        return "pfence"


#: The shared pfence step (fences carry no parameters).
FENCE = FenceStep()

Step = Union[PeiStep, FenceStep]


@dataclass(frozen=True)
class Schedule:
    """An ordered step sequence plus its issue-time assignment.

    Step ``i`` issues at ``i * stride``: ``stride == 0`` is the maximally
    contended burst (every PEI arrives at once), larger strides produce
    partially and fully disjoint lock windows depending on the durations.
    """

    steps: Tuple[Step, ...]
    stride: float

    def issue(self, index: int) -> float:
        return index * self.stride

    def describe(self) -> str:
        inner = " ".join(step.describe() for step in self.steps)
        return f"[{inner}] stride={self.stride:g}"


@dataclass(frozen=True)
class DirectoryCase:
    """One directory geometry the explorer replays every schedule under."""

    name: str
    entries: int
    latency: float
    handoff_penalty: float
    ideal: bool
    blocks: Tuple[int, ...]  # logical block id -> real block number


def default_directory_cases() -> Tuple[DirectoryCase, ...]:
    """The three geometries of interest: aliased, disjoint, and ideal.

    With 4 entries (2 index bits) blocks 1 and 4 XOR-fold onto entry 1 —
    a tag-less false positive — while blocks 1 and 2 land on entries 1 and
    2.  The ideal case models the Ideal-Host infinite per-block table.
    """
    return (
        DirectoryCase("aliased", entries=4, latency=2.0, handoff_penalty=10.0,
                      ideal=False, blocks=(1, 4)),
        DirectoryCase("disjoint", entries=4, latency=2.0, handoff_penalty=10.0,
                      ideal=False, blocks=(1, 2)),
        DirectoryCase("ideal", entries=4, latency=2.0, handoff_penalty=10.0,
                      ideal=True, blocks=(1, 2)),
    )


@dataclass(frozen=True)
class ExploreBounds:
    """The knobs bounding one exhaustive exploration.

    The default bound — up to 4 PEIs over 2 blocks, short/long occupancies,
    burst and staggered issue, all three directory geometries — is the
    acceptance bound of ``make verify``; it is exhaustive at that size and
    completes in well under a minute.
    """

    max_peis: int = 4
    durations: Tuple[float, ...] = (3.0, 11.0)
    strides: Tuple[float, ...] = (0.0, 7.0)
    include_fences: bool = True
    #: Fixed clean/operand-ship lead charged to memory-side PEIs before
    #: compute, so side choice genuinely changes the explored timelines.
    memory_lead: float = 6.0


def step_alphabet(bounds: ExploreBounds) -> Tuple[Step, ...]:
    """Every distinct step a schedule slot can hold, built once."""
    steps: list = [
        PeiStep(is_writer=w, on_host=h, block=b, duration=d)
        for w in (False, True)
        for h in (True, False)
        for b in range(N_BLOCKS)
        for d in bounds.durations
    ]
    if bounds.include_fences:
        steps.append(FENCE)
    return tuple(steps)


def enumerate_step_sequences(bounds: ExploreBounds) -> Iterator[Tuple[Step, ...]]:
    """All ordered step sequences of length 1..max_peis over the alphabet."""
    alphabet = step_alphabet(bounds)
    for length in range(1, bounds.max_peis + 1):
        yield from itertools.product(alphabet, repeat=length)


def enumerate_schedules(bounds: ExploreBounds) -> Iterator[Schedule]:
    """All schedules at the bound: sequences × issue-spacing modes."""
    for steps in enumerate_step_sequences(bounds):
        for stride in bounds.strides:
            yield Schedule(steps=steps, stride=stride)


def count_schedules(bounds: ExploreBounds) -> int:
    """Closed-form schedule count (for progress reporting, not a walk)."""
    alphabet = len(step_alphabet(bounds))
    sequences = sum(alphabet ** n for n in range(1, bounds.max_peis + 1))
    return sequences * len(bounds.strides)
