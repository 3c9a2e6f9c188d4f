"""Workload abstraction: an algorithm that emits a timed operation stream."""

import abc
from typing import Iterator, List, Optional

from repro.vm.address_space import AddressSpace


class Workload(abc.ABC):
    """Base class of the case-study applications.

    Lifecycle: construct with parameters -> :meth:`prepare` allocates the
    data structures in an :class:`AddressSpace` and synthesizes input data ->
    :meth:`make_threads` returns one operation generator per software thread
    -> :func:`~repro.cpu.trace.capture_trace` drains the generators into a
    trace the engine replays -> :meth:`verify` (optional) checks the
    functional result.

    ``use_pei`` selects between the PEI implementation and the pure
    host-instruction implementation of the kernel; the paper's configurations
    all use PEIs (the Ideal-Host baseline retires them as ordinary host
    instructions), so ``use_pei`` defaults to True.
    """

    #: Short name as used in the paper's figures (e.g. "PR").
    name: str = "workload"

    def __init__(self, seed: int = 42):
        self.seed = seed
        self.space: Optional[AddressSpace] = None

    @abc.abstractmethod
    def prepare(self, space: AddressSpace) -> None:
        """Allocate regions and synthesize the input data."""

    @abc.abstractmethod
    def make_threads(self, n_threads: int) -> List[Iterator]:
        """Return one operation generator per thread."""

    def barrier_groups(self, n_threads: int) -> List[int]:
        """Barrier group of each thread (all threads together by default)."""
        return [0] * n_threads

    @property
    def footprint(self) -> int:
        """Bytes of data allocated by :meth:`prepare`."""
        if self.space is None:
            raise RuntimeError("prepare() has not been called")
        return self.space.footprint

    def verify(self) -> None:
        """Check the functional result; raises AssertionError on mismatch."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ThreadChunks:
    """Splits ``total`` items into ``n_threads`` contiguous chunks.

    The standard static schedule of a ``parallel_for``: thread ``i`` gets
    ``[start(i), end(i))``.
    """

    def __init__(self, total: int, n_threads: int):
        if n_threads <= 0:
            raise ValueError(f"thread count must be positive, got {n_threads}")
        if total < 0:
            raise ValueError(f"item count must be non-negative, got {total}")
        self.total = total
        self.n_threads = n_threads

    def start(self, thread: int) -> int:
        return (self.total * thread) // self.n_threads

    def end(self, thread: int) -> int:
        return (self.total * (thread + 1)) // self.n_threads

    def range(self, thread: int) -> range:
        return range(self.start(thread), self.end(thread))
