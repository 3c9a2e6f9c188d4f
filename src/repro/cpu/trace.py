"""Operations emitted by workload threads, and their compiled-trace form.

A workload is a real algorithm running over its own data; as it executes it
*yields* a stream of these operation records, which the timing engine
replays.  Functional effects (the actual PageRank additions, BFS relaxations,
hash probes, ...) happen inside the workload at yield time — operations are
pure timing records, which keeps the engine small and fast.

All addresses are virtual; the core translates them through its TLB.

:func:`capture_trace` drains a workload's streams once into a
:class:`CompiledTrace` — compact parallel arrays, one slot per op — and
its scheduler alone fixes the functional interleaving.  Every
``System.run`` replays a capture (a live workload is captured first), so
one capture serves any number of configurations, each simulating the
identical stream.
"""

import hashlib
import json
import struct
import sys
from array import array
from collections import defaultdict, deque
from typing import Dict, List, Optional, Tuple

KIND_COMPUTE = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_PEI = 3
KIND_FENCE = 4
KIND_BARRIER = 5


class Compute:
    """``insts`` non-memory instructions (retired at the core's issue width)."""

    __slots__ = ("kind", "insts")

    def __init__(self, insts: int):
        self.kind = KIND_COMPUTE
        self.insts = insts

    def __repr__(self) -> str:
        return f"Compute({self.insts})"


class Load:
    """A load from a virtual address.

    ``dep=True`` marks a load whose address depends on the previous load's
    value (pointer chasing); the core serializes such loads instead of
    overlapping them in its MLP window.
    """

    __slots__ = ("kind", "addr", "dep")

    def __init__(self, addr: int, dep: bool = False):
        self.kind = KIND_LOAD
        self.addr = addr
        self.dep = dep

    def __repr__(self) -> str:
        return f"Load(0x{self.addr:x}{', dep' if self.dep else ''})"


class Store:
    """A store to a virtual address (posted through the write buffer)."""

    __slots__ = ("kind", "addr")

    def __init__(self, addr: int):
        self.kind = KIND_STORE
        self.addr = addr

    def __repr__(self) -> str:
        return f"Store(0x{self.addr:x})"


class Pei:
    """A PIM-enabled instruction targeting one cache block.

    ``op`` is a :class:`repro.core.isa.PimOp`.  ``wait_output`` defaults to
    True for operations that produce output operands (the issuing thread
    reads the result through the PCU's memory-mapped registers) and False for
    pure read-modify-write operations, which retire asynchronously.

    ``chain`` models the paper's software unrolling for HJ (Section 5.2):
    output-producing PEIs tagged with the same chain id (a small
    non-negative int) form a dependence chain (each waits for the previous
    one's output), but *different* chains overlap in the out-of-order
    window instead of blocking the core.
    """

    __slots__ = ("kind", "op", "addr", "wait_output", "chain")

    def __init__(self, op, addr: int, wait_output=None, chain=None):
        self.kind = KIND_PEI
        self.op = op
        self.addr = addr
        if wait_output is None:
            wait_output = op.output_bytes > 0 and chain is None
        self.wait_output = wait_output
        self.chain = chain

    def __repr__(self) -> str:
        return f"Pei({self.op.mnemonic}, 0x{self.addr:x})"


class PFence:
    """The pfence instruction: wait for all previously issued PEIs."""

    __slots__ = ("kind",)

    def __init__(self):
        self.kind = KIND_FENCE

    def __repr__(self) -> str:
        return "PFence()"


class Barrier:
    """A software thread barrier (e.g. between parallel-for phases).

    Not a hardware structure — it models the join points of the parallel
    algorithms (level-synchronous BFS, PageRank iterations).  The engine
    parks each arriving thread and releases all of them at the latest
    arrival time.  ``group`` scopes the barrier: only threads of the same
    barrier group synchronize, which is how independent applications of a
    multiprogrammed mix avoid waiting on each other.
    """

    __slots__ = ("kind", "group")

    def __init__(self, group: int = 0):
        self.kind = KIND_BARRIER
        self.group = group

    def __repr__(self) -> str:
        return f"Barrier(group={self.group})"


# ----------------------------------------------------------------------
# Compiled traces: capture once, replay many
# ----------------------------------------------------------------------

#: Schema tag for serialized traces.
TRACE_SCHEMA = "repro.cpu.trace/2"

#: 8-byte little-endian length prefix in front of the JSON metadata block.
_HEADER = struct.Struct("<Q")

#: Bytes per op in the binary form: one kind byte plus four 8-byte operands.
_OP_BYTES = 1 + 4 * 8


class TraceError(ValueError):
    """A workload's stream cannot be compiled, or a trace cannot replay."""


class CompiledTrace:
    """One workload's operation streams, materialized into parallel arrays.

    Per thread, ``kinds[t][i]`` holds the i-th op's kind and the argument
    arrays ``a0..a3`` hold its operands (one slot per op, zero-filled when
    unused):

    ========  ======================  =====================================
    kind      a0                      a1 / a2 / a3
    ========  ======================  =====================================
    COMPUTE   insts                   — / — / —
    LOAD      addr                    dep (0/1) / — / —
    STORE     addr                    — / — / —
    PEI       addr                    op index into ``op_mnemonics`` /
                                      wait_output (0/1) / chain id + 1
                                      (0 means no chain)
    FENCE     —                       — / — / —
    BARRIER   group                   — / — / —
    ========  ======================  =====================================

    The trace also records everything ``System.run`` needs to replay the
    run bit-identically on any machine: the workload name and footprint,
    the allocated regions (for warm-start), barrier groups, the page size
    the regions were laid out with, and the exact ops cap the capture ran
    under.  ``fingerprint`` identifies the capture inputs (workload class,
    params, seed, thread count, ops cap) for the trace cache, or the
    captured content when the capture was given no key.
    """

    __slots__ = ("workload_name", "n_threads", "max_ops_per_thread",
                 "page_size", "footprint", "regions", "barrier_groups",
                 "op_mnemonics", "kinds", "a0", "a1", "a2", "a3",
                 "fingerprint")

    def __init__(self, workload_name: str, n_threads: int,
                 max_ops_per_thread: Optional[int], page_size: int,
                 footprint: int, regions: List[Tuple[str, int, int]],
                 barrier_groups: List[int], op_mnemonics: List[str],
                 kinds: List[array], a0: List[array], a1: List[array],
                 a2: List[array], a3: List[array], fingerprint: str):
        self.workload_name = workload_name
        self.n_threads = n_threads
        self.max_ops_per_thread = max_ops_per_thread
        self.page_size = page_size
        self.footprint = footprint
        self.regions = [tuple(r) for r in regions]
        self.barrier_groups = list(barrier_groups)
        self.op_mnemonics = list(op_mnemonics)
        self.kinds = kinds
        self.a0 = a0
        self.a1 = a1
        self.a2 = a2
        self.a3 = a3
        self.fingerprint = fingerprint

    @property
    def n_ops(self) -> int:
        """Total operation count across all threads."""
        return sum(len(k) for k in self.kinds)

    def __repr__(self) -> str:
        return (f"CompiledTrace({self.workload_name!r}, "
                f"threads={self.n_threads}, ops={self.n_ops})")

    # Serialization (the trace store and the shared-memory transport) ----

    def to_bytes(self) -> bytes:
        """The binary form: length-prefixed JSON metadata + raw arrays.

        Per thread the blob holds the kinds byte array followed by the four
        8-byte operand arrays, in the host's byte order (recorded in the
        metadata); the metadata carries every scalar field plus the
        per-thread op counts :meth:`from_bytes` slices the arrays apart by.
        """
        meta = {
            "schema": TRACE_SCHEMA,
            "byteorder": sys.byteorder,
            "workload": self.workload_name,
            "n_threads": self.n_threads,
            "max_ops_per_thread": self.max_ops_per_thread,
            "page_size": self.page_size,
            "footprint": self.footprint,
            "regions": [list(r) for r in self.regions],
            "barrier_groups": self.barrier_groups,
            "op_mnemonics": self.op_mnemonics,
            "fingerprint": self.fingerprint,
            "counts": [len(k) for k in self.kinds],
        }
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        parts = [_HEADER.pack(len(meta_bytes)), meta_bytes]
        for tid in range(self.n_threads):
            parts.append(self.kinds[tid].tobytes())
            for column in (self.a0, self.a1, self.a2, self.a3):
                parts.append(column[tid].tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data) -> "CompiledTrace":
        """Decode :meth:`to_bytes` output (any bytes-like object).

        A short, torn or foreign blob (another schema or byte order)
        raises :class:`TraceError`, so a reader can fall back to a fresh
        capture.
        """
        data = memoryview(data)
        try:
            (meta_len,) = _HEADER.unpack_from(data)
            meta = json.loads(bytes(data[_HEADER.size:_HEADER.size + meta_len]))
            schema = meta.get("schema")
        except (struct.error, ValueError, AttributeError) as exc:
            raise TraceError(f"unreadable trace blob: {exc}") from exc
        if schema != TRACE_SCHEMA or meta.get("byteorder") != sys.byteorder:
            raise TraceError(f"unknown trace schema {schema!r} "
                             f"({meta.get('byteorder')}-endian)")
        offset = _HEADER.size + meta_len
        try:
            counts = meta["counts"]
            expected = offset + _OP_BYTES * sum(counts)
        except (KeyError, TypeError) as exc:
            raise TraceError(f"trace metadata lacks op counts: {exc}") from exc
        if len(data) != expected:
            raise TraceError(f"trace blob holds {len(data)} bytes, its "
                             f"metadata describes {expected}")
        kinds, a0, a1, a2, a3 = [], [], [], [], []
        for n in counts:
            k = array("b")
            k.frombytes(data[offset:offset + n])
            offset += n
            kinds.append(k)
            for column in (a0, a1, a2, a3):
                a = array("q")
                a.frombytes(data[offset:offset + 8 * n])
                offset += 8 * n
                column.append(a)
        try:
            return cls(
                workload_name=meta["workload"],
                n_threads=meta["n_threads"],
                max_ops_per_thread=meta["max_ops_per_thread"],
                page_size=meta["page_size"],
                footprint=meta["footprint"],
                regions=[tuple(r) for r in meta["regions"]],
                barrier_groups=meta["barrier_groups"],
                op_mnemonics=meta["op_mnemonics"],
                kinds=kinds, a0=a0, a1=a1, a2=a2, a3=a3,
                fingerprint=meta["fingerprint"],
            )
        except KeyError as exc:
            raise TraceError(f"trace metadata lacks {exc}") from exc


def trace_fingerprint(key: Dict) -> str:
    """Stable digest over a capture's identifying inputs."""
    payload = json.dumps(key, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _content_digest(footprint: int, regions: List[Tuple[str, int, int]],
                    barrier_groups: List[int], op_mnemonics: List[str],
                    columns: Tuple[List[array], ...]) -> str:
    """Digest of a capture's content: layout, barrier groups, PIM op
    mnemonics and every per-thread column's bytes."""
    digest = hashlib.sha256(json.dumps(
        [footprint, regions, barrier_groups, op_mnemonics]).encode("utf-8"))
    for column in columns:
        for values in column:
            digest.update(len(values).to_bytes(8, "little"))
            digest.update(values.tobytes())
    return digest.hexdigest()


def capture_trace(workload, n_threads: int,
                  max_ops_per_thread: Optional[int] = None,
                  page_size: int = 4096,
                  key: Optional[Dict] = None) -> CompiledTrace:
    """Run ``workload``'s functional algorithm once; compile its streams.

    The capture consumes the per-thread generators round-robin with the
    engine's barrier semantics: the per-thread op cap is checked before
    every ``next()``, and threads park at barriers until every active
    thread of the group arrives.  This order is the functional
    interleaving of every run: later phases that depend on earlier phases
    of *other* threads (level-synchronous BFS, PageRank's convergence
    deltas) see exactly the barrier-ordered state, and a workload whose
    threads read each other's writes *within* a phase (SP, WCC) sees the
    writes this order makes.  Every replay of the trace, on any machine,
    simulates that stream.

    ``page_size`` must match the config the trace will replay under: the
    workload lays out its regions in a fresh address space with this page
    size.  ``key`` (optional) identifies the capture inputs (workload
    class, params, seed) for the trace cache fingerprint; without it the
    fingerprint is derived from the captured content itself.
    """
    # Deferred import: workloads.base imports nothing from here, but the
    # AddressSpace lives next to the page table the addresses feed.
    from repro.vm.address_space import AddressSpace

    space = AddressSpace(page_size=page_size)
    workload.prepare(space)
    generators = workload.make_threads(n_threads)
    if len(generators) != n_threads:
        raise TraceError(
            f"workload produced {len(generators)} threads, expected {n_threads}")
    groups = list(workload.barrier_groups(n_threads))

    kinds = [array("b") for _ in range(n_threads)]
    a0 = [array("q") for _ in range(n_threads)]
    a1 = [array("q") for _ in range(n_threads)]
    a2 = [array("q") for _ in range(n_threads)]
    a3 = [array("q") for _ in range(n_threads)]
    op_index: Dict[str, int] = {}
    op_mnemonics: List[str] = []

    group_active: Dict[int, int] = defaultdict(int)
    for group in groups:
        group_active[group] += 1
    barrier_waiting: Dict[int, List[int]] = defaultdict(list)
    ops_done = [0] * n_threads
    runnable = deque(range(n_threads))
    cap = max_ops_per_thread

    while runnable:
        tid = runnable.popleft()
        gen = generators[tid]
        t_kinds, t_a0, t_a1, t_a2, t_a3 = (
            kinds[tid], a0[tid], a1[tid], a2[tid], a3[tid])
        done = ops_done[tid]
        finished = False
        while True:
            if cap is not None and done >= cap:
                finished = True
                break
            try:
                op = next(gen)
            except StopIteration:
                finished = True
                break
            done += 1
            kind = op.kind
            t_kinds.append(kind)
            if kind == KIND_LOAD:
                t_a0.append(op.addr)
                t_a1.append(1 if op.dep else 0)
                t_a2.append(0)
                t_a3.append(0)
            elif kind == KIND_PEI:
                mnemonic = op.op.mnemonic
                index = op_index.get(mnemonic)
                if index is None:
                    index = len(op_mnemonics)
                    op_index[mnemonic] = index
                    op_mnemonics.append(mnemonic)
                chain = op.chain
                if chain is None:
                    encoded_chain = 0
                elif isinstance(chain, int) and chain >= 0:
                    encoded_chain = chain + 1
                else:
                    raise TraceError(
                        f"chain id {chain!r} is not a small non-negative "
                        "int; the stream cannot be compiled")
                t_a0.append(op.addr)
                t_a1.append(index)
                t_a2.append(1 if op.wait_output else 0)
                t_a3.append(encoded_chain)
            elif kind == KIND_COMPUTE:
                t_a0.append(op.insts)
                t_a1.append(0)
                t_a2.append(0)
                t_a3.append(0)
            elif kind == KIND_STORE:
                t_a0.append(op.addr)
                t_a1.append(0)
                t_a2.append(0)
                t_a3.append(0)
            elif kind == KIND_FENCE:
                t_a0.append(0)
                t_a1.append(0)
                t_a2.append(0)
                t_a3.append(0)
            elif kind == KIND_BARRIER:
                group = op.group
                t_a0.append(group)
                t_a1.append(0)
                t_a2.append(0)
                t_a3.append(0)
                waiting = barrier_waiting[group]
                waiting.append(tid)
                if len(waiting) == group_active[group]:
                    runnable.extend(waiting)
                    barrier_waiting[group] = []
                break
            else:
                raise TraceError(f"unknown operation kind {kind}")
        ops_done[tid] = done
        if finished:
            group = groups[tid]
            group_active[group] -= 1
            waiting = barrier_waiting[group]
            if waiting and len(waiting) == group_active[group]:
                runnable.extend(waiting)
                barrier_waiting[group] = []

    if any(barrier_waiting.values()):
        raise TraceError(
            "barrier deadlock: threads still parked when the capture drained")

    regions = [(region.name, region.base, region.size)
               for region in space.regions.values()]
    if key is not None:
        base_key = dict(key)
    else:
        # No identifying inputs: key on what was captured, so two inputs
        # of one workload never share a fingerprint (or a ColumnPlan).
        base_key = {"workload": workload.name,
                    "content": _content_digest(
                        space.footprint, regions, groups, op_mnemonics,
                        (kinds, a0, a1, a2, a3))}
    base_key.update({
        "n_threads": n_threads,
        "max_ops_per_thread": max_ops_per_thread,
        "page_size": page_size,
    })
    return CompiledTrace(
        workload_name=workload.name,
        n_threads=n_threads,
        max_ops_per_thread=max_ops_per_thread,
        page_size=page_size,
        footprint=space.footprint,
        regions=regions,
        barrier_groups=groups,
        op_mnemonics=op_mnemonics,
        kinds=kinds, a0=a0, a1=a1, a2=a2, a3=a3,
        fingerprint=trace_fingerprint(base_key),
    )
