"""Substrate-independent core of the simulated MPI layer.

The communicator API (:class:`CommBase`) is implemented twice:

* :class:`repro.parallel.simmpi.SimComm` — ranks are threads of one
  process sharing a mailbox world (the default: deterministic, fast to
  spawn, ideal for tests);
* :class:`repro.parallel.procmpi.ProcComm` — ranks are real forked
  processes exchanging envelopes through a parent-side router, with bulk
  array payloads carried in POSIX shared memory (real wall-clock
  parallelism: no GIL).

Everything that must behave *identically* on both substrates lives here:
the collective algorithms (binomial-tree bcast/reduce, gather-based
barrier, pairwise-exchange alltoall), communicator-context tag stamping,
``split(color, key)`` bookkeeping, operation labeling for
:class:`CommStats`, crash-injection scoping, and the structured failure
vocabulary (:class:`CommError`, :class:`DeadlockReport`).  Because the
collectives are layered on the two abstract primitives ``_send`` and
``_recv``, a payload takes the same route — same message count, same
reduction tree, same operation order — on threads and on processes, which
is what makes the cross-substrate bitwise-equivalence suite
(``tests/test_substrate_equivalence.py``) meaningful.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

ANY_SOURCE = -1
ANY_TAG = -1
_CTX_SHIFT = 36                # communicator-context bits above the tag space:
                               # absolute tag = (ctx << _CTX_SHIFT) + tag, so
                               # sub-communicator traffic can never match the
                               # parent's (collective bases stop at 5 << 30)
_DEFAULT_TIMEOUT = 120.0       # seconds before declaring a hang outside pytest
_PYTEST_TIMEOUT = 10.0         # default under pytest: a genuine bug should not
                               # cost the suite two minutes of sleeping
_POLL_SLICE = 0.05             # receiver wake-up cadence for failure checks

_TAG_BCAST = 1 << 30
_TAG_REDUCE = 2 << 30
_TAG_GATHER = 3 << 30
_TAG_SCATTER = 4 << 30
_TAG_ALLTOALL = 5 << 30

_SUBSTRATES = ("thread", "process")


def resolve_substrate(substrate: str | None = None) -> str:
    """Resolve the communicator substrate for a new world.

    An explicit ``substrate`` argument wins; otherwise the ``FOAM_COMM``
    environment variable decides (default ``"thread"``).
    """
    sub = substrate or os.environ.get("FOAM_COMM", "thread")
    if sub not in _SUBSTRATES:
        raise CommError(
            f"unknown communicator substrate {sub!r}; pick one of "
            f"{_SUBSTRATES} (via substrate= or FOAM_COMM)")
    return sub


def _default_timeout() -> float:
    """Resolve the default communication timeout for this process.

    ``REPRO_SIMMPI_TIMEOUT`` overrides; otherwise the default is low when
    running under pytest.  The timeout is a last-resort backstop — genuine
    deadlocks are caught by the wait-for-graph detector long before it.
    """
    env = os.environ.get("REPRO_SIMMPI_TIMEOUT")
    if env:
        return float(env)
    if os.environ.get("PYTEST_CURRENT_TEST") or "pytest" in sys.modules:
        return _PYTEST_TIMEOUT
    return _DEFAULT_TIMEOUT


class CommError(RuntimeError):
    """Raised on misuse of the communicator (bad rank, dead peer, timeout)."""


class RankCrashedError(CommError):
    """Raised on the victim rank by an injected ``FaultPlan.crash`` rule."""


@dataclass(frozen=True)
class BlockedRank:
    """One blocked rank in a :class:`DeadlockReport`."""

    rank: int
    op: str                    # operation label: recv, barrier, alltoall, ...
    peer: int                  # source rank it waits on; ANY_SOURCE if wildcard
    tag: int                   # tag it waits on; ANY_TAG if wildcard
    waited: float              # seconds spent blocked when diagnosed

    def __str__(self) -> str:
        peer = "ANY" if self.peer == ANY_SOURCE else self.peer
        tag = "ANY" if self.tag == ANY_TAG else self.tag
        return (f"rank {self.rank}: blocked in {self.op}(source={peer}, "
                f"tag={tag}) for {self.waited:.2f}s")


@dataclass(frozen=True)
class DeadlockReport:
    """Structured diagnosis of a wedged world.

    ``blocked`` lists every live blocked rank with its operation, peer and
    tag; ``cycle`` is a wait-for cycle if one exists (``r`` waits on the
    next entry, the last waits on the first); ``dead`` lists crashed ranks
    implicated in the hang.  The report is a plain frozen dataclass, so a
    process-substrate world can marshal it back to the parent (and to
    every sibling rank) by pickling.
    """

    blocked: tuple[BlockedRank, ...]
    cycle: tuple[int, ...] = ()
    dead: tuple[int, ...] = ()

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(b.rank for b in self.blocked)

    def __str__(self) -> str:
        lines = [f"deadlock among {len(self.blocked)} rank(s):"]
        lines += [f"  {b}" for b in self.blocked]
        if self.cycle:
            lines.append("  wait-for cycle: "
                         + " -> ".join(str(r) for r in self.cycle)
                         + f" -> {self.cycle[0]}")
        if self.dead:
            lines.append("  crashed rank(s): "
                         + ", ".join(str(r) for r in self.dead))
        return "\n".join(lines)


class DeadlockError(CommError):
    """A diagnosed deadlock; ``.report`` holds the :class:`DeadlockReport`."""

    def __init__(self, report: DeadlockReport):
        super().__init__(str(report))
        self.report = report

    def __reduce__(self):
        # Default exception pickling would rebuild from the stringified
        # args, losing the structured report; rebuild from the report.
        return (DeadlockError, (self.report,))


@dataclass
class CommStats:
    """Per-rank message/byte/operation counters.

    ``op_*`` dictionaries are keyed by the *outermost* operation label
    active when traffic moved — a send inside ``bcast`` inside ``barrier``
    is charged to ``"barrier"`` — so transports like the spectral transpose
    can label their traffic (``"transpose.forward"``) and the performance
    model can be calibrated from measured volumes
    (:func:`repro.perf.costmodel.transpose_bytes_from_stats`).
    """

    rank: int
    msgs_sent: int = 0
    bytes_sent: int = 0
    msgs_recv: int = 0
    bytes_recv: int = 0
    op_calls: dict[str, int] = field(default_factory=dict)   # label -> # calls
    op_msgs: dict[str, int] = field(default_factory=dict)    # label -> msgs sent
    op_bytes: dict[str, int] = field(default_factory=dict)   # label -> bytes sent
    peer_msgs: dict[int, int] = field(default_factory=dict)  # dest -> msgs sent
    peer_bytes: dict[int, int] = field(default_factory=dict)  # dest -> bytes sent

    def note_call(self, op: str) -> None:
        self.op_calls[op] = self.op_calls.get(op, 0) + 1

    def note_send(self, op: str, dest: int, nbytes: int) -> None:
        self.msgs_sent += 1
        self.bytes_sent += nbytes
        self.op_msgs[op] = self.op_msgs.get(op, 0) + 1
        self.op_bytes[op] = self.op_bytes.get(op, 0) + nbytes
        self.peer_msgs[dest] = self.peer_msgs.get(dest, 0) + 1
        self.peer_bytes[dest] = self.peer_bytes.get(dest, 0) + nbytes

    def note_recv(self, nbytes: int) -> None:
        self.msgs_recv += 1
        self.bytes_recv += nbytes

    def bytes_for(self, prefix: str) -> int:
        """Total bytes sent under operation labels starting with ``prefix``."""
        return sum(v for k, v in self.op_bytes.items() if k.startswith(prefix))

    def msgs_for(self, prefix: str) -> int:
        """Total messages sent under labels starting with ``prefix``."""
        return sum(v for k, v in self.op_msgs.items() if k.startswith(prefix))

    @classmethod
    def merge(cls, stats: Sequence["CommStats"], rank: int = -1) -> "CommStats":
        """Sum per-rank counters into one world-level :class:`CommStats`.

        This is the marshalling path for substrates whose ranks live in
        child processes: each rank's counters come back to the parent by
        pickling (they are plain dataclasses) and merge here, so
        profiler/eventsim calibration sees the same world totals no
        matter which substrate measured them.  ``rank=-1`` marks the
        result as a merged, not per-rank, counter.
        """
        out = cls(rank=rank)
        for s in stats:
            out.msgs_sent += s.msgs_sent
            out.bytes_sent += s.bytes_sent
            out.msgs_recv += s.msgs_recv
            out.bytes_recv += s.bytes_recv
            for d, src in ((out.op_calls, s.op_calls),
                           (out.op_msgs, s.op_msgs),
                           (out.op_bytes, s.op_bytes),
                           (out.peer_msgs, s.peer_msgs),
                           (out.peer_bytes, s.peer_bytes)):
                for key, n in src.items():
                    d[key] = d.get(key, 0) + n
        return out


def _find_cycle(edges: dict[int, list[int]]) -> tuple[int, ...]:
    """Find one cycle in a wait-for graph; () if none."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {r: WHITE for r in edges}
    for start in edges:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(edges[start]))]
        color[start] = GREY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in color:
                    continue
                if color[nxt] == GREY:
                    return tuple(path[path.index(nxt):])
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(edges[nxt])))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return ()


def _match(src: int, tag: int, want_src: int, want_tag: int,
           ctx: int = 0) -> bool:
    """Envelope match: ``tag`` is absolute (context-stamped), ``want_tag``
    communicator-local.  ANY_TAG still only matches within the context."""
    if want_src not in (ANY_SOURCE, src):
        return False
    if want_tag == ANY_TAG:
        return tag >> _CTX_SHIFT == ctx
    return tag == (ctx << _CTX_SHIFT) + want_tag


def _copy_payload(obj: Any) -> Any:
    """Copy send buffers so the sender may safely reuse them (MPI semantics)."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(_copy_payload(o) for o in obj)
    if isinstance(obj, list):
        return [_copy_payload(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


def _payload_nbytes(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_payload_nbytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_payload_nbytes(v) for v in obj.values())
    return 64  # rough envelope for small scalars/objects


def _combine(a: Any, b: Any, op: str) -> Any:
    if op == "sum":
        return a + b
    if op == "max":
        return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)
    if op == "min":
        return np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b)
    if op == "prod":
        return a * b
    raise CommError(f"unsupported reduction op {op!r}")


class CommBase:
    """Shared communicator algorithms; substrates provide the transport.

    Mirrors the mpi4py API subset the model uses.  Lower-case methods move
    arbitrary Python objects; arrays are passed by reference after a
    defensive copy at send time (MPI semantics: the send buffer may be
    reused by the sender immediately after ``send`` returns).

    Substrate hooks (all operate on *world* ranks / absolute tags):

    * ``_send(obj, dest, tag)`` / ``_recv(source, tag)`` — the blocking
      point-to-point primitives everything else is layered on;
    * ``_crash_message(op)`` — consult the world's ``FaultPlan`` for an
      injected crash at this rank's current top-level operation count;
    * ``_allocate_context(key)`` — world-unique context id for a split
      group (same key must yield the same id on every member);
    * ``_spawn(new_rank, group, ctx)`` — construct the sub-communicator.
    """

    def __init__(self, rank: int, size: int, *,
                 timeout: float | None = None,
                 group: Sequence[int] | None = None, ctx: int = 0,
                 stats: CommStats | None = None):
        if not 0 <= rank < size:
            raise CommError(f"rank {rank} out of range for world size {size}")
        self.rank = rank
        self.size = size
        self._timeout = _default_timeout() if timeout is None else timeout
        # Sub-communicator plumbing: ``group`` maps local -> world ranks
        # (None = identity, the world communicator fast path); ``ctx`` is
        # the context id stamped into message tags.  Liveness, deadlock
        # reports and mailboxes always operate on world ranks.
        self._group = list(group) if group is not None else None
        self._ctx = ctx
        self._wrank = rank if self._group is None else self._group[rank]
        self.stats = stats if stats is not None else CommStats(rank=rank)
        # Collective sequence number: every rank calls collectives in the
        # same order, so stamping the tag with a per-call counter keeps
        # back-to-back collectives from consuming each other's messages.
        self._collective_seq = 0
        self._split_seq = 0
        self._op_stack: list[str] = []
        self._op_count = 0

    # ------------------------------------------------------------------
    # substrate hooks
    # ------------------------------------------------------------------
    def _send(self, obj: Any, dest: int, tag: int) -> None:
        raise NotImplementedError

    def _recv(self, source: int, tag: int) -> Any:
        raise NotImplementedError

    def _crash_message(self, op: str) -> str | None:
        raise NotImplementedError

    def _allocate_context(self, key: tuple) -> int:
        raise NotImplementedError

    def _spawn(self, new_rank: int, group: list[int], ctx: int) -> "CommBase":
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _to_world(self, rank: int) -> int:
        return rank if self._group is None else self._group[rank]

    @contextmanager
    def _op(self, name: str):
        """Operation scope: labels traffic and triggers injected crashes.

        Only the *outermost* scope counts toward ``op_calls`` and the crash
        op counter, so ``allreduce`` is one op even though it layers on
        ``reduce`` + ``bcast``.
        """
        outermost = not self._op_stack
        self._op_stack.append(name)
        try:
            if outermost:
                self.stats.note_call(name)
                self._op_count += 1
                msg = self._crash_message(name)
                if msg is not None:
                    raise RankCrashedError(msg)
            yield
        finally:
            self._op_stack.pop()

    def _check_send_args(self, dest: int) -> None:
        if not isinstance(dest, (int, np.integer)):
            # Catch swapped send(dest, obj) arguments with a clear error
            # instead of an unhashable-type failure inside the stats layer.
            raise TypeError(
                f"send: dest must be an integer rank, got "
                f"{type(dest).__name__} — signature is send(obj, dest, tag)")
        if not 0 <= dest < self.size:
            raise CommError(f"send: bad destination rank {dest}")

    def _check_recv_args(self, source: int) -> None:
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommError(f"recv: bad source rank {source}")

    def _peer_liveness_error(self, source: int, tag: int, op: str,
                             dead: dict, finished: set) -> None:
        """Fail fast when the awaited peer(s) can never send.

        ``source`` is communicator-local; liveness is tracked (and
        reported) in world ranks.  ``dead`` maps world rank ->
        ``(origin_rank, reason)``; ``finished`` is a set of world ranks.
        """
        if source != ANY_SOURCE:
            src_w = self._to_world(source)
            if src_w in dead:
                origin, reason = dead[src_w]
                err = CommError(
                    f"rank {self._wrank}: {op}(source={src_w}, tag={tag}) failed "
                    f"— rank {origin} crashed ({reason})")
                err.origin_rank = origin
                raise err
            if src_w in finished:
                raise CommError(
                    f"rank {self._wrank}: {op}(source={src_w}, tag={tag}) can "
                    f"never complete — rank {src_w} already finished")
            return
        others = [self._to_world(r) for r in range(self.size) if r != self.rank]
        if others and all(r in finished or r in dead for r in others):
            dead_peers = sorted(r for r in others if r in dead)
            if dead_peers:
                origin, reason = dead[dead_peers[0]]
                err = CommError(
                    f"rank {self._wrank}: {op}(source=ANY, tag={tag}) failed "
                    f"— rank {origin} crashed ({reason})")
                err.origin_rank = origin
                raise err
            raise CommError(
                f"rank {self._wrank}: {op}(source=ANY, tag={tag}) can never "
                f"complete — all peers already finished")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send (buffered: never deadlocks by itself)."""
        with self._op("send"):
            self._send(obj, dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive matching (source, tag); wildcards allowed."""
        with self._op("recv"):
            return self._recv(source, tag)

    def sendrecv(self, obj: Any, dest: int, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive; safe for shift patterns (send is buffered)."""
        with self._op("sendrecv"):
            self._send(obj, dest, sendtag)
            return self._recv(source, recvtag)

    # ------------------------------------------------------------------
    # collectives (layered on point-to-point, as in a portable MPI)
    # ------------------------------------------------------------------
    def _collective_tag(self, base: int) -> int:
        self._collective_seq += 1
        return base + self._collective_seq

    def barrier(self) -> None:
        """Synchronize all ranks (gather-to-root then broadcast).

        Layering the barrier on point-to-point means a crashed or wedged
        peer is diagnosed by the same machinery as any other exchange: the
        deadlock report names the operation as ``barrier``.
        """
        with self._op("barrier"):
            self.gather(None, root=0)
            self.bcast(None, root=0)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast from root; returns the object on all ranks."""
        with self._op("bcast"):
            tag = self._collective_tag(_TAG_BCAST)
            rel = (self.rank - root) % self.size
            # Receive phase: a non-root rank receives from the parent at its
            # lowest set bit (standard MPICH binomial tree).
            mask = 1
            while mask < self.size:
                if rel & mask:
                    obj = self._recv((rel - mask + root) % self.size, tag)
                    break
                mask <<= 1
            # Send phase: forward to children at all lower bits, descending.
            mask >>= 1
            while mask > 0:
                if rel + mask < self.size:
                    self._send(obj, (rel + mask + root) % self.size, tag)
                mask >>= 1
            return obj

    def reduce(self, obj: Any, op: str = "sum", root: int = 0) -> Any:
        """Binomial-tree reduction to root; returns result on root, None elsewhere."""
        with self._op("reduce"):
            tag = self._collective_tag(_TAG_REDUCE)
            rel = (self.rank - root) % self.size
            acc = obj
            mask = 1
            while mask < self.size:
                if rel & mask:
                    self._send(acc, (rel - mask + root) % self.size, tag)
                    break
                partner = rel + mask
                if partner < self.size:
                    other = self._recv((partner + root) % self.size, tag)
                    acc = _combine(acc, other, op)
                mask <<= 1
            return acc if self.rank == root else None

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        """Reduce-then-broadcast allreduce."""
        with self._op("allreduce"):
            result = self.reduce(obj, op=op, root=0)
            return self.bcast(result, root=0)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank into a list on root (rank order)."""
        with self._op("gather"):
            tag = self._collective_tag(_TAG_GATHER)
            if self.rank == root:
                out: list[Any] = [None] * self.size
                out[root] = _copy_payload(obj)
                for _ in range(self.size - 1):
                    src, payload = self._recv(ANY_SOURCE, tag)
                    out[src] = payload
                return out
            self._send((self.rank, obj), root, tag)
            return None

    def allgather(self, obj: Any) -> list[Any]:
        """Gather to root then broadcast the full list."""
        with self._op("allgather"):
            full = self.gather(obj, root=0)
            return self.bcast(full, root=0)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a sequence of world-size objects from root."""
        with self._op("scatter"):
            tag = self._collective_tag(_TAG_SCATTER)
            if self.rank == root:
                if objs is None or len(objs) != self.size:
                    raise CommError(f"scatter: root must supply {self.size} items")
                for dest in range(self.size):
                    if dest != root:
                        self._send(objs[dest], dest, tag)
                return _copy_payload(objs[root])
            return self._recv(root, tag)

    def alltoall(self, objs: Sequence[Any], op: str = "alltoall") -> list[Any]:
        """Personalized all-to-all via pairwise exchange rounds.

        This is the communication kernel of the parallel spectral transform
        (Foster & Worley 1997): each rank sends a distinct block to every
        other rank.  ``op`` lets transports label their traffic (e.g.
        ``"transpose.forward"``) in deadlock reports and :class:`CommStats`.
        """
        if len(objs) != self.size:
            raise CommError(f"alltoall: need {self.size} items, got {len(objs)}")
        with self._op(op):
            tag = self._collective_tag(_TAG_ALLTOALL)
            out: list[Any] = [None] * self.size
            out[self.rank] = _copy_payload(objs[self.rank])
            for step in range(1, self.size):
                dest = (self.rank + step) % self.size
                src = (self.rank - step) % self.size
                self._send(objs[dest], dest, tag)
                out[src] = self._recv(src, tag)
            return out

    # ------------------------------------------------------------------
    # sub-communicators
    # ------------------------------------------------------------------
    def split(self, color: int | None, key: int | None = None) -> "CommBase | None":
        """Partition the communicator, MPI_Comm_split style (collective).

        Ranks passing the same ``color`` form a new communicator, ordered
        by ``(key, rank)`` (``key`` defaults to the current rank, so rank
        order is preserved).  ``color=None`` opts out, as MPI_UNDEFINED
        does: the rank participates in the collective but gets ``None``.

        The sub-communicator exchanges messages in its own tag context, so
        its traffic (including collectives) can never match the parent's or
        a sibling group's even with equal tags.  Deadlock reports, crash
        diagnostics and :class:`CommStats` keep identifying ranks by their
        *world* rank; the stats object is shared with the parent so one
        counter sees a rank's total traffic.
        """
        with self._op("split"):
            entries = self.allgather(
                (color, self.rank if key is None else key, self.rank))
        self._split_seq += 1
        if color is None:
            return None
        members = sorted((k, r) for c, k, r in entries if c == color)
        group = [self._to_world(r) for _, r in members]
        new_rank = [r for _, r in members].index(self.rank)
        ctx = self._allocate_context(
            ("split", self._ctx, self._split_seq, color))
        return self._spawn(new_rank, group, ctx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"
