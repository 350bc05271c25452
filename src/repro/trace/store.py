"""Trace persistence and the compiled-trace store.

Two layers live here:

**Text traces** (:func:`save_trace` / :func:`load_trace`) — one event per
line, human-readable, diff-friendly.  Useful for decoupling trace
generation from simulation and for inspecting what a workload does.

Format: one event per line.

====  =======================================  =====================
tag   fields                                   event
====  =======================================  =====================
L/S   ref_id addr size                         load / store
O     count                                    non-memory ops
B     bound                                    LoopBound directive
X     base_addr elem_size                      SetIndirectBase
I     base_addr elem_size index_addr           IndirectPrefetch
====  =======================================  =====================

Addresses are hex.  Note that a trace bakes in its software directives: a
trace captured with a GRP compile result contains the GRP binary's
directives, one captured without is the unhinted binary.

**The compiled-trace store** (:class:`TraceStore` / :class:`TraceKey`) —
a content-keyed cache of :class:`~repro.trace.compiled.CompiledTrace`
objects.  The trace a run consumes is fully determined by the
:class:`TraceKey` tuple (workload, scale, seed, reference budget, block
size, hint signature); schemes that share a key — every unhinted scheme,
for one — share a single trace generation per process, and the on-disk
layer shares it across processes and invocations.  Entries are salted
with the package version and the columnar format version, so either bump
invalidates every cached trace at once.

The on-disk layer lives under ``<dir>/`` with one ``.trace`` file per
key.  It is controlled by the ``REPRO_TRACE_CACHE`` environment variable:
unset, traces go to ``.repro-cache/traces`` (sharing the result cache's
root); a path names another directory; ``off`` (or ``0``) disables disk
persistence entirely, leaving the bounded in-process cache — which is
what ``--no-cache`` runs use, so "cold cache" timings still pay every
trace generation at least once per process.
"""

import hashlib
import json
import os
import pathlib
import tempfile
from collections import OrderedDict
from dataclasses import dataclass

from repro.trace.compiled import FORMAT_VERSION, CompiledTrace
from repro.trace.events import (
    IndirectPrefetch,
    LoopBound,
    MemRef,
    Ops,
    SetIndirectBase,
)

#: Environment variable controlling the on-disk trace cache: a directory
#: path, or ``off`` / ``0`` to disable disk persistence.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Default on-disk location (beside the result cache's entries).
DEFAULT_TRACE_DIR = os.path.join(".repro-cache", "traces")

#: In-process cache bound (traces, LRU).  At the default 40k-reference
#: budget a trace is a few MB, so the resident set stays modest.
DEFAULT_MEMORY_TRACES = 32


def save_trace(events, path):
    """Write an event stream to ``path``; returns the event count."""
    count = 0
    with open(path, "w") as fh:
        for event in events:
            fh.write(format_event(event))
            fh.write("\n")
            count += 1
    return count


def format_event(event):
    """Serialize one event to its line form."""
    if isinstance(event, MemRef):
        tag = "S" if event.is_store else "L"
        return "%s %s %x %d" % (tag, event.ref_id, event.addr, event.size)
    if isinstance(event, Ops):
        return "O %d" % event.count
    if isinstance(event, LoopBound):
        return "B %d" % event.bound
    if isinstance(event, SetIndirectBase):
        return "X %x %d" % (event.base_addr, event.elem_size)
    if isinstance(event, IndirectPrefetch):
        return "I %x %d %x" % (
            event.base_addr, event.elem_size, event.index_addr)
    raise TypeError("unknown trace event %r" % event)


def parse_event(line):
    """Parse one line back into an event."""
    parts = line.split()
    tag = parts[0]
    if tag in ("L", "S"):
        return MemRef(parts[1], int(parts[2], 16), int(parts[3]),
                      is_store=(tag == "S"))
    if tag == "O":
        return Ops(int(parts[1]))
    if tag == "B":
        return LoopBound(int(parts[1]))
    if tag == "X":
        return SetIndirectBase(int(parts[1], 16), int(parts[2]))
    if tag == "I":
        return IndirectPrefetch(int(parts[1], 16), int(parts[2]),
                                int(parts[3], 16))
    raise ValueError("bad trace line: %r" % line)


def load_trace(path):
    """Yield events from a trace file."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield parse_event(line)


# ----------------------------------------------------------------------
# Compiled-trace store
# ----------------------------------------------------------------------

def _version_salt():
    import repro  # late: repro's package init imports repro.sim
    return "repro-%s/trace-%d" % (repro.__version__, FORMAT_VERSION)


@dataclass(frozen=True)
class TraceKey:
    """Everything that determines one interpreter event stream.

    ``hint_sig`` is ``None`` for unhinted binaries; for hinted ones it is
    the tuple of compiler inputs that shape the emitted directives —
    ``(policy, variable_regions, indirect_mode, l2_size)`` — so two
    schemes whose binaries would be identical share one trace.

    ``base`` is the workload's address-space base.  Single-core runs
    build at 0 (the default, digest-compatible in spirit with prior
    keys); multi-core co-runs build core ``i`` at ``i << 36``, and every
    address in the trace shifts with it — two bases are two different
    event streams and must never alias in the store.
    """

    workload: str
    scale: float
    seed: int
    limit: int
    block_size: int
    hint_sig: tuple = None
    base: int = 0

    def digest(self):
        """Content hash naming this key's on-disk entry."""
        payload = json.dumps(
            [self.workload, self.scale, self.seed, self.limit,
             self.block_size, list(self.hint_sig) if self.hint_sig else None,
             self.base, _version_salt()],
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def hint_signature(policy, variable_regions, indirect_mode, l2_size):
    """The :class:`TraceKey` hint signature for a hinted compile."""
    return (policy, bool(variable_regions), indirect_mode, l2_size)


class TraceStore:
    """Bounded in-process + optional on-disk cache of compiled traces."""

    def __init__(self, disk_dir=None, max_memory_traces=DEFAULT_MEMORY_TRACES):
        """``disk_dir``: directory for ``.trace`` files, or ``None`` to
        resolve from ``$REPRO_TRACE_CACHE`` (``off`` disables disk), or
        ``False`` to force memory-only."""
        if disk_dir is None:
            env = os.environ.get(TRACE_CACHE_ENV, "")
            if env.lower() in ("off", "0", "no", "false"):
                disk_dir = False
            else:
                disk_dir = env or DEFAULT_TRACE_DIR
        self.disk_dir = pathlib.Path(disk_dir) if disk_dir else None
        self.max_memory_traces = max_memory_traces
        self._memory = OrderedDict()  # TraceKey -> CompiledTrace (LRU)
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def path_for(self, key):
        """The disk entry a key maps to (None when disk is disabled)."""
        if self.disk_dir is None:
            return None
        return self.disk_dir / ("%s.trace" % key.digest())

    def get(self, key):
        """Return the cached trace for ``key``, or None on a miss."""
        trace = self._memory.get(key)
        if trace is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            return trace
        path = self.path_for(key)
        if path is not None:
            try:
                trace = CompiledTrace.load(path)
            except (OSError, ValueError, KeyError):
                trace = None
            if trace is not None:
                self._remember(key, trace)
                self.disk_hits += 1
                return trace
        self.misses += 1
        return None

    def put(self, key, trace):
        """Store one trace in memory and (when enabled) on disk."""
        self._remember(key, trace)
        path = self.path_for(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            os.close(fd)
            trace.save(tmp)
            os.replace(tmp, str(path))
        except OSError:
            # Disk persistence is best-effort; the in-memory entry stands.
            try:
                os.unlink(tmp)
            except (OSError, UnboundLocalError):
                pass

    def get_or_build(self, key, builder):
        """Fetch ``key``, or build it with ``builder()`` and store it."""
        trace = self.get(key)
        if trace is None:
            trace = builder()
            self.put(key, trace)
        return trace

    # ------------------------------------------------------------------
    def _remember(self, key, trace):
        self._memory[key] = trace
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_traces:
            self._memory.popitem(last=False)

    def __len__(self):
        return len(self._memory)

    def __repr__(self):
        return ("TraceStore(%d in memory, disk=%s, %d/%d/%d "
                "mem-hit/disk-hit/miss)" % (
                    len(self._memory),
                    str(self.disk_dir) if self.disk_dir else "off",
                    self.memory_hits, self.disk_hits, self.misses,
                ))


_default_store = None


def default_store():
    """The process-wide store :func:`repro.sim.runner.execute` uses.

    Created lazily so ``$REPRO_TRACE_CACHE`` set before first use (e.g.
    by ``--no-cache``) takes effect; :func:`reset_default_store` rebuilds
    it after later environment changes.
    """
    global _default_store
    if _default_store is None:
        _default_store = TraceStore()
    return _default_store


def reset_default_store():
    """Discard the process-wide store (it is rebuilt on next use)."""
    global _default_store
    _default_store = None
