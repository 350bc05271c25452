"""Compiled traces: the interpreter's event stream in columnar form.

A :class:`CompiledTrace` lowers a list of trace events (see
:mod:`repro.trace.events`) into four parallel columns — a kind byte plus
three 64-bit integer fields per event — with memory-reference ids interned
into a side table.  The representation is:

* **compact** — ~25 bytes per event in ``array`` storage instead of a
  Python object per event, so a full trace for one workload is a couple
  of megabytes and cheap to keep resident;
* **loss-free** — :meth:`CompiledTrace.events` reconstructs an event
  stream equal (field by field, in order) to the source stream, which the
  trace-store correctness tests assert for every workload;
* **replayable without objects** — the simulator's fast loop,
  :meth:`repro.cpu.core.Core.run_span`, iterates the plain ``array``
  columns directly, skipping per-event object construction and
  attribute loads.

Column layout per event kind:

=====================  ====  =========  =========  ==========
event                  kind  f0         f1         f2
=====================  ====  =========  =========  ==========
MemRef (load)          0     ref index  addr       size
MemRef (store)         1     ref index  addr       size
Ops                    2     count      0          0
LoopBound              3     bound      0          0
SetIndirectBase        4     base_addr  elem_size  0
IndirectPrefetch       5     base_addr  elem_size  index_addr
=====================  ====  =========  =========  ==========

``ref index`` points into :attr:`CompiledTrace.ref_names`, the interned
static reference ids (the hint-table keys); :meth:`resolve_hints` turns a
hint table into a list aligned with that table so replay does one list
index instead of one dict lookup per reference.

The on-disk form (:meth:`save`/:meth:`load`) is a small JSON header line
followed by the column bytes in an explicit little-endian fixed-width
encoding (1-byte kinds, 8-byte fields), so files written on one machine
load on any other — a big-endian host byteswaps on save and on load.
:mod:`repro.trace.store` keys such files by trace content identity.
"""

import json
import sys
from array import array

from repro.trace.events import (
    IndirectPrefetch,
    LoopBound,
    MemRef,
    Ops,
    SetIndirectBase,
)

#: Event-kind codes (the ``kinds`` column).  Loads and stores are distinct
#: kinds so ``is_store`` needs no extra column; every ``kind <= K_STORE``
#: is a memory reference.
K_LOAD = 0
K_STORE = 1
K_OPS = 2
K_BOUND = 3
K_SETBASE = 4
K_INDIRECT = 5

#: Bumped whenever the columnar layout or the byte encoding changes; part
#: of the on-disk header, so stale files from older layouts read as cache
#: misses.  Version 2 switched the column bytes from host byte order to
#: explicit little-endian.
FORMAT_VERSION = 2

_MAGIC = "repro-trace"

#: On-disk element widths, independent of the host's array itemsizes.
_KIND_WIDTH = 1
_FIELD_WIDTH = 8

#: True when this host stores integers big-endian and must byteswap
#: between memory and the little-endian disk form.  Module-level so the
#: cross-endian tests can exercise both paths on any host.
_SWAP = sys.byteorder == "big"


def decode_directive(kind, f0, f1, f2):
    """The directive event one row of a kind above ``K_OPS`` encodes."""
    if kind == K_BOUND:
        return LoopBound(f0)
    if kind == K_SETBASE:
        return SetIndirectBase(f0, f1)
    return IndirectPrefetch(f0, f1, f2)


def _column_bytes(arr, width, swap):
    """``arr``'s bytes in little-endian order, ``width`` bytes/element."""
    if arr.itemsize != width:
        raise ValueError(
            "array itemsize %d does not match the %d-byte disk format"
            % (arr.itemsize, width))
    if swap and width > 1:
        swapped = array(arr.typecode, arr)
        swapped.byteswap()
        return swapped.tobytes()
    return arr.tobytes()


def _read_column(fh, typecode, count, width, swap):
    """Read one little-endian column back into a host-order array."""
    col = array(typecode)
    if col.itemsize != width:
        raise ValueError(
            "array itemsize %d does not match the %d-byte disk format"
            % (col.itemsize, width))
    col.frombytes(fh.read(count * width))
    if swap and width > 1:
        col.byteswap()
    return col


class CompiledTrace:
    """One trace, lowered to parallel columns.  Immutable once built."""

    __slots__ = ("kinds", "f0", "f1", "f2", "ref_names", "ref_count")

    def __init__(self, kinds, f0, f1, f2, ref_names, ref_count):
        self.kinds = kinds
        self.f0 = f0
        self.f1 = f1
        self.f2 = f2
        self.ref_names = ref_names
        #: Number of memory-reference events (loads + stores).
        self.ref_count = ref_count

    def __len__(self):
        return len(self.kinds)

    def __repr__(self):
        return "CompiledTrace(%d events, %d refs, %d ref ids)" % (
            len(self.kinds), self.ref_count, len(self.ref_names)
        )

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events):
        """Lower an event list (or iterable) into columnar form."""
        kinds = array("b")
        f0 = array("q")
        f1 = array("q")
        f2 = array("q")
        ref_names = []
        intern = {}
        ref_count = 0
        for event in events:
            etype = event.__class__
            if etype is MemRef:
                ref_id = event.ref_id
                idx = intern.get(ref_id)
                if idx is None:
                    idx = intern[ref_id] = len(ref_names)
                    ref_names.append(ref_id)
                kinds.append(K_STORE if event.is_store else K_LOAD)
                f0.append(idx)
                f1.append(event.addr)
                f2.append(event.size)
                ref_count += 1
            elif etype is Ops:
                kinds.append(K_OPS)
                f0.append(event.count)
                f1.append(0)
                f2.append(0)
            elif etype is LoopBound:
                kinds.append(K_BOUND)
                f0.append(event.bound)
                f1.append(0)
                f2.append(0)
            elif etype is SetIndirectBase:
                kinds.append(K_SETBASE)
                f0.append(event.base_addr)
                f1.append(event.elem_size)
                f2.append(0)
            elif etype is IndirectPrefetch:
                kinds.append(K_INDIRECT)
                f0.append(event.base_addr)
                f1.append(event.elem_size)
                f2.append(event.index_addr)
            else:
                raise TypeError("cannot lower trace event %r" % (event,))
        return cls(kinds, f0, f1, f2, ref_names, ref_count)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def events(self):
        """Yield reconstructed event objects, equal to the source stream."""
        ref_names = self.ref_names
        f0, f1, f2 = self.f0, self.f1, self.f2
        for i, kind in enumerate(self.kinds):
            if kind <= K_STORE:
                yield MemRef(ref_names[f0[i]], f1[i], f2[i],
                             is_store=(kind == K_STORE))
            elif kind == K_OPS:
                yield Ops(f0[i])
            else:
                yield decode_directive(kind, f0[i], f1[i], f2[i])

    def resolve_hints(self, hint_table):
        """Per-ref-index hint list: ``hints[f0[i]]`` replaces a dict get."""
        if hint_table is None:
            return [None] * len(self.ref_names)
        return [hint_table.get(name) for name in self.ref_names]

    # ------------------------------------------------------------------
    # Disk form
    # ------------------------------------------------------------------
    def save(self, path, _swap=None):
        """Write the trace to ``path`` (header line + little-endian bytes).

        The column bytes are written little-endian at fixed widths
        regardless of the host (``_swap`` overrides the host-order probe
        for the cross-endian tests), so the trace store's files are
        portable across machines.
        """
        if _swap is None:
            _swap = _SWAP
        header = {
            "magic": _MAGIC,
            "format": FORMAT_VERSION,
            "endian": "little",
            "widths": [_KIND_WIDTH, _FIELD_WIDTH],
            "events": len(self.kinds),
            "refs": self.ref_count,
            "ref_names": self.ref_names,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8"))
            fh.write(b"\n")
            fh.write(_column_bytes(self.kinds, _KIND_WIDTH, _swap))
            fh.write(_column_bytes(self.f0, _FIELD_WIDTH, _swap))
            fh.write(_column_bytes(self.f1, _FIELD_WIDTH, _swap))
            fh.write(_column_bytes(self.f2, _FIELD_WIDTH, _swap))

    @classmethod
    def load(cls, path, _swap=None):
        """Read a trace written by :meth:`save`.

        Raises ``ValueError`` on any malformed or stale-format file (the
        trace store turns that into a cache miss).  A big-endian host
        byteswaps the little-endian column bytes back to memory order
        (``_swap`` overrides the probe for the cross-endian tests).
        """
        if _swap is None:
            _swap = _SWAP
        with open(path, "rb") as fh:
            header_line = fh.readline()
            header = json.loads(header_line.decode("utf-8"))
            if header.get("magic") != _MAGIC:
                raise ValueError("not a compiled trace: %s" % path)
            if header.get("format") != FORMAT_VERSION:
                raise ValueError("stale trace format in %s" % path)
            if header.get("endian") != "little":
                raise ValueError("unknown byte order in %s" % path)
            if header.get("widths") != [_KIND_WIDTH, _FIELD_WIDTH]:
                raise ValueError("unknown element widths in %s" % path)
            count = header["events"]
            kinds = _read_column(fh, "b", count, _KIND_WIDTH, _swap)
            columns = [
                _read_column(fh, "q", count, _FIELD_WIDTH, _swap)
                for _ in range(3)
            ]
        if len(kinds) != count or any(len(c) != count for c in columns):
            raise ValueError("truncated compiled trace: %s" % path)
        return cls(kinds, columns[0], columns[1], columns[2],
                   header["ref_names"], header["refs"])

