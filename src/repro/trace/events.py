"""Trace event records.

The interpreter turns an IR program into a stream of these events; the
simulator replays them against the CPU model and memory hierarchy.

``MemRef``
    One dynamic load or store, tagged with the static reference id that
    carries its compiler hints.
``Ops``
    A count of non-memory instructions executed since the previous event
    (address arithmetic, branches, ALU work).  The CPU model retires these
    at the machine's issue width; they make IPC and prefetch timeliness
    meaningful.
``LoopBound``
    The special instruction of Section 3.3.2: conveys the enclosing loop's
    upper bound to the hardware so variable-size region prefetching can
    compute ``bound << coeff``.
``IndirectPrefetch``
    The explicit indirect prefetch instruction of Section 3.3.3: base
    address of ``a``, element size, and the address of the index block
    ``&b[i]``.  One instruction generates up to 16 prefetches.
"""


LOOP_OVERHEAD_OPS = 2
"""Branch + induction update charged per loop iteration."""


class MemRef:
    """One dynamic memory reference."""

    __slots__ = ("ref_id", "addr", "size", "is_store")

    def __init__(self, ref_id, addr, size=8, is_store=False):
        self.ref_id = ref_id
        self.addr = addr
        self.size = size
        self.is_store = is_store

    def __repr__(self):
        op = "ST" if self.is_store else "LD"
        return "%s %s @0x%x" % (op, self.ref_id, self.addr)


class Ops:
    """``count`` non-memory instructions between memory references."""

    __slots__ = ("count",)

    def __init__(self, count):
        self.count = count

    def __repr__(self):
        return "Ops(%d)" % self.count


class LoopBound:
    """Software directive: the current loop's trip count for size hints."""

    __slots__ = ("bound",)

    def __init__(self, bound):
        self.bound = bound

    def __repr__(self):
        return "LoopBound(%d)" % self.bound


class IndirectPrefetch:
    """Software directive: indirect prefetch instruction for ``a[b[i]]``."""

    __slots__ = ("base_addr", "elem_size", "index_addr")

    def __init__(self, base_addr, elem_size, index_addr):
        self.base_addr = base_addr
        self.elem_size = elem_size
        self.index_addr = index_addr

    def __repr__(self):
        return "IndirectPrefetch(base=0x%x, elem=%d, idx=0x%x)" % (
            self.base_addr,
            self.elem_size,
            self.index_addr,
        )


class SetIndirectBase:
    """Software directive for the alternate indirect encoding: set the
    prefetch engine's (base address, element size) register pair before
    a loop whose index loads carry the ``indirect`` hint bit."""

    __slots__ = ("base_addr", "elem_size")

    def __init__(self, base_addr, elem_size):
        self.base_addr = base_addr
        self.elem_size = elem_size

    def __repr__(self):
        return "SetIndirectBase(base=0x%x, elem=%d)" % (
            self.base_addr,
            self.elem_size,
        )
