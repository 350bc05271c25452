"""IR interpreter: executes a program against the simulated address space
and emits the annotated memory-reference trace.

The interpreter plays the role of the instrumented Alpha binary in the
paper: it produces the dynamic reference stream, with each reference tagged
by its static reference id (the PC analogue the hint table is keyed by),
plus the software directives the GRP binary contains — ``LoopBound``
announcements for variable-size regions and ``IndirectPrefetch``
instructions, emitted each time the program crosses into a new cache block
of an index array.

Pointer-based structures are traversed through the address space's word
content store, so the addresses the trace visits are exactly the pointer
values the prefetch engines see when they scan fetched lines.

Two engines execute the same semantics.  :meth:`Interpreter.run` and
:meth:`Interpreter.run_events` walk the node tree: statement handlers are
plain methods that append event objects into one buffer.  The walker is
the oracle: ``reference=True`` runs and the stepped co-run replay its
events.  :meth:`Interpreter.run_columns`, the fast path every other run
takes, executes the program compiled to one Python function
(:mod:`repro.trace.codegen`) and must equal
``CompiledTrace.from_events(run_events(limit))`` byte for byte.

An interpreter runs once: its seeded RNG and pointer state are consumed
by the run, so a second run raises ``RuntimeError``.
"""

import random

from repro.compiler.ir import (
    Affine,
    ArrayRef,
    PtrArrayRef,
    Block,
    Compute,
    ForLoop,
    HeapRowRef,
    IndexLoad,
    Opaque,
    PtrAssignField,
    PtrAssignFromArray,
    PtrChase,
    PtrLoop,
    PtrRef,
    PtrSelect,
    WhileLoop,
)
from repro.compiler.symbols import Sym
from repro.trace.codegen import trace_program
from repro.trace.events import (
    LOOP_OVERHEAD_OPS,
    IndirectPrefetch,
    LoopBound,
    MemRef,
    Ops,
    SetIndirectBase,
)


class TraceLimit(Exception):
    """Raised internally when the reference budget is exhausted."""


class Interpreter:
    """Executes one finalized program, emitting trace events."""

    def __init__(self, program, space, compile_result=None, seed=12345,
                 block_size=64, ops_scale=1.0):
        program.finalize()
        self.program = program
        self.space = space
        self.compile_result = compile_result
        self.block_size = block_size
        self.ops_scale = ops_scale
        self.rng = random.Random(seed)
        self._vars = {}
        self._ptrs = {}
        self._ptr_reset = {}
        self._pending_ops = 0
        self._events = []
        self._refs_emitted = 0
        self._limit = None
        self._ran = False
        self._indirect_last_block = {}
        self._dims_cache = {}

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def bind_pointer(self, ptr, addr):
        """Set a pointer variable's initial address (workload setup)."""
        name = ptr.name if hasattr(ptr, "name") else ptr
        self._ptrs[name] = addr
        self._ptr_reset[name] = addr

    def resolve(self, value):
        """Resolve an int-or-Sym through the program bindings."""
        if isinstance(value, Sym):
            try:
                return self.program.bindings[value.name]
            except KeyError:
                raise KeyError(
                    "unbound symbol %r in program %s"
                    % (value.name, self.program.name)
                )
        return value

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def _ops(self, count):
        self._pending_ops += count

    def _flush_ops(self):
        if self._pending_ops:
            self._events.append(Ops(self._pending_ops))
            self._pending_ops = 0

    def _emit_ref(self, ref_id, addr, size=8, is_store=False):
        if self._limit is not None and self._refs_emitted >= self._limit:
            raise TraceLimit()
        if self._pending_ops:
            self._events.append(Ops(self._pending_ops))
            self._pending_ops = 0
        self._events.append(MemRef(ref_id, addr, size, is_store))
        self._refs_emitted += 1

    def _emit_directive(self, event):
        self._flush_ops()
        self._events.append(event)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, limit=None):
        """Execute the program; yield trace events.

        ``limit`` caps the number of memory references (the simulation
        budget); execution stops cleanly when it is reached.  Thin
        generator wrapper over :meth:`run_events` for API compatibility.
        """
        yield from self.run_events(limit)

    def _start(self):
        if self._ran:
            raise RuntimeError(
                "an Interpreter runs once; build a new one for another "
                "trace of %s" % self.program.name)
        self._ran = True

    def run_events(self, limit=None):
        """Execute the program; return the complete event list."""
        self._start()
        self._limit = limit
        try:
            self._exec(self.program.body)
        except TraceLimit:
            pass
        self._flush_ops()
        events, self._events = self._events, []
        return events

    def run_columns(self, limit=None):
        """Execute the program compiled to Python; return its columns.

        Returns a :class:`~repro.trace.compiled.CompiledTrace` equal to
        ``CompiledTrace.from_events(self.run_events(limit))``: same
        events, same RNG draws, same ``ref_names`` order, same failures.
        The compiled function is memoized on the program (see
        :func:`repro.trace.codegen.trace_program`); the trace-store and
        codegen tests assert the equality against the walker.
        """
        self._start()
        lowered = trace_program(self.program, self.compile_result,
                                self.block_size, self.ops_scale)
        return lowered.run(limit, self.rng, self._ptrs, self._ptr_reset,
                           self.space)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def _exec(self, stmt):
        self._HANDLERS[type(stmt)](self, stmt)

    def _exec_block(self, block):
        handlers = self._HANDLERS
        for stmt in block.stmts:
            handlers[type(stmt)](self, stmt)

    def _exec_for(self, loop):
        lower = self.resolve(loop.lower)
        upper = self.resolve(loop.upper)
        trips = max(0, -(-(upper - lower) // loop.step)) if loop.step > 0 \
            else max(0, (lower - upper + (-loop.step) - 1) // -loop.step)
        self._maybe_announce_bound(loop, trips)
        handler = self._HANDLERS[type(loop.body)]
        body = loop.body
        var = loop.var.name
        step = loop.step
        value = lower
        for _ in range(trips):
            self._vars[var] = value
            self._pending_ops += LOOP_OVERHEAD_OPS
            handler(self, body)
            value += step

    def _exec_while(self, loop):
        trips = self.resolve(loop.trips)
        self._maybe_announce_bound(loop, trips)
        handler = self._HANDLERS[type(loop.body)]
        body = loop.body
        for _ in range(trips):
            self._pending_ops += LOOP_OVERHEAD_OPS
            handler(self, body)

    def _exec_ptr_loop(self, loop):
        trips = self.resolve(loop.trips)
        self._maybe_announce_bound(loop, trips)
        name = loop.ptr.name
        if name not in self._ptr_reset:
            raise KeyError("pointer %s was never bound" % name)
        # The C idiom is `for (p = start; p < end; p += c)`: entering the
        # loop re-initializes the induction pointer.
        self._ptrs[name] = self._ptr_reset[name]
        handler = self._HANDLERS[type(loop.body)]
        body = loop.body
        for _ in range(trips):
            self._pending_ops += LOOP_OVERHEAD_OPS
            handler(self, body)
            self._ptrs[name] += loop.step

    def _maybe_announce_bound(self, loop, trips):
        result = self.compile_result
        if result is None:
            return
        if loop.loop_id in result.bound_loops:
            self._emit_directive(LoopBound(trips))
        info = result.indirect_base_loops.get(loop.loop_id)
        if info is not None:
            target = info.target_array
            self._emit_directive(SetIndirectBase(
                base_addr=target.base + info.offset * target.elem_size,
                elem_size=info.scale * target.elem_size,
            ))

    # ------------------------------------------------------------------
    # References
    # ------------------------------------------------------------------
    def _array_dims(self, array):
        dims = self._dims_cache.get(array.name)
        if dims is None:
            dims = [self.resolve(d) for d in array.dims]
            self._dims_cache[array.name] = dims
        return dims

    def _sub_value(self, sub):
        """Evaluate one subscript expression; may emit an index-load ref."""
        if isinstance(sub, Affine):
            return sub.evaluate(self._vars, self.rng)
        if isinstance(sub, IndexLoad):
            return self._index_load(sub)
        if isinstance(sub, Opaque):
            return sub.sample(self._vars, self.rng)
        raise TypeError("unknown subscript %r" % sub)

    def _index_load(self, sub):
        b = sub.index_array
        idx = sub.sub.evaluate(self._vars, self.rng)
        addr = b.base + idx * b.elem_size
        self._maybe_indirect_directive(sub, addr)
        self._emit_ref(sub.ref_id, addr, size=b.elem_size)
        value = self.space.load_word(addr)
        if value is None:
            value = 0
        return sub.scale * value + sub.offset

    def _maybe_indirect_directive(self, sub, index_addr):
        result = self.compile_result
        if result is None or sub.ref_id not in result.indirect_sites:
            return
        if result.indirect_mode == "hintbit":
            return  # the hint bit + base register replace the per-block
                    # prefetch instructions
        block = index_addr & ~(self.block_size - 1)
        if self._indirect_last_block.get(sub.ref_id) == block:
            return
        self._indirect_last_block[sub.ref_id] = block
        info = result.indirect_sites[sub.ref_id]
        target = info.target_array
        self._ops(1)  # the explicit prefetch instruction's overhead
        self._emit_directive(
            IndirectPrefetch(
                base_addr=target.base + info.offset * target.elem_size,
                elem_size=info.scale * target.elem_size,
                index_addr=index_addr,
            )
        )

    def _linear_index(self, array, values):
        dims = self._array_dims(array)
        index = 0
        if array.layout == "row":
            for extent, value in zip(dims, values):
                index = index * extent + value
        else:
            for extent, value in zip(reversed(dims), reversed(values)):
                index = index * extent + value
        return index

    def _exec_array_ref(self, stmt):
        if stmt.array.base is None:
            raise RuntimeError(
                "array %s was never materialized" % stmt.array.name
            )
        values = [self._sub_value(sub) for sub in stmt.subs]
        index = self._linear_index(stmt.array, values)
        addr = stmt.array.base + index * stmt.array.elem_size
        self._pending_ops += 1
        self._emit_ref(
            stmt.ref_id, addr, size=stmt.array.elem_size,
            is_store=stmt.is_store,
        )

    def _exec_heap_row_ref(self, stmt):
        row = self._sub_value(stmt.row_sub)
        col = self._sub_value(stmt.col_sub)
        row_addr = stmt.buf.base + row * 8
        self._pending_ops += 1
        self._emit_ref(stmt.row_ref_id, row_addr, size=8)
        row_base = self.space.load_word(row_addr)
        if row_base is None:
            raise RuntimeError(
                "no row pointer stored at %s[%d]" % (stmt.buf.name, row)
            )
        elem_addr = row_base + col * stmt.elem_size
        self._emit_ref(
            stmt.elem_ref_id, elem_addr, size=stmt.elem_size,
            is_store=stmt.is_store,
        )

    def _exec_ptr_ref(self, stmt):
        base = self._ptrs[stmt.ptr.name]
        offset = stmt.field.offset if stmt.field is not None else stmt.offset
        size = stmt.field.size if stmt.field is not None else stmt.size
        self._pending_ops += 1
        self._emit_ref(stmt.ref_id, base + offset, size=size,
                       is_store=stmt.is_store)

    def _exec_ptr_array_ref(self, stmt):
        base = self._ptrs[stmt.ptr.name]
        idx = self._sub_value(stmt.sub)
        self._pending_ops += 1
        self._emit_ref(stmt.ref_id, base + idx * stmt.elem_size,
                       size=stmt.elem_size, is_store=stmt.is_store)

    def _advance_pointer(self, name, value):
        """Follow a loaded pointer; restart the traversal on null."""
        if value is None or value == 0:
            value = self._ptr_reset[name]
        self._ptrs[name] = value

    def _exec_ptr_chase(self, stmt):
        name = stmt.ptr.name
        addr = self._ptrs[name] + stmt.field.offset
        self._pending_ops += 1
        self._emit_ref(stmt.ref_id, addr, size=8)
        self._advance_pointer(name, self.space.load_word(addr))

    def _exec_ptr_select(self, stmt):
        name = stmt.ptr.name
        if stmt.chooser is not None:
            field = stmt.chooser(self._vars, self.rng)
        else:
            field = self.rng.choice(stmt.fields)
        addr = self._ptrs[name] + field.offset
        self._pending_ops += 2  # compare + branch of the data-dependent walk
        self._emit_ref(stmt.ref_id, addr, size=8)
        self._advance_pointer(name, self.space.load_word(addr))

    def _exec_ptr_assign_field(self, stmt):
        addr = self._ptrs[stmt.src.name] + stmt.field.offset
        self._pending_ops += 1
        self._emit_ref(stmt.ref_id, addr, size=8)
        value = self.space.load_word(addr)
        if value is None or value == 0:
            value = self._ptrs[stmt.src.name]
        self._ptrs[stmt.dst.name] = value
        self._ptr_reset.setdefault(stmt.dst.name, value)

    def _exec_ptr_assign_from_array(self, stmt):
        idx = self._sub_value(stmt.sub)
        addr = stmt.array.base + idx * 8
        self._pending_ops += 1
        self._emit_ref(stmt.ref_id, addr, size=8)
        value = self.space.load_word(addr)
        if value is None or value == 0:
            raise RuntimeError(
                "no pointer stored at %s[%d]" % (stmt.array.name, idx)
            )
        self._ptrs[stmt.ptr.name] = value
        self._ptr_reset[stmt.ptr.name] = value

    def _exec_compute(self, stmt):
        self._pending_ops += int(stmt.ops * self.ops_scale)

    _HANDLERS = {
        Block: _exec_block,
        ForLoop: _exec_for,
        WhileLoop: _exec_while,
        PtrLoop: _exec_ptr_loop,
        ArrayRef: _exec_array_ref,
        HeapRowRef: _exec_heap_row_ref,
        PtrRef: _exec_ptr_ref,
        PtrArrayRef: _exec_ptr_array_ref,
        PtrChase: _exec_ptr_chase,
        PtrSelect: _exec_ptr_select,
        PtrAssignField: _exec_ptr_assign_field,
        PtrAssignFromArray: _exec_ptr_assign_from_array,
        Compute: _exec_compute,
    }
