"""Trace generation by compiled loop nests.

:func:`trace_program` lowers a finalized :class:`~repro.compiler.ir.Program`
into the source of one Python function, compiles it with the stdlib
``compile()``, and memoizes the result on the program.
:meth:`TraceProgram.run` calls that function to build a
:class:`~repro.trace.compiled.CompiledTrace`; it is the engine behind
:meth:`repro.trace.interp.Interpreter.run_columns`.  The tree walker in
:mod:`repro.trace.interp` stays as the oracle: its event stream, lowered by
``CompiledTrace.from_events``, must equal this module's columns byte for
byte.

Why the lowering is exact
-------------------------
* **Control flow is static.**  Every trip count is an ``int`` or a ``Sym``
  resolved through ``Program.bindings``, and no IR statement branches on
  data: ``PtrSelect`` picks a field, not a statement.  So which statements
  run, in what order and how many times, is known when the source is
  written.  Nests become ``for ... in range(...)`` loops; a zero-trip loop
  is left out, keeping only its directives and pointer reset.
* **Arithmetic is integer.**  An address is ``base + sum(mult_k * sub_k) *
  elem_size`` with integer subscripts, so folding base, extents and
  element size into one constant plus one coefficient per loop variable
  gives the walker's value exactly.
* **Pending ops are tracked statically.**  ``Compute``, loop overhead and
  address ops add constants; the generator carries the pending count as a
  constant, or as the ``ops`` local plus a constant where a loop's back
  edge joins two paths, and emits the walker's ``Ops`` flushes with folded
  counts.
* **Calls happen in the walker's order.**  Samplers (``Runtime``,
  ``Opaque``) and ``PtrSelect`` choosers are called at the same points,
  with the same seeded ``random.Random`` and an ``env`` dict holding what
  the walker's ``_vars`` holds whenever one of them could read it.
  Pointer state lives in the same two dicts the walker uses.
* **The limit is the walker's.**  Reference counts are static too, so a
  loop iteration whose references all fit under the limit runs a copy of
  its body with no limit tests; only the iteration that crosses it runs a
  checked copy, which returns at the exact reference where the walker
  raises ``TraceLimit``, with the pending ops the walker would flush.
* **Ref-name order is static.**  The walker interns ref ids in first
  emission order.  With static control flow that order is the order in
  which the first pass through each statement reaches its references,
  skipping zero-trip loops; a limit keeps a prefix of it.  The generator
  numbers ref ids in that order, and :meth:`TraceProgram.run` keeps the
  ids first reached below the limit.

Failures the walker raises (an unmaterialized array, an unbound ``Sym``,
pointer or variable, a null row or pointer-array slot) are raised by the
generated code at the same statement, so a statement the limit cuts off
never fails.
"""

from array import array
from bisect import bisect_left

from repro.compiler.ir import (
    Affine,
    ArrayRef,
    Block,
    Compute,
    ForLoop,
    HeapRowRef,
    IndexLoad,
    Opaque,
    PtrArrayRef,
    PtrAssignFromArray,
    PtrLoop,
    PtrSelect,
    Runtime,
    WhileLoop,
)
from repro.compiler.symbols import Sym
from repro.trace.compiled import (
    CompiledTrace,
    K_BOUND,
    K_INDIRECT,
    K_LOAD,
    K_OPS,
    K_SETBASE,
    K_STORE,
)
from repro.trace.events import LOOP_OVERHEAD_OPS

#: The generated code hands its event buffer to the column arrays once it
#: holds this many fields.  Each buffered address is a live ``int``; a
#: short buffer lets the allocator reuse their memory instead of
#: fragmenting it while the columns grow.
DRAIN_FIELDS = 1 << 12


class TraceProgram:
    """A program lowered to one compiled trace function."""

    __slots__ = ("source", "total_refs", "ref_order", "first_refs", "_fn")

    def __init__(self, source, fn, total_refs, ref_order, first_refs):
        #: The generated Python source (for debugging and tests).
        self.source = source
        self._fn = fn
        #: References one unlimited run emits.
        self.total_refs = total_refs
        #: Ref ids in first-emission order, and the reference ordinal at
        #: which each is first emitted (ascending).
        self.ref_order = ref_order
        self.first_refs = first_refs

    def run(self, limit, rng, ptrs, ptr_reset, space):
        """Generate the trace, mutating ``rng``, ``ptrs`` and ``ptr_reset``
        exactly as the walker does."""
        total = self.total_refs
        cap = total if limit is None else max(0, min(limit, total))
        flat = []
        columns = [array("b"), array("q"), array("q"), array("q")]

        def drain():
            for k, column in enumerate(columns):
                column.fromlist(flat[k::4])
            del flat[:]

        pending = self._fn(cap, flat.extend, flat, drain, rng, {}, ptrs,
                           ptr_reset, space.load_word)
        if pending:
            flat.extend((K_OPS, pending, 0, 0))
        drain()
        names = self.ref_order[:bisect_left(self.first_refs, cap)]
        return CompiledTrace(*columns, names, cap)


def trace_program(program, compile_result=None, block_size=64,
                  ops_scale=1.0):
    """The :class:`TraceProgram` for ``program`` under these inputs.

    Memoized in ``program.trace_functions`` and keyed by everything the
    source folds in, so compile results that coincide share one compiled
    function.  Two threads that miss together both lower the program and
    one result wins; the two are equivalent.
    """
    program.finalize()
    key = _source_key(program, compile_result, block_size, ops_scale)
    lowered = program.trace_functions.get(key)
    if lowered is None:
        lowered = program.trace_functions[key] = _Lowering(
            program, compile_result, block_size, ops_scale).build()
    return lowered


def _declarations(program):
    """The arrays and loop/ref ids of ``program`` the source depends on."""
    arrays, loops, index_loads = {}, [], []

    def sub(s):
        if isinstance(s, IndexLoad):
            arrays[id(s.index_array)] = s.index_array
            index_loads.append(s.ref_id)

    def walk(stmt):
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                walk(s)
        elif isinstance(stmt, (ForLoop, WhileLoop, PtrLoop)):
            loops.append(stmt.loop_id)
            walk(stmt.body)
        elif isinstance(stmt, ArrayRef):
            arrays[id(stmt.array)] = stmt.array
            for s in stmt.subs:
                sub(s)
        elif isinstance(stmt, HeapRowRef):
            arrays[id(stmt.buf)] = stmt.buf
            sub(stmt.row_sub)
            sub(stmt.col_sub)
        elif isinstance(stmt, PtrArrayRef):
            sub(stmt.sub)
        elif isinstance(stmt, PtrAssignFromArray):
            arrays[id(stmt.array)] = stmt.array
            sub(stmt.sub)

    walk(program.body)
    return list(arrays.values()), loops, index_loads


def _info_key(info):
    target = info.target_array
    return (target.base, target.elem_size, info.offset, info.scale)


def _source_key(program, result, block_size, ops_scale):
    arrays, loops, index_loads = _declarations(program)
    key = [tuple(sorted(program.bindings.items())),
           tuple(a.base for a in arrays), block_size, ops_scale]
    if result is not None:
        key.append(tuple(lid in result.bound_loops for lid in loops))
        key.append(tuple(
            _info_key(result.indirect_base_loops[lid])
            if lid in result.indirect_base_loops else None
            for lid in loops))
        if result.indirect_mode != "hintbit":
            key.append(tuple(
                _info_key(result.indirect_sites[rid])
                if rid in result.indirect_sites else None
                for rid in index_loads))
    return tuple(key)


class _Failure:
    """An exception the walker raises on reaching a statement."""

    __slots__ = ("exc",)

    def __init__(self, exc):
        self.exc = exc


def _resolve(program, value):
    """``Interpreter.resolve`` at generation time; a failure is returned,
    to be raised where the walker would raise it."""
    if isinstance(value, Sym):
        try:
            return program.bindings[value.name]
        except KeyError:
            return _Failure(KeyError(
                "unbound symbol %r in program %s"
                % (value.name, program.name)))
    return value


# ----------------------------------------------------------------------
# Linear forms: (constant, {local name: coefficient})
# ----------------------------------------------------------------------
def _lin_add(a, b):
    terms = dict(a[1])
    for name, coef in b[1].items():
        terms[name] = terms.get(name, 0) + coef
    return (a[0] + b[0], terms)


def _lin_scale(form, k):
    return (form[0] * k, {name: c * k for name, c in form[1].items()})


def _lin_render(form):
    const, terms = form
    parts = []
    for name, coef in terms.items():
        if coef == 1:
            parts.append(name)
        elif coef:
            parts.append("%r*%s" % (coef, name))
    if const or not parts:
        parts.append("%r" % (const,))
    return " + ".join(parts)


class _Lowering:
    """Writes and compiles the source for one program and input set."""

    def __init__(self, program, result, block_size, ops_scale):
        self.program = program
        self.result = result
        self.block_size = block_size
        self.ops_scale = ops_scale
        self.lines = []
        self.depth = 1
        self.consts = {}
        self.temps = 0
        #: Pending ops: the ``ops`` local (when ``dyn``) plus ``pend``.
        self.dyn = False
        self.pend = 0
        #: True while writing code that must test the reference limit.
        self.checked = True
        self.var_locals = {}
        self.bound_vars = {}
        self.last_blocks = {}
        self.dims = {}
        self.trips = {}
        self.body_refs = {}
        self.ref_index = {}
        self.first_refs = []
        self.used_choice = False
        self.hoist = None

    # ------------------------------------------------------------------
    def build(self):
        program = self.program
        total = self._scan(program.body, 0)
        self.any_env = _reads_env(program.body, set())
        self._stmt(program.body)
        self.line("return %s" % self._pending())
        head = ["def trace(L, X, F, D, rng, env, P, R, load):",
                "    n = 0"]
        if self.used_choice:
            head.append("    choice = rng.choice")
        head.extend("    %s = None" % name
                    for name in self.last_blocks.values())
        head.extend("    %s = _%s" % (name, name) for name in self.consts)
        source = "\n".join(head + self.lines) + "\n"
        namespace = {"_" + name: value for name, value in self.consts.items()}
        code = compile(source, "<trace %s>" % program.name, "exec")
        exec(code, namespace)
        # Popped so the function and its globals form no reference cycle:
        # both are freed with the program, not at the next full collection.
        fn = namespace.pop("trace")
        order = sorted(self.ref_index, key=self.ref_index.get)
        return TraceProgram(source, fn, total, order, self.first_refs)

    # ------------------------------------------------------------------
    # Static facts: trip counts, reference counts, first emissions
    # ------------------------------------------------------------------
    def _trip_count(self, loop):
        """The walker's trip count for ``loop``, or a :class:`_Failure`."""
        key = id(loop)
        if key not in self.trips:
            if isinstance(loop, ForLoop):
                lower = _resolve(self.program, loop.lower)
                upper = (lower if isinstance(lower, _Failure)
                         else _resolve(self.program, loop.upper))
                if isinstance(upper, _Failure):
                    trips = upper
                else:
                    step = loop.step
                    trips = (max(0, -(-(upper - lower) // step)) if step > 0
                             else max(0, (lower - upper + (-step) - 1)
                                      // -step))
            else:
                trips = _resolve(self.program, loop.trips)
            if not isinstance(trips, _Failure):
                try:
                    range(trips)
                except TypeError as exc:  # the walker's range() fails too
                    trips = _Failure(exc)
            self.trips[key] = trips
        return self.trips[key]

    def _first(self, ref_id, pos):
        if ref_id not in self.ref_index:
            self.ref_index[ref_id] = len(self.first_refs)
            self.first_refs.append(pos)
        return pos + 1

    def _scan_sub(self, sub, pos):
        if isinstance(sub, IndexLoad):
            return self._first(sub.ref_id, pos)
        return pos

    def _scan(self, stmt, pos):
        """Number ref ids in first-emission order; return ``pos`` plus the
        references ``stmt`` emits.  Records each loop's per-iteration
        reference count."""
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                pos = self._scan(s, pos)
            return pos
        if isinstance(stmt, (ForLoop, WhileLoop, PtrLoop)):
            trips = self._trip_count(stmt)
            if isinstance(trips, _Failure) or trips <= 0:
                return pos
            end = self._scan(stmt.body, pos)
            self.body_refs[id(stmt)] = end - pos
            return pos + trips * (end - pos)
        if isinstance(stmt, ArrayRef):
            for sub in stmt.subs:
                pos = self._scan_sub(sub, pos)
            return self._first(stmt.ref_id, pos)
        if isinstance(stmt, HeapRowRef):
            pos = self._scan_sub(stmt.row_sub, pos)
            pos = self._scan_sub(stmt.col_sub, pos)
            pos = self._first(stmt.row_ref_id, pos)
            return self._first(stmt.elem_ref_id, pos)
        if isinstance(stmt, (PtrArrayRef, PtrAssignFromArray)):
            pos = self._scan_sub(stmt.sub, pos)
            return self._first(stmt.ref_id, pos)
        if isinstance(stmt, Compute):
            return pos
        return self._first(stmt.ref_id, pos)

    # ------------------------------------------------------------------
    # Source writing
    # ------------------------------------------------------------------
    def line(self, text):
        self.lines.append("    " * self.depth + text)

    def temp(self, prefix="t"):
        self.temps += 1
        return "%s%d" % (prefix, self.temps)

    def const(self, value):
        """A local name bound to ``value`` in the generated function."""
        for name, bound in self.consts.items():
            if bound is value:
                return name
        name = "c%d" % len(self.consts)
        self.consts[name] = value
        return name

    def fail(self, failure):
        exc = failure.exc
        self.line("raise %s(*%s)" % (self.const(type(exc)),
                                     self.const(exc.args)))

    def _pending(self):
        if not self.dyn:
            return "%d" % self.pend
        return "ops + %d" % self.pend if self.pend else "ops"

    def flush_and(self, items):
        """Append the pending ``Ops`` event, if any, then ``items``."""
        if not self.dyn:
            if self.pend:
                self.line("X((%d, %d, 0, 0, %s))" % (K_OPS, self.pend, items))
            else:
                self.line("X((%s))" % items)
        elif self.pend:
            self.line("X((%d, ops + %d, 0, 0, %s))"
                      % (K_OPS, self.pend, items))
        else:
            self.line("if ops:")
            self.line("    X((%d, ops, 0, 0, %s))" % (K_OPS, items))
            self.line("else:")
            self.line("    X((%s))" % items)
        self.dyn, self.pend = False, 0

    def emit_ref(self, ref_id, addr, size, is_store=False):
        """One memory reference; ``addr`` must be a pure expression."""
        if self.checked:
            self.line("if n >= L:")
            self.line("    return %s" % self._pending())
            self.line("n += 1")
        self.flush_and("%d, %d, %s, %r" % (
            K_STORE if is_store else K_LOAD, self.ref_index.get(ref_id, -1),
            addr, size))

    def materialize(self):
        """Move the pending count into the ``ops`` local."""
        if not self.dyn:
            self.line("ops = %d" % self.pend)
        elif self.pend:
            self.line("ops += %d" % self.pend)
        self.dyn, self.pend = True, 0

    def load(self, addr):
        """``space.load_word(addr)`` into a new temp; returns its name."""
        value = self.temp("w")
        self.line("%s = load(%s)" % (value, addr))
        return value

    # ------------------------------------------------------------------
    # Subscripts
    # ------------------------------------------------------------------
    def render(self, form):
        """``form`` as an expression.  Inside an innermost loop, the part
        that depends only on enclosing loops is computed once, before the
        loop, and named."""
        hoist = self.hoist
        if hoist is not None:
            const, terms = form
            fixed = {name: coef for name, coef in terms.items()
                     if coef and name in hoist.invariant}
            if fixed:
                text = _lin_render((const, fixed))
                name = hoist.names.get(text)
                if name is None:
                    name = hoist.names[text] = self.temp("h")
                    hoist.lines.append("%s = %s" % (name, text))
                rest = {n: c for n, c in terms.items() if n not in fixed}
                form = _lin_add((0, {name: 1}), (0, rest))
        return _lin_render(form)

    def var_local(self, name):
        local = self.var_locals.get(name)
        if local is None:
            local = self.var_locals[name] = "v%d" % len(self.var_locals)
        return local

    def affine(self, aff):
        """``Affine.evaluate`` as a linear form over locals."""
        const = aff.const
        if isinstance(const, Runtime):
            value = self.temp()
            self.line("%s = %s(env, rng)" % (value, self.const(const.sample)))
            form = (0, {value: 1})
        else:
            form = (const, {})
        for var, coef in aff.terms.items():
            if self.bound_vars.get(var.name):
                local = self.var_locals[var.name]
            else:
                local = self.temp()
                self.line("%s = env[%r]" % (local, var.name))
            form = _lin_add(form, (0, {local: coef}))
        return form

    def sub_value(self, sub):
        """``Interpreter._sub_value`` as a linear form over locals."""
        if isinstance(sub, Affine):
            return self.affine(sub)
        if isinstance(sub, IndexLoad):
            return self.index_load(sub)
        if isinstance(sub, Opaque):
            value = self.temp()
            self.line("%s = %s(env, rng)" % (value, self.const(sub.sample)))
            return (0, {value: 1})
        self.fail(_Failure(TypeError("unknown subscript %r" % sub)))
        return (0, {})

    def base_plus(self, decl, offset):
        """``decl.base + offset`` (a linear form) as an expression; an
        unmaterialized base stays a name, so Python raises the walker's
        ``TypeError``."""
        if decl.base is None:
            return "%s + (%s)" % (self.const(None), self.render(offset))
        return self.render(_lin_add((decl.base, {}), offset))

    def index_load(self, sub):
        b = sub.index_array
        idx = self.affine(sub.sub)
        addr = self.temp("a")
        self.line("%s = %s" % (addr, self.base_plus(
            b, _lin_scale(idx, b.elem_size))))
        info = self._indirect_site(sub.ref_id)
        if info is None:
            self.emit_ref(sub.ref_id, addr, b.elem_size)
        else:
            last = self.last_blocks.get(sub.ref_id)
            if last is None:
                last = self.last_blocks[sub.ref_id] = "lb%d" % len(
                    self.last_blocks)
            block = self.temp("b")
            self.line("%s = %s & %d" % (block, addr, ~(self.block_size - 1)))
            state = (self.dyn, self.pend)
            self.line("if %s != %s:" % (block, last))
            self.depth += 1
            self.line("%s = %s" % (last, block))
            self.pend += 1  # the explicit prefetch instruction
            target = info.target_array
            self.flush_and("%d, %s, %d, %s" % (
                K_INDIRECT, self._target_base(info),
                info.scale * target.elem_size, addr))
            self.emit_ref(sub.ref_id, addr, b.elem_size)
            self.depth -= 1
            self.dyn, self.pend = state
            self.line("else:")
            self.depth += 1
            self.emit_ref(sub.ref_id, addr, b.elem_size)
            self.depth -= 1
        value = self.load(addr)
        self.line("if %s is None:" % value)
        self.line("    %s = 0" % value)
        return (sub.offset, {value: sub.scale})

    def _indirect_site(self, ref_id):
        result = self.result
        if (result is None or result.indirect_mode == "hintbit"
                or ref_id not in result.indirect_sites):
            return None
        return result.indirect_sites[ref_id]

    def _target_base(self, info):
        target = info.target_array
        if target.base is None:
            return "%s + %d" % (self.const(None),
                                info.offset * target.elem_size)
        return "%d" % (target.base + info.offset * target.elem_size)

    def array_dims(self, decl):
        """``Interpreter._array_dims``: resolved once per array *name*."""
        dims = self.dims.get(decl.name)
        if dims is None:
            dims = [_resolve(self.program, d) for d in decl.dims]
            for d in dims:
                if isinstance(d, _Failure):
                    return d
            self.dims[decl.name] = dims
        return dims

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _stmt(self, stmt):
        getattr(self, "_" + type(stmt).__name__)(stmt)

    def _Block(self, block):
        for stmt in block.stmts:
            self._stmt(stmt)

    def _Compute(self, stmt):
        self.pend += int(stmt.ops * self.ops_scale)

    def _announce(self, loop, trips):
        result = self.result
        if result is None:
            return
        if loop.loop_id in result.bound_loops:
            self.flush_and("%d, %d, 0, 0" % (K_BOUND, trips))
        info = result.indirect_base_loops.get(loop.loop_id)
        if info is not None:
            self.flush_and("%d, %s, %d, 0" % (
                K_SETBASE, self._target_base(info),
                info.scale * info.target_array.elem_size))

    def _iterate(self, loop, trips, header, var=None, advance=None):
        """Write ``loop``'s iterations; pending ops and the limit follow
        the walker across the back edge."""
        self.materialize()
        if trips > 1 and not _has_loop(loop.body):
            self.hoist = _Hoist({
                self.var_locals[name] for name, depth
                in self.bound_vars.items() if depth and name != var})
            mark, pad = len(self.lines), "    " * self.depth
        self.line(header)
        self.depth += 1
        reads_env = _reads_env(loop.body, {
            name for name, depth in self.bound_vars.items() if depth})
        if var is not None and reads_env:
            self.line("env[%r] = %s" % (var, self.var_locals[var]))
        self.pend = LOOP_OVERHEAD_OPS
        count = self.body_refs[id(loop)]
        if self.checked and count:
            # Only the iteration that crosses the limit runs the checked
            # copy, and it always returns.
            self.line("if n + %d > L:" % count)
            self.depth += 1
            self._stmt(loop.body)
            self.depth -= 1
            self.dyn, self.pend = True, LOOP_OVERHEAD_OPS
            self.line("else:")
            self.depth += 1
            self.checked = False
            self._stmt(loop.body)
            self.checked = True
            self.line("n += %d" % count)
            self.depth -= 1
        else:
            self._stmt(loop.body)
        exit_state = (self.dyn, self.pend)
        if advance is not None:
            self.line(advance)
        leaf = count and not self._emitting_loop(loop.body)
        # A ref emits at most 8 fields (its Ops event and itself).
        if leaf and trips * count * 8 > DRAIN_FIELDS:
            self.drain_check()
        self.materialize()
        self.depth -= 1
        if self.hoist is not None:
            self.lines[mark:mark] = [pad + text for text in self.hoist.lines]
            self.hoist = None
        if leaf and trips * count * 8 <= DRAIN_FIELDS:
            self.drain_check()
        if not exit_state[0]:
            # Every iteration, the last included, ends on a known count.
            self.dyn, self.pend = exit_state
        return reads_env

    def drain_check(self):
        self.line("if len(F) > %d:" % DRAIN_FIELDS)
        self.line("    D()")

    def _emitting_loop(self, stmt):
        """True when a loop inside ``stmt`` runs and emits references."""
        if isinstance(stmt, Block):
            return any([self._emitting_loop(s) for s in stmt.stmts])
        return bool(self.body_refs.get(id(stmt)))

    def _loop_trips(self, loop):
        """Announce ``loop``; return its trip count (0 after a failure,
        whose ``raise`` makes the rest of the block dead code)."""
        trips = self._trip_count(loop)
        if isinstance(trips, _Failure):
            self.fail(trips)
            return 0
        self._announce(loop, trips)
        return trips

    def _ForLoop(self, loop):
        trips = self._loop_trips(loop)
        if trips <= 0:
            return
        name = loop.var.name
        local = self.var_local(name)
        lower = _resolve(self.program, loop.lower)
        step = loop.step
        self.bound_vars[name] = self.bound_vars.get(name, 0) + 1
        reads_env = self._iterate(
            loop, trips, "for %s in range(%d, %d, %d):"
            % (local, lower, lower + trips * step, step), var=name)
        self.bound_vars[name] -= 1
        if self.any_env and not reads_env:
            self.line("env[%r] = %r" % (name, lower + (trips - 1) * step))

    def _WhileLoop(self, loop):
        trips = self._loop_trips(loop)
        if trips > 0:
            self._iterate(loop, trips, "for _ in range(%d):" % trips)

    def _PtrLoop(self, loop):
        trips = self._loop_trips(loop)
        name = loop.ptr.name
        self.line("if %r not in R:" % name)
        self.line("    raise KeyError(%r)" % ("pointer %s was never bound"
                                              % name))
        self.line("P[%r] = R[%r]" % (name, name))
        if trips > 0:
            self._iterate(loop, trips, "for _ in range(%d):" % trips,
                          advance="P[%r] += %d" % (name, loop.step))

    def _ArrayRef(self, stmt):
        decl = stmt.array
        if decl.base is None:
            self.fail(_Failure(RuntimeError(
                "array %s was never materialized" % decl.name)))
            return
        values = [self.sub_value(sub) for sub in stmt.subs]
        dims = self.array_dims(decl)
        if isinstance(dims, _Failure):
            self.fail(dims)
            return
        if decl.layout != "row":
            dims, values = dims[::-1], values[::-1]
        offset, mult = (0, {}), decl.elem_size
        for extent, value in zip(reversed(dims), reversed(values)):
            offset = _lin_add(offset, _lin_scale(value, mult))
            mult *= extent
        self.pend += 1
        self.emit_ref(stmt.ref_id, self._pure(self.base_plus(decl, offset)),
                      decl.elem_size, stmt.is_store)

    def _pure(self, expr):
        """``expr`` itself, or a temp holding it when the limit test must
        come after its evaluation."""
        if not self.checked:
            return expr
        addr = self.temp("a")
        self.line("%s = %s" % (addr, expr))
        return addr

    def _HeapRowRef(self, stmt):
        row = self.sub_value(stmt.row_sub)
        col = self.sub_value(stmt.col_sub)
        row_addr = self.temp("a")
        self.line("%s = %s" % (row_addr, self.base_plus(
            stmt.buf, _lin_scale(row, 8))))
        self.pend += 1
        self.emit_ref(stmt.row_ref_id, row_addr, 8)
        row_base = self.load(row_addr)
        self.line("if %s is None:" % row_base)
        self.line("    raise RuntimeError(%r %% (%s))" % (
            "no row pointer stored at %s[%%d]" % _escape(stmt.buf.name),
            _lin_render(row)))
        self.emit_ref(stmt.elem_ref_id, self._pure(self.render(_lin_add(
            (0, {row_base: 1}), _lin_scale(col, stmt.elem_size)))),
            stmt.elem_size, stmt.is_store)

    def _PtrRef(self, stmt):
        field = stmt.field
        offset = field.offset if field is not None else stmt.offset
        size = field.size if field is not None else stmt.size
        addr = self._pure(_field_addr(stmt.ptr.name, offset))
        self.pend += 1
        self.emit_ref(stmt.ref_id, addr, size, stmt.is_store)

    def _PtrArrayRef(self, stmt):
        base = self.temp("p")
        self.line("%s = P[%r]" % (base, stmt.ptr.name))
        idx = self.sub_value(stmt.sub)
        self.pend += 1
        self.emit_ref(stmt.ref_id, self._pure(self.render(_lin_add(
            (0, {base: 1}), _lin_scale(idx, stmt.elem_size)))),
            stmt.elem_size, stmt.is_store)

    def _follow(self, ref_id, name, addr, ops):
        """Emit the pointer-field load at ``addr`` and advance ``name``
        (``Interpreter._advance_pointer``)."""
        self.pend += ops
        self.emit_ref(ref_id, addr, 8)
        value = self.load(addr)
        self.line("if %s is None or %s == 0:" % (value, value))
        self.line("    %s = R[%r]" % (value, name))
        self.line("P[%r] = %s" % (name, value))

    def _PtrChase(self, stmt):
        addr = self.temp("a")
        self.line("%s = %s" % (addr, _field_addr(stmt.ptr.name,
                                                 stmt.field.offset)))
        self._follow(stmt.ref_id, stmt.ptr.name, addr, 1)

    def _PtrSelect(self, stmt):
        name = stmt.ptr.name
        addr = self.temp("a")
        if stmt.chooser is not None:
            field = self.temp("f")
            self.line("%s = %s(env, rng)" % (field, self.const(stmt.chooser)))
            self.line("%s = P[%r] + %s.offset" % (addr, name, field))
        else:
            # choice() draws by sequence length only, so choosing among
            # the offsets draws exactly as choosing among the fields.
            self.used_choice = True
            offsets = tuple(f.offset for f in stmt.fields)
            offset = self.temp("o")
            self.line("%s = choice(%r)" % (offset, offsets))
            self.line("%s = P[%r] + %s" % (addr, name, offset))
        self._follow(stmt.ref_id, name, addr, 2)  # compare + branch of the walk

    def _PtrAssignField(self, stmt):
        src = stmt.src.name
        addr = self.temp("a")
        self.line("%s = %s" % (addr, _field_addr(src, stmt.field.offset)))
        self.pend += 1
        self.emit_ref(stmt.ref_id, addr, 8)
        value = self.load(addr)
        self.line("if %s is None or %s == 0:" % (value, value))
        self.line("    %s = P[%r]" % (value, src))
        self.line("P[%r] = %s" % (stmt.dst.name, value))
        self.line("R.setdefault(%r, %s)" % (stmt.dst.name, value))

    def _PtrAssignFromArray(self, stmt):
        idx = self.sub_value(stmt.sub)
        addr = self.temp("a")
        self.line("%s = %s" % (addr, self.base_plus(
            stmt.array, _lin_scale(idx, 8))))
        self.pend += 1
        self.emit_ref(stmt.ref_id, addr, 8)
        value = self.load(addr)
        self.line("if %s is None or %s == 0:" % (value, value))
        self.line("    raise RuntimeError(%r %% (%s))" % (
            "no pointer stored at %s[%%d]" % _escape(stmt.array.name),
            _lin_render(idx)))
        name = stmt.ptr.name
        self.line("P[%r] = R[%r] = %s" % (name, name, value))


class _Hoist:
    """Loop-invariant address parts of one innermost loop."""

    __slots__ = ("invariant", "names", "lines")

    def __init__(self, invariant):
        #: Locals no statement inside the loop assigns.
        self.invariant = invariant
        self.names = {}
        self.lines = []


def _has_loop(stmt):
    if isinstance(stmt, Block):
        return any([_has_loop(s) for s in stmt.stmts])
    return isinstance(stmt, (ForLoop, WhileLoop, PtrLoop))


def _field_addr(ptr, offset):
    """The address ``offset`` bytes past pointer ``ptr``."""
    return _lin_render((offset, {"P[%r]" % ptr: 1}))


def _escape(name):
    return name.replace("%", "%%")


def _reads_env(stmt, bound):
    """True when ``stmt`` may call a sampler or read a variable no loop
    in ``bound`` binds, so ``env`` must hold the walker's ``_vars``."""
    if isinstance(stmt, Block):
        return any([_reads_env(s, bound) for s in stmt.stmts])
    if isinstance(stmt, ForLoop):
        return _reads_env(stmt.body, bound | {stmt.var.name})
    if isinstance(stmt, (WhileLoop, PtrLoop)):
        return _reads_env(stmt.body, bound)
    if isinstance(stmt, ArrayRef):
        return any([_sub_reads_env(s, bound) for s in stmt.subs])
    if isinstance(stmt, HeapRowRef):
        return (_sub_reads_env(stmt.row_sub, bound)
                or _sub_reads_env(stmt.col_sub, bound))
    if isinstance(stmt, (PtrArrayRef, PtrAssignFromArray)):
        return _sub_reads_env(stmt.sub, bound)
    if isinstance(stmt, PtrSelect):
        return stmt.chooser is not None
    return False


def _sub_reads_env(sub, bound):
    if isinstance(sub, Affine):
        return (isinstance(sub.const, Runtime)
                or any(var.name not in bound for var in sub.terms))
    if isinstance(sub, IndexLoad):
        return _sub_reads_env(sub.sub, bound)
    return isinstance(sub, Opaque)
