"""Limited-window out-of-order core timing model.

This is the trace-driven analogue of the paper's SimpleScalar
``sim-outorder`` configuration (4-wide issue, 64-entry RUU): a retirement
ring buffer of ``window_size`` completion times enforces that instruction
``k`` cannot issue until instruction ``k - window`` has completed, which is
exactly the reorder-buffer constraint that determines how much memory
latency an OoO core can hide.

Properties captured:

* back-to-back ALU work retires at the issue width;
* a load miss does not stall issue immediately — up to ``window`` younger
  instructions (including other loads, giving memory-level parallelism
  bounded by the MSHRs in the hierarchy) keep issuing;
* once the window wraps around to an incomplete load, issue stalls until
  its data returns — the L2-miss serialization that prefetching attacks.

A trace replays through one of two per-event bodies.  The oracle,
:meth:`Core.step`, replays one event object: :meth:`Core.execute` loops
over it for single-core reference runs, and the stepped co-run loop
calls it under its arbiter.  The compiled replay,
:meth:`Core.execute_compiled`, iterates a
:class:`~repro.trace.compiled.CompiledTrace`'s columns directly.  They
issue the identical instruction sequence — the differential tests assert
their statistics byte-for-byte equal.

The compiled replay has one per-event body, :meth:`Core.run_span`, which
runs events from a position until an issue-time frontier, the trace's
end, or a reference limit.  Two callers share it: ``execute_compiled``
(one unbounded span) and the fused co-run scheduler (one span per
arbitration stretch, bounded by the other cores' next issue times).

The issue ring's refill memo
----------------------------
``run_span`` keeps two facts about the ring beside it: ``_fill``, the
value the last full-window refill (an ``Ops`` batch of at least
``window`` instructions) wrote to every slot, and ``_since``, the number
of ring writes after it.  While ``_since < window`` every slot outside
those last writes still holds ``_fill``, and the head sits at slot
``_since`` (a full refill leaves it at slot 0, and each write advances
both), so the written slots are ``ring[:_since]``.  The closed form for
an ALU batch scans the slots in head order, and the unwritten ones come
first: all hold one value, whose candidate ``fill + (count - d) / width``
can only fall with depth ``d`` (IEEE rounding is monotone), so the
depth-0 term stands for all of them and only the written slots need a
scan.  The result is the full scan's, at any issue width or latency.
The oracle body :meth:`Core.step` writes the ring without keeping the
pair, so :meth:`Core.begin_stepping` sets ``_since = window``, which
sends the next batch to the full scan.
"""

from repro.trace.compiled import K_OPS, K_STORE, decode_directive
from repro.trace.events import MemRef, Ops

_INF = float("inf")


class Core:
    """Executes a trace event stream against a memory hierarchy."""

    def __init__(self, config, hierarchy, hint_table=None, core_id=0):
        self.hierarchy = hierarchy
        self.hint_table = hint_table
        self.window = config.window_size
        self.inv_width = 1.0 / config.issue_width
        self._ring = [0.0] * self.window
        self._head = 0
        #: The last full-window refill's value and the ring writes since
        #: it (see the module docstring); ``_since >= window`` means the
        #: pair says nothing.
        self._fill = 0.0
        self._since = 0
        self._clock = 0.0
        self.instructions = 0
        self.load_stall_cycles = 0.0
        #: Identity within a multi-core co-run (0 when standalone); the
        #: stepping loop uses it to select per-core attribution slices.
        self.core_id = core_id
        self._step_access = None
        self._step_note = None

    # ------------------------------------------------------------------
    def _issue(self, latency):
        """Issue one instruction with the given latency; return completion."""
        ring = self._ring
        head = self._head
        earliest = ring[head]
        clock = self._clock + self.inv_width
        if earliest > clock:
            clock = earliest
        self._clock = clock
        completion = clock + latency
        ring[head] = completion
        self._head = (head + 1) % self.window
        self.instructions += 1
        return completion

    def _issue_ops(self, count):
        """Issue ``count`` single-cycle ALU instructions.

        Small batches go through the exact per-instruction path.  Large
        batches use a closed form: the batch retires at the issue width
        except where an outstanding long-latency completion (a ring entry
        still in the future) blocks the window — op ``d`` steps ahead
        cannot pass slot ``s`` until ``ring[s]``, after which the
        remaining ``count - d`` ops take ``(count - d) / width``.
        """
        if count <= 32:
            # The exact per-instruction path, with _issue's body inlined
            # (same float operations in the same order).
            ring = self._ring
            window = self.window
            head = self._head
            inv = self.inv_width
            clock = self._clock
            for _ in range(count):
                earliest = ring[head]
                clock = clock + inv
                if earliest > clock:
                    clock = earliest
                ring[head] = clock + 1.0
                head = head + 1
                if head == window:
                    head = 0
            self._clock = clock
            self._head = head
            self.instructions += count
            return
        ring = self._ring
        window = self.window
        head = self._head
        inv = self.inv_width
        base = self._clock
        clock = base + count * inv
        # When every outstanding completion is already in the past (the
        # common case between memory bursts) no slot can block the batch.
        if max(ring) > base:
            # Only the first min(count, window) slots in ring order from
            # the head can block ops of this batch (op d cannot pass slot
            # head+d); walking in that order replaces the per-slot modulo
            # of a position-order scan.
            n = count if count < window else window
            s = head
            for d in range(n):
                completion = ring[s]
                if completion > base:
                    candidate = completion + (count - d) * inv
                    if candidate > clock:
                        clock = candidate
                s += 1
                if s == window:
                    s = 0
        self._clock = clock
        # All slots the batch touched now hold ~1-cycle completions; for
        # batches shorter than the window this is pessimistic by at most
        # count/width cycles on untouched slots' successors.
        fill = clock + 1.0
        if count >= window:
            ring[:] = [fill] * window
            self._head = 0
        else:
            end = head + count
            if end <= window:
                ring[head:end] = [fill] * count
                self._head = 0 if end == window else end
            else:
                ring[head:] = [fill] * (window - head)
                end -= window
                ring[:end] = [fill] * end
                self._head = end
        self.instructions += count

    # ------------------------------------------------------------------
    def execute(self, events, limit_refs=None):
        """Run a trace through :meth:`step`; return the final cycle count.

        ``events`` yields MemRef / Ops / directive records (see
        :mod:`repro.trace.events`).  ``limit_refs`` optionally truncates the
        run after that many memory references.
        """
        self.begin_stepping()
        step = self.step
        refs = 0
        for event in events:
            if step(event):
                refs += 1
                if limit_refs is not None and refs >= limit_refs:
                    break
        return self.cycles

    def execute_compiled(self, trace, limit_refs=None):
        """Run a :class:`~repro.trace.compiled.CompiledTrace`.

        Issues the identical instruction sequence :meth:`execute` would
        for the same events: one unbounded :meth:`run_span` over the
        whole trace.
        """
        if len(trace.kinds):
            self.run_span(self.bind_compiled(trace), 0,
                          limit_refs=limit_refs)
        return self.cycles

    def bind_compiled(self, trace):
        """Hoist everything :meth:`run_span` reads per event into a tuple.

        Built once per (core, trace) and passed to every span: the
        trace's columns, hints resolved per static reference id, the
        hierarchy's bound methods, its memory controller, its prefetch
        candidate source (``Hierarchy._candidates``), its L1-miss
        handler (:attr:`~repro.mem.hierarchy.Hierarchy.demand_miss`: the
        one-frame handler for single-core runs and fused co-run cores
        alike), and the L1 internals the inline probe touches.
        ``general`` selects the out-of-line ``access`` path for
        configurations whose access takes per-reference detours:
        reference runs, TLB-enabled configs, and trace-sink runs.
        """
        hierarchy = self.hierarchy
        l1 = hierarchy.l1
        metrics = hierarchy.metrics
        adapt = getattr(hierarchy, "adapt", None)
        general = (
            hierarchy.reference
            or hierarchy.tlb is not None
            or metrics.sink is not None
        )
        return (
            trace.kinds, trace.f0, trace.f1, trace.f2,
            trace.resolve_hints(self.hint_table), trace.ref_names,
            len(trace.kinds), general, hierarchy.access,
            hierarchy.directive, hierarchy._perfect_l1, l1.latency,
            l1._index, l1._sets, l1._block_shift, l1._set_mask, l1.stats,
            hierarchy._block_mask, hierarchy.stats, metrics,
            metrics.series, hierarchy.controller,
            hierarchy._candidates, hierarchy.demand_miss,
            adapt.note_access if adapt is not None else None,
        )

    def run_span(self, ctx, pos, frontier=_INF, limit_refs=None):
        """Replay compiled events from ``pos``; return the next position.

        ``ctx`` comes from :meth:`bind_compiled`.  The event at ``pos``
        always runs; each later one runs only while its issue time
        ``max(clock, ring[head])`` stays below ``frontier``, so
        ``frontier=-inf`` replays exactly one event.  The span also ends
        at the trace's end or after ``limit_refs`` memory references.
        The caller guarantees ``pos`` is inside the trace.

        This is the one per-event body of the compiled replay: the
        issue-ring arithmetic and the hierarchy's L1 probe are inlined,
        each replicating the out-of-line code operation for operation
        (the differential tests compare the resulting statistics byte
        for byte against :meth:`execute`).  An L1 miss goes to the
        handler :meth:`bind_compiled` bound.

        The prefetch catch-up tests the controller's blocked-issue gate
        (``now <= _blocked_until``) here: while the held candidate
        cannot issue, ``issue_prefetches`` would only run
        ``MemoryController.gated_reclaim``, so the span runs that MSHR
        reclaim inline and makes no call.  ``has_candidates()`` stays
        the first test: with the queue empty no ``issue_prefetches``
        call is made, so no reclaim may run, gate armed or not.  It is
        read inline as the region or pending queue's state,
        ``_held is not None or _entries`` (the hierarchy's
        ``_candidates``: the queue, or an engine without one, whose
        own ``_held``/``_entries`` hold its candidates).

        The inlined paths count loads, stores and L1 misses in span
        locals and add them, with the L1 accesses and hits they imply,
        to the hierarchy's and the L1's stats when the span ends, unless
        it counted no reference.  Nothing that runs inside a span reads
        those counters: not the miss handler or the engine hooks it
        calls, not the metrics tick, not the adaptive epoch check.  The
        L1 is demand-only (its one fill site is the miss path), so its
        lines are always referenced and its shadow set is empty; the
        hit path tests neither.
        """
        (kinds, f0, f1, f2, hints, ref_names, n_events, general, access,
         directive, perfect_l1, l1_latency, l1_index, l1_sets, l1_shift,
         l1_set_mask, l1_stats, block_mask, hstats, metrics, series,
         controller, candidates, miss_path, note_access) = ctx
        window = self.window
        inv = self.inv_width
        ring = self._ring
        clock = self._clock
        head = self._head
        fill = self._fill
        since = self._since
        instructions = self.instructions
        load_stall = self.load_stall_cycles
        refs = 0
        n_loads = n_stores = n_misses = 0
        e = ring[head]
        # max(clock, ring[head]): first argument wins ties.
        now = clock if clock >= e else e
        try:
            while True:
                kind = kinds[pos]
                if kind <= K_STORE:
                    is_store = kind == K_STORE
                    if general:
                        ridx = f0[pos]
                        ready = access(
                            f1[pos], now, is_store=is_store,
                            ref_id=ref_names[ridx], hint=hints[ridx],
                        )
                    elif perfect_l1:
                        if is_store:
                            n_stores += 1
                        else:
                            n_loads += 1
                        ready = now + l1_latency
                    else:
                        # Hierarchy.access, inlined up to the L1 probe.
                        if is_store:
                            n_stores += 1
                        else:
                            n_loads += 1
                        # has_candidates(), as the queue's state read.
                        if candidates is not None and (
                                candidates._held is not None
                                or candidates._entries):
                            if now > controller._blocked_until:
                                controller.issue_prefetches(now)
                            else:
                                # The blocked-issue gate is armed: the
                                # held candidate cannot issue yet.  Only
                                # MemoryController.gated_reclaim's MSHR
                                # reclaim would run; it is inlined.
                                earliest = controller._held_queued_at
                                free = controller.dram._channel_free[
                                    controller._held_ch]
                                if free > earliest:
                                    earliest = free
                                free = controller.demand_busy_until
                                if free > earliest:
                                    earliest = free
                                mshrs = controller.mshrs
                                if earliest >= mshrs._min_ready:
                                    mshrs._reclaim(earliest)
                        if now >= series._next:
                            metrics.tick(now)
                        block = f1[pos] & block_mask
                        line = l1_index.get(block)
                        if line is not None:
                            # Cache.access_block hit path, inlined.
                            lines = l1_sets[
                                (block >> l1_shift) & l1_set_mask]
                            if lines[-1] is not line:
                                lines.remove(line)
                                lines.append(line)
                            if is_store:
                                line.dirty = True
                            ready = now + l1_latency
                        else:
                            n_misses += 1
                            ridx = f0[pos]
                            ready = miss_path(
                                block, f1[pos], now, is_store,
                                ref_names[ridx], hints[ridx],
                            )
                    latency = ready - now
                    # _issue(latency), inlined; `before` is the pre-issue
                    # clock (ring[head] is untouched by the access above).
                    before = clock
                    c = clock + inv
                    if e > c:
                        c = e
                    clock = c
                    ring[head] = c + latency
                    head += 1
                    if head == window:
                        head = 0
                    since += 1
                    instructions += 1
                    s = clock - before - inv
                    if s > 0.0:
                        load_stall += s
                    if note_access is not None:
                        # Adaptive epoch check at the same point, with
                        # the same post-issue clock, as step() — the
                        # boundary reads only counters both paths update
                        # identically, preserving fast==slow equivalence.
                        note_access(clock)
                    if limit_refs is not None:
                        refs += 1
                        if refs >= limit_refs:
                            pos += 1
                            break
                elif kind == K_OPS:
                    count = f0[pos]
                    if count <= 32:
                        # _issue_ops' exact small-batch path, inlined.
                        for _ in range(count):
                            e = ring[head]
                            clock = clock + inv
                            if e > clock:
                                clock = e
                            ring[head] = clock + 1.0
                            head += 1
                            if head == window:
                                head = 0
                        since += count
                        instructions += count
                    else:
                        # _issue_ops' closed form (count > 32), inlined
                        # (same operations, same order).
                        base = clock
                        clock = base + count * inv
                        if since < window:
                            # The refill memo: the unwritten slots, depths
                            # 0 .. lag-1, all hold `fill`, so the depth-0
                            # term stands for them; depth lag onward reads
                            # the written slots ring[0], ring[1], ...
                            if fill > base:
                                candidate = fill + count * inv
                                if candidate > clock:
                                    clock = candidate
                            lag = window - since
                            rem = count - lag
                            for slot in range(
                                    (count if count < window else window)
                                    - lag):
                                completion = ring[slot]
                                if completion > base:
                                    candidate = completion + (rem - slot) * inv
                                    if candidate > clock:
                                        clock = candidate
                        elif max(ring) > base:
                            slot = head
                            for d in range(
                                    count if count < window else window):
                                completion = ring[slot]
                                if completion > base:
                                    candidate = completion + (count - d) * inv
                                    if candidate > clock:
                                        clock = candidate
                                slot += 1
                                if slot == window:
                                    slot = 0
                        value = clock + 1.0
                        if count >= window:
                            ring[:] = [value] * window
                            head = 0
                            fill = value
                            since = 0
                        else:
                            end = head + count
                            if end <= window:
                                ring[head:end] = [value] * count
                                head = 0 if end == window else end
                            else:
                                ring[head:] = [value] * (window - head)
                                end -= window
                                ring[:end] = [value] * end
                                head = end
                            since += count
                        instructions += count
                else:
                    event = decode_directive(kind, f0[pos], f1[pos], f2[pos])
                    # _issue(1.0), inlined (e is still ring[head]).
                    c = clock + inv
                    if e > c:
                        c = e
                    clock = c
                    completion = c + 1.0
                    ring[head] = completion
                    head += 1
                    if head == window:
                        head = 0
                    since += 1
                    instructions += 1
                    directive(event, completion)
                pos += 1
                if pos == n_events:
                    break
                e = ring[head]
                now = clock if clock >= e else e
                if now >= frontier:
                    break
        finally:
            self._clock = clock
            self._head = head
            self._fill = fill
            self._since = since
            self.instructions = instructions
            self.load_stall_cycles = load_stall
            n_refs = n_loads + n_stores
            if n_refs:
                # Spans without a counted reference (co-run stretches of
                # ALU work, general-path spans) have nothing to add.
                hstats.loads += n_loads
                hstats.stores += n_stores
                if not perfect_l1:
                    # Every counted reference probed the L1 (the general
                    # path counts its own in Hierarchy.access).
                    l1_stats.demand_accesses += n_refs
                    l1_stats.demand_hits += n_refs - n_misses
                    l1_stats.demand_misses += n_misses
        return pos

    # ------------------------------------------------------------------
    # The oracle body: one event per step (single-core reference runs
    # through execute, the stepped co-run loop directly)
    # ------------------------------------------------------------------
    def begin_stepping(self):
        """Bind the per-step call targets before the first :meth:`step`.

        Binds the hierarchy's ``access`` and the adaptive ``note_access``
        hook once, for every later step.
        """
        self._step_access = self.hierarchy.access
        self._since = self.window  # step() does not keep the ring pair
        adapt = getattr(self.hierarchy, "adapt", None)
        self._step_note = adapt.note_access if adapt is not None else None

    def next_issue_at(self):
        """Cycle at which this core's next instruction would issue.

        ``max(clock, ring[head])`` — the same expression :meth:`step`
        computes for a memory reference's issue time; the multi-core
        arbiter uses it to pick which core steps next.
        """
        issue_at = self._clock
        earliest = self._ring[self._head]
        if earliest > issue_at:
            issue_at = earliest
        return issue_at

    def step(self, event):
        """Replay one trace event; return True for a memory reference.

        The oracle's per-event body.  :meth:`execute` loops over it for
        a single-core reference run, and the stepped co-run loop
        (:mod:`repro.sim.multicore`) calls it under its arbiter; each
        caller owns the reference count and termination.
        :meth:`begin_stepping` must run first.
        """
        etype = event.__class__
        if etype is MemRef:
            table = self.hint_table
            hint = table.get(event.ref_id) if table is not None else None
            issue_at = max(self._clock, self._ring[self._head])
            ready = self._step_access(
                event.addr, issue_at,
                is_store=event.is_store,
                ref_id=event.ref_id, hint=hint,
            )
            latency = ready - issue_at
            before = self._clock
            self._issue(latency)
            self.load_stall_cycles += max(
                0.0, self._clock - before - self.inv_width)
            if self._step_note is not None:
                self._step_note(self._clock)
            return True
        if etype is Ops:
            self._issue_ops(event.count)
            return False
        completion = self._issue(1.0)
        self.hierarchy.directive(event, completion)
        return False

    # ------------------------------------------------------------------
    @property
    def cycles(self):
        """Total execution cycles so far (issue front + in-flight work)."""
        return max(self._clock, max(self._ring))

    @property
    def ipc(self):
        cycles = self.cycles
        return self.instructions / cycles if cycles > 0 else 0.0
