"""Vectorized batch replay: the third backend under the fast==slow contract.

:func:`execute_vectorized` replays a :class:`~repro.trace.compiled.CompiledTrace`
by splitting it into *boring stretches* — references that provably hit
the L1 plus ALU ``Ops`` batches — punctuated by *interesting events*: L1
misses, software directives, prefetch-issue opportunities, metrics
sampling boundaries, adaptive-epoch boundaries, and the reference limit.
Interesting events run one at a time through
:meth:`repro.cpu.core.Core.run_span` with a ``-inf`` frontier — the same
per-event body ``execute_compiled`` and the fused co-run scheduler use.
Boring stretches are retired in bulk by the **uniform-ring walker**.

Real traces are barrier-dense: a loop-sized ``Ops`` batch
(``count >= window``) lands every handful of events, and
``Core._issue_ops`` refills the whole issue ring with a single value at
each one.  The walker exploits that: it tracks the ring as ``(fill value,
writes since the last barrier)`` instead of a materialized list, which
turns each barrier into an O(written-entries) closed form (uniform
entries all share one candidate, maximal at depth 0) and each
in-stretch reference into a few float operations.  The ring list is
materialized only when the walker hands off to the scalar body.

The walker shares the core's refill memo (``Core._fill``/``_since``, see
:mod:`repro.cpu.core`) instead of rescanning the ring: while the memo
holds, a walk starts as if the last refill were its own barrier, with
the ``_since`` slots written after it as its first tracked writes.  At
commit it leaves the memo as ``(fill, q)`` after a barrier and advances
``_since`` by ``q`` before one, and it hands the pair to and from each
scalar catch-up, so the fused loop, co-run stretches and the walker all
read one barrier.

Why the closed forms are exact
------------------------------
Under any supported configuration (power-of-two issue width, integer
cache latencies) every timestamp the core manipulates is an exact
multiple of ``1/issue_width`` far below the 2^52 mantissa limit, so each
float add/subtract/max the scalar loop performs is exact — and exact
operations can be reassociated freely, which is precisely what the
walker does.  L1 hit effects (LRU promotion, dirty bits, counters) are
committed inline against the real cache structures, in program order,
and a blocked prefetch gate's one side effect is replayed through
:meth:`repro.mem.controller.MemoryController.gated_reclaim`.  The result
is byte-identical ``RunResult.to_dict()`` output against the reference
path for every workload x scheme; the differential suite enforces it.

The backend falls back to :meth:`Core.execute_compiled` whenever the
configuration is unsupported (see :func:`supports`).
"""

from repro.trace.compiled import K_OPS, K_STORE

_NEG_INF = float("-inf")


def supports(core):
    """True when ``core``'s configuration preserves batch exactness.

    The batch math reassociates float operations, which is only exact
    when every timestamp is a dyadic rational: the issue width must be a
    power of two and the L1 latency an integer.  Every in-stretch
    completion latency (``1.0`` for ALU ops, the L1 latency for hits)
    must also fit inside one window rotation — the envelope the
    differential suite covers.  Reference runs, TLB configs, trace-sink
    runs, perfect-cache modes, and shared (multi-core) hierarchies take
    the fused or reference loops instead.
    """
    hierarchy = core.hierarchy
    if hierarchy.reference or hierarchy.tlb is not None \
            or hierarchy.metrics.sink is not None:
        return False
    if hierarchy.mode != "real":
        return False
    if getattr(hierarchy, "_shared", None) is not None:
        return False
    inv = core.inv_width
    width = 1.0 / inv
    if not width.is_integer():
        return False
    width = int(width)
    if width <= 0 or width & (width - 1):
        return False
    latency = hierarchy.l1.latency
    if not float(latency).is_integer():
        return False
    window_span = core.window * inv
    if latency < 0 or latency > window_span or 1.0 > window_span:
        return False
    return True


def execute_vectorized(core, trace, limit_refs=None):
    """Run ``trace`` on ``core`` with batched boring stretches.

    Byte-identical in every statistic to ``core.execute_compiled(trace,
    limit_refs)``; returns the final cycle count.  The caller is
    responsible for checking :func:`supports` first.
    """
    hierarchy = core.hierarchy
    hints = trace.resolve_hints(core.hint_table)
    ref_names = trace.ref_names
    kinds = trace.kinds
    f0, f1 = trace.f0, trace.f1
    n = len(kinds)
    W = core.window
    inv = core.inv_width
    ring = core._ring
    clock = core._clock
    head = core._head
    rfill = core._fill
    rsince = core._since
    instructions = core.instructions
    load_stall = core.load_stall_cycles
    refs = 0

    l1 = hierarchy.l1
    l1_index = l1._index
    l1_sets = l1._sets
    l1_shift = l1._block_shift
    l1_set_mask = l1._set_mask
    l1_stats = l1.stats
    l1_shadow = l1._shadow
    l1_lat_f = float(l1.latency)
    block_mask = hierarchy._block_mask
    hstats = hierarchy.stats
    series = hierarchy.metrics.series
    controller = hierarchy.controller
    has_candidates = hierarchy._has_candidates
    miss_path = hierarchy.access_after_l1_miss
    adapt = getattr(hierarchy, "adapt", None)
    note_access = adapt.note_access if adapt is not None else None
    ctx = core.bind_compiled(trace)
    run_span = core.run_span

    i = 0
    try:
        while i < n:
            # ----------------------------------------------------------
            # Stretch conditions at event i.
            # The prefetch-gate regime is constant across a stretch —
            # only misses, directives, and epoch boundaries change it,
            # and all of those end the stretch:
            #   A. no candidates -> issue_prefetches never called;
            #   B. blocked-issue cache armed -> each in-bound ref pays
            #      only the gate's idempotent MSHR reclaim;
            #   C. candidates pending, gate unarmed -> every ref would
            #      run a real issue burst: refs end the stretch.
            # ----------------------------------------------------------
            if has_candidates is None or not has_candidates():
                mode_b = False
                refs_ok = True
                blocked_until = 0.0
            elif controller._blocked_until != -1.0:
                mode_b = True
                refs_ok = True
                blocked_until = controller._blocked_until
            else:
                mode_b = False
                refs_ok = False
                blocked_until = 0.0
            nxt = series._next
            limit_rem = (limit_refs - refs) if limit_refs is not None \
                else n + 1
            if note_access is not None:
                # The ref that lands on the epoch boundary must run
                # scalar (the boundary samples and turns knobs).
                cap = adapt._next_boundary - adapt._accesses - 1
                if limit_rem < cap:
                    cap = limit_rem
            else:
                cap = limit_rem

            # ----------------------------------------------------------
            # Uniform-ring walker: retire boring stretches with the ring
            # held as (fill, writes-since-barrier) instead of a list.
            # q == len(wr) counts issues since the last barrier (or walk
            # start while fill is None); the value the next issue
            # consumes is fill (or the untouched pre-walk ring snapshot)
            # while q < W, and the tracked write at lag W after that.
            # When the core's refill memo holds, the walk starts at its
            # last refill and the first tracked writes are the memo's.
            # Every truncation check precedes the ref's effects, so hit
            # effects commit inline — exactly the fused loop's order —
            # with the counter bumps pooled into locals.
            #
            # Certainly-scalar events (directives, refs the current gate
            # regime or caps exclude, misses) skip the walk setup — a
            # walk that would break on its first event isn't worth
            # starting.
            # ----------------------------------------------------------
            kd0 = kinds[i]
            if kd0 == K_OPS:
                # In an issue-burst regime (refs end the walk at once) a
                # small-ops event would be a one-event walk — the scalar
                # inline loop is cheaper.  Closed-form-sized batches are
                # worth a walk in any regime.
                walkable = refs_ok or f0[i] > 32
            elif kd0 > K_OPS:
                walkable = False  # directive
            elif not refs_ok or cap <= 0:
                walkable = False  # issue burst or epoch boundary due
            elif mode_b:
                # Blocked-gate stretches keep misses scalar (the miss
                # path's MSHR traffic interleaves with the gate), so a
                # miss-first walk would break immediately.
                walkable = \
                    l1_index.get(f1[i] & block_mask) is not None
            else:
                walkable = True
            j = i
            if walkable:
                if rsince < W:
                    # The memo holds: the last refill is the walk's
                    # barrier and ring[:rsince] (head == rsince) its
                    # first tracked writes, already in the ring.
                    fill = rfill
                    q = kept = rsince
                    wr = ring[:q]
                else:
                    fill = None
                    q = 0
                    kept = -1
                    wr = []
                clock_s = clock
                stall_acc = 0.0
                instr_acc = 0
                wref_n = 0
                hit_n = 0
                miss_n = 0
                poll_n = 0
                useful_n = 0
                loads_n = 0
                stores_n = 0
                limit_hit = False
            while walkable and j < n:
                kd = kinds[j]
                if kd <= K_STORE:
                    if not refs_ok or wref_n >= cap:
                        break
                    block = f1[j] & block_mask
                    line = l1_index.get(block)
                    if line is None and mode_b:
                        break
                    if q < W:
                        if fill is not None:
                            e = fill
                        else:
                            p = head + q
                            e = ring[p - W] if p >= W else ring[p]
                    else:
                        e = wr[q - W]
                    now = clock_s if clock_s >= e else e
                    if now >= nxt:
                        break
                    if mode_b and now > blocked_until:
                        break
                    if kd == K_STORE:
                        stores_n += 1
                    else:
                        loads_n += 1
                    seeded = False
                    if line is not None:
                        lines = l1_sets[
                            (block >> l1_shift) & l1_set_mask]
                        if lines[-1] is not line:
                            lines.remove(line)
                            lines.append(line)
                        if not line.referenced:
                            line.referenced = True
                            useful_n += 1
                        if kd == K_STORE:
                            line.dirty = True
                        hit_n += 1
                        lat = l1_lat_f
                    else:
                        # Candidate-free stretches take the full miss
                        # machinery inline: it reads/mutates only the
                        # hierarchy (never the issue ring), and `now`
                        # is already exact.  A miss may *seed* prefetch
                        # candidates, changing the gate regime for the
                        # refs after it — checked below.
                        miss_n += 1
                        if l1_shadow and \
                                l1_shadow.pop(block, None) is not None:
                            poll_n += 1
                        ridx = f0[j]
                        ready = miss_path(
                            block, f1[j], now, kd == K_STORE,
                            ref_names[ridx], hints[ridx],
                        )
                        lat = ready - now
                        seeded = has_candidates is not None \
                            and has_candidates()
                    c = clock_s + inv
                    if e > c:
                        c = e
                        s = c - clock_s - inv
                        if s > 0.0:
                            stall_acc += s
                    clock_s = c
                    wr.append(c + lat)
                    q += 1
                    wref_n += 1
                    instr_acc += 1
                    j += 1
                    if wref_n >= limit_rem:
                        limit_hit = True
                        break
                    if seeded:
                        break
                elif kd == K_OPS:
                    cnt = f0[j]
                    if cnt <= 32:
                        for _ in range(cnt):
                            if q < W:
                                if fill is not None:
                                    e = fill
                                else:
                                    p = head + q
                                    e = ring[p - W] if p >= W \
                                        else ring[p]
                            else:
                                e = wr[q - W]
                            c = clock_s + inv
                            if e > c:
                                c = e
                            clock_s = c
                            wr.append(c + 1.0)
                            q += 1
                        instr_acc += cnt
                        j += 1
                    else:
                        # Core._issue_ops' closed form, over the
                        # consume-order sources: depth d of this batch
                        # consumes index q + d, which is a uniform-fill
                        # entry, an untouched pre-walk ring slot, or one
                        # of the walk's own writes.  Uniform entries all
                        # share one candidate (maximal at depth 0), so
                        # only the min(cnt, W) tracked writes in range
                        # need walking.
                        base = clock_s
                        newclock = base + cnt * inv
                        hi = q + (cnt if cnt < W else W)
                        if q < W:
                            pend = W if hi > W else hi
                            if fill is not None:
                                if fill > base:
                                    cand = fill + cnt * inv
                                    if cand > newclock:
                                        newclock = cand
                            else:
                                p = head + q
                                if p >= W:
                                    p -= W
                                for idx in range(q, pend):
                                    v = ring[p]
                                    if v > base:
                                        cand = v + (cnt - (idx - q)) * inv
                                        if cand > newclock:
                                            newclock = cand
                                    p += 1
                                    if p == W:
                                        p = 0
                            lo = W
                        else:
                            lo = q
                        for idx in range(lo, hi):
                            v = wr[idx - W]
                            if v > base:
                                cand = v + (cnt - (idx - q)) * inv
                                if cand > newclock:
                                    newclock = cand
                        clock_s = newclock
                        if cnt >= W:
                            # Full refill: the whole ring becomes one
                            # uniform value and tracking restarts.
                            fill = newclock + 1.0
                            wr = []
                            q = 0
                            kept = -1
                        else:
                            # Partial refill: cnt uniform writes at the
                            # next cnt consume positions.
                            wr.extend([newclock + 1.0] * cnt)
                            q += cnt
                        instr_acc += cnt
                        j += 1
                else:
                    break  # directive: messages the prefetch engine
            consumed = j - i
            if consumed:
                if wref_n:
                    l1_stats.demand_accesses += wref_n
                    if hit_n:
                        l1_stats.demand_hits += hit_n
                    if miss_n:
                        l1_stats.demand_misses += miss_n
                    if poll_n:
                        l1_stats.pollution_misses += poll_n
                    if useful_n:
                        l1_stats.useful_prefetches += useful_n
                    if loads_n:
                        hstats.loads += loads_n
                    if stores_n:
                        hstats.stores += stores_n
                    if stall_acc > 0.0:
                        load_stall += stall_acc
                    if note_access is not None:
                        adapt._accesses += wref_n
                    if mode_b:
                        controller.gated_reclaim()
                    refs += wref_n
                instructions += instr_acc
                clock = clock_s
                if fill is None:
                    # Only the last min(q, W) writes survive; untouched
                    # positions keep their pre-walk values.  wr[t] sits
                    # at ring position (head + t) % W — two slices.
                    t0 = q - W if q > W else 0
                    cnt_w = q - t0
                    a = (head + t0) % W
                    first = W - a
                    if first >= cnt_w:
                        ring[a:a + cnt_w] = wr[t0:q]
                    else:
                        ring[a:] = wr[t0:t0 + first]
                        ring[:cnt_w - first] = wr[t0 + first:q]
                    head = (head + q) % W
                    rsince += q
                else:
                    # Post-barrier ring: head lands on q % W and wr[t]
                    # sits at position t % W (the head offset and the
                    # write offset cancel mod W); everything else is
                    # the last barrier's uniform fill.
                    head = q % W
                    if q >= W:
                        s0 = q - W
                        ring[head:] = wr[s0:q - head]
                        ring[:head] = wr[q - head:q]
                    elif kept < 0:
                        ring[:q] = wr
                        ring[q:] = [fill] * (W - q)
                    else:
                        # No barrier in the walk: only the new writes
                        # land, after the `kept` ones already there.
                        ring[kept:q] = wr[kept:]
                    rfill = fill
                    rsince = q
                i = j
                if limit_hit:
                    break
            if j >= n:
                break

            # ----------------------------------------------------------
            # Scalar catch-up: one interesting event through the shared
            # per-event body (a -inf frontier runs exactly one event).
            # ----------------------------------------------------------
            core._clock = clock
            core._head = head
            core._fill = rfill
            core._since = rsince
            core.instructions = instructions
            core.load_stall_cycles = load_stall
            run_span(ctx, i, _NEG_INF)
            clock = core._clock
            head = core._head
            rfill = core._fill
            rsince = core._since
            instructions = core.instructions
            load_stall = core.load_stall_cycles
            if kinds[i] <= K_STORE:
                refs += 1
                if limit_refs is not None and refs >= limit_refs:
                    break
            i += 1
    finally:
        core._clock = clock
        core._head = head
        core._fill = rfill
        core._since = rsince
        core.instructions = instructions
        core.load_stall_cycles = load_stall
    return core.cycles
