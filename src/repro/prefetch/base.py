"""Prefetcher interface.

All prefetch engines (SRP, GRP, stride stream buffers, pointer) plug into
the hierarchy through this interface.  The hierarchy calls the ``on_*``
hooks as the access stream unfolds; the memory controller pulls candidates
with :meth:`pop_candidate` whenever a DRAM channel is idle.

The base class is a correct null prefetcher: every hook is a no-op and no
candidates are ever produced, which is exactly the "no prefetching"
baseline configuration.
"""


class Prefetcher:
    """Base class and null implementation."""

    name = "none"

    #: Region schemes (SRP/GRP/pointer) install prefetched blocks in the L2
    #: (at the LRU position); stream-buffer schemes set this False and keep
    #: prefetched data in private buffer storage instead.
    fills_l2 = True

    #: The candidate state the replay loops read per reference, as on a
    #: region or pending queue: ``_held is not None or _entries`` must
    #: agree with :meth:`has_candidates`.  The base engine holds none;
    #: an engine that queues candidates itself (stride) keeps them in
    #: ``_entries``.
    _held = None
    _entries = ()

    def __init__(self):
        self.hierarchy = None
        self.space = None
        self.config = None
        #: Prefetch hits served from prefetcher-private storage (stream
        #: buffers); region schemes leave this at zero because their fills
        #: land in the L2, whose stats count usefulness.
        self.private_useful = 0
        self.private_fills = 0

    def attach(self, hierarchy, space, config):
        """Wire the engine to a hierarchy.  Called once by the hierarchy."""
        self.hierarchy = hierarchy
        self.space = space
        self.config = config

    # ------------------------------------------------------------------
    # Event hooks (called by the hierarchy)
    # ------------------------------------------------------------------
    def on_l2_access(self, block, addr, ref_id, hint, now, was_hit):
        """Every access that reaches the L2 (i.e. every L1 miss)."""

    def on_l2_miss(self, block, addr, ref_id, hint, now):
        """A demand L2 miss; the canonical trigger for region prefetching."""

    def on_demand_fill(self, block, ref_id, hint, ready):
        """The missing line arrived from DRAM (GRP scans it for pointers)."""

    def on_prefetch_fill(self, request, ready):
        """A prefetched line arrived (recursive pointer chase continues).

        For engines that fill the L2 (``fills_l2``) the hook is called
        only for ``request.depth > 0``: a depth-0 candidate has no
        pointer levels left to follow, and the prefetch drain skips the
        call, the request it would build and the queue-head re-select.
        The per-candidate oracle loop still calls it at depth 0, so there
        it must change nothing.  Stream-buffer engines (``fills_l2``
        False) take only the oracle loop and see every fill.
        """

    def on_directive(self, event, now):
        """A software directive from the trace (loop bound / indirect pf)."""

    # ------------------------------------------------------------------
    # Candidate supply (called by the memory controller)
    # ------------------------------------------------------------------
    def on_candidate_dropped(self, request):
        """The controller dropped a candidate (target already resident)."""

    def probe(self, block, now):
        """Return data-ready cycle if the engine privately holds ``block``.

        Stream-buffer schemes store prefetched data outside the L2; a miss
        that hits a buffer is served from here.  Region schemes return None.
        """
        return None

    def has_candidates(self):
        """True when :meth:`pop_candidate` could return a request.

        The controller's issue loop is called before every demand access;
        this cheap probe lets it (and the hierarchy's fast path) skip the
        loop entirely while the queue is verifiably empty.  May report
        True for a queue holding only exhausted entries — pruning those is
        :meth:`pop_candidate`'s job, and some engines sample the queue
        depth before pruning.
        """
        return False

    def pop_candidate(self, now, dram):
        """Return the next :class:`PrefetchRequest` to issue, or None."""
        return None

    def push_back(self, request):
        """Return an unissuable candidate to the head of the queue."""

    # ------------------------------------------------------------------
    def stats_snapshot(self):
        """Engine-private counters folded into the run's statistics."""
        return {
            "private_useful": self.private_useful,
            "private_fills": self.private_fills,
        }


class NullPrefetcher(Prefetcher):
    """Explicit alias for the no-prefetching baseline."""

    name = "none"
