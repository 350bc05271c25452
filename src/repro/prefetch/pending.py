"""Head-stable FIFO candidate queue for the literature-derived engines.

The SRP/GRP :class:`~repro.prefetch.regionqueue.RegionQueue` stores
*region entries* and derives candidates from bitvectors; the Gaze and
pointer-chase engines instead compute explicit block lists at trigger
time, so they queue ready-made :class:`~repro.mem.controller.
PrefetchRequest` objects directly.  This queue gives them the same
contract the rest of the system expects from an engine's ``queue``
attribute:

* **Head stability.**  :meth:`push_back` holds the candidate in a
  dedicated slot and the next :meth:`pop_candidate` returns it verbatim,
  which is what lets the memory controller arm its blocked-issue cache
  (see ``MemoryController.issue_prefetches``) instead of re-probing the
  queue on every demand access.
* **Metrics compatibility.**  ``len(queue)`` is sampled for the
  queue-depth timeseries and ``region_splits`` is read by the metrics
  summary (always zero here: explicit block lists never straddle-split).
* **Adaptive compatibility.**  ``region_size`` is a plain attribute the
  :class:`~repro.adapt.controller.AdaptiveController`'s knob ladder can
  write (engines give it meaning — Gaze caps replay length with it), and
  :meth:`flush` drops everything for the disable transition, returning
  the count so the throttle can report it.
* **State read.**  :meth:`has_candidates` is ``_held is not None or
  bool(_entries)``, the region queue's test on the same two attribute
  names, so ``Core.run_span``, ``Hierarchy.access`` and the prefetch
  drain read it inline for either queue.

The queue is bounded; when full, the *oldest* pending candidate falls
off the front, mirroring the region queue's drop-from-the-bottom policy
(the newest trigger is the most likely to matter).
"""

from collections import deque


class PendingQueue:
    """Bounded FIFO of PrefetchRequests with a push-back hold slot."""

    def __init__(self, capacity, region_size, block_size):
        self.capacity = capacity
        #: Adaptive region-size knob target (bytes).  The queue itself
        #: does not consume it; the owning engine reads it at trigger
        #: time (e.g. Gaze caps how far a replay may run).
        self.region_size = region_size
        self.block_size = block_size
        #: Metrics-summary compatibility: explicit block-list engines
        #: never split an allocation across regions.
        self.region_splits = 0
        self.candidates_queued = 0
        self.candidates_issued = 0
        self.dropped_overflow = 0
        self._entries = deque()  # pending requests, oldest first
        self._held = None  # candidate returned by push_back

    def __len__(self):
        return len(self._entries) + (1 if self._held is not None else 0)

    # ------------------------------------------------------------------
    def push(self, request):
        """Append one candidate; the oldest falls off when full."""
        self._entries.append(request)
        self.candidates_queued += 1
        if len(self._entries) > self.capacity:
            self._entries.popleft()
            self.dropped_overflow += 1

    def has_candidates(self):
        return self._held is not None or bool(self._entries)

    def pop_candidate(self, now, dram=None):
        """Return the next candidate (held-first), or None when empty."""
        if self._held is not None:
            request, self._held = self._held, None
            return request
        if not self._entries:
            return None
        self.candidates_issued += 1
        return self._entries.popleft()

    def push_back(self, request):
        """Hold an unissuable candidate; the next pop returns it."""
        self._held = request

    def flush(self):
        """Drop every queued candidate (and any held one); return count."""
        count = len(self._entries)
        self._entries.clear()
        if self._held is not None:
            count += 1
            self._held = None
        return count
