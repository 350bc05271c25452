"""The adaptive controller: epoch machinery plus knob application.

One :class:`AdaptiveController` is owned by one adaptive prefetch engine
(see :mod:`repro.adapt.engines`) and created when the engine attaches to
its hierarchy.  The CPU's two per-event bodies — the oracle
:meth:`Core.step` (which :meth:`Core.execute` and the stepped co-run
loop run) and the compiled :meth:`Core.run_span` — call
:meth:`note_access` once per memory reference with the post-issue
clock; every
``config.adapt_epoch_accesses`` references the controller closes an
epoch: the :class:`~repro.adapt.monitor.FeedbackMonitor` produces a
delta sample, the :class:`~repro.adapt.policy.ThrottlePolicy` decides,
and any returned settings are applied to the live hardware knobs:

============== ===================================================
knob           hardware site
============== ===================================================
region_size    the engine's region queue default / GRP size cap
issue_budget   ``MemoryController.prefetch_budget`` (per-call cap)
insert_depth   ``Cache.set_prefetch_insert`` on the L2
enabled        engine miss-gating + queue flush on disable
============== ===================================================

Everything the boundary touches is identical on the fast and slow paths
(it reads counters both paths update the same way, at the same point in
the instruction stream, with the same clock), so adaptive runs preserve
the fast==slow byte-identical equivalence contract.

The controller also records a bounded knob/sample trajectory for the
run's statistics: when the row list hits ``max_trajectory`` it is
decimated (keep every other row, double the recording stride), the same
scheme the metrics layer's interval series uses — deterministic, bounded
memory, and the surviving rows still span the whole run.
"""

from repro.adapt.monitor import FeedbackMonitor
from repro.adapt.policy import KnobState, resolve_policy


class AdaptiveController:
    """Epoch loop + knob application for one adaptive engine."""

    def __init__(self, engine, hierarchy, config, policy=None,
                 max_trajectory=256):
        self.engine = engine
        self.hierarchy = hierarchy
        self.config = config
        self.policy = resolve_policy(policy, config)
        self.epoch_accesses = config.adapt_epoch_accesses
        if self.epoch_accesses <= 0:
            raise ValueError("adapt_epoch_accesses must be positive")
        self.monitor = FeedbackMonitor(hierarchy)
        self.knobs = KnobState(
            region_size=config.region_size,
            issue_budget=hierarchy.controller.prefetch_budget,
            insert_depth=hierarchy.l2.prefetch_insert_depth,
            enabled=True, level=0,
        )
        self.epochs = 0
        self.knob_changes = 0
        self.disabled_epochs = 0
        self.flushed_candidates = 0
        self._accesses = 0
        self._next_boundary = self.epoch_accesses
        self._trajectory = []
        self._traj_stride = 1
        self._max_trajectory = max_trajectory
        initial = self.policy.initial()
        if initial is not None:
            self._apply(initial)
            # The configured starting point is not a knob *change*.
            self.knob_changes = 0

    # ------------------------------------------------------------------
    def note_access(self, now):
        """Count one memory reference; close an epoch on the boundary.

        Called from the replay loops' per-reference path — keep it cheap.
        """
        self._accesses += 1
        if self._accesses >= self._next_boundary:
            self._epoch_boundary(now)

    def _epoch_boundary(self, now):
        self._next_boundary += self.epoch_accesses
        self.epochs += 1
        if not self.knobs.enabled:
            self.disabled_epochs += 1
        sample = self.monitor.sample(now, self.epoch_accesses)
        settings = self.policy.decide(sample, self.knobs)
        if settings is not None:
            self._apply(settings)
        if self.epochs % self._traj_stride == 0:
            self._record(sample, now)

    # ------------------------------------------------------------------
    def _apply(self, settings):
        """Push a policy's settings dict onto the live hardware knobs."""
        knobs = self.knobs
        changed = False
        enabled = settings.get("enabled")
        if enabled is not None and enabled != knobs.enabled:
            changed = True
            knobs.enabled = enabled
            if not enabled:
                self.flushed_candidates += self.engine.flush_pending()
        region_size = settings.get("region_size")
        if region_size is not None and region_size != knobs.region_size:
            changed = True
            knobs.region_size = region_size
            self.engine.apply_region_size(region_size)
        budget = settings.get("issue_budget")
        if budget is not None and budget != knobs.issue_budget:
            changed = True
            knobs.issue_budget = budget
            self.hierarchy.controller.prefetch_budget = budget
        depth = settings.get("insert_depth")
        if depth is not None and depth != knobs.insert_depth:
            changed = True
            knobs.insert_depth = depth
            self.hierarchy.l2.set_prefetch_insert(depth)
        level = settings.get("level")
        if level is not None:
            knobs.level = level
        if changed:
            self.knob_changes += 1

    def _record(self, sample, now):
        row = {
            "epoch": self.epochs,
            "cycle": round(float(now), 3),
            "level": self.knobs.level,
            "enabled": self.knobs.enabled,
            "region_size": self.knobs.region_size,
            "issue_budget": self.knobs.issue_budget,
            "insert_depth": self.knobs.insert_depth,
        }
        row.update(sample.to_dict())
        trajectory = self._trajectory
        trajectory.append(row)
        if len(trajectory) >= self._max_trajectory:
            # Decimate: keep every other row, double the stride.
            del trajectory[::2]
            self._traj_stride *= 2

    # ------------------------------------------------------------------
    def snapshot(self):
        """Plain-data summary for :class:`~repro.sim.stats.SimStats`."""
        return {
            "policy": self.policy.name,
            "epoch_accesses": self.epoch_accesses,
            "epochs": self.epochs,
            "knob_changes": self.knob_changes,
            "disabled_epochs": self.disabled_epochs,
            "flushed_candidates": self.flushed_candidates,
            "final": self.knobs.to_dict(),
            "trajectory": [dict(row) for row in self._trajectory],
        }
