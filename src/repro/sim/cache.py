"""Persistent, content-keyed cache of simulation results.

Each entry is one JSON file named by the RunSpec's content digest salted
with the package version, so a cached result is returned only for an
*identical* spec under an *identical* simulator version — bumping
``repro.__version__`` invalidates every entry at once.

The default cache directory is ``.repro-cache`` under the current working
directory; override it with the ``cache_dir`` argument or the
``REPRO_CACHE_DIR`` environment variable.  Entries are written atomically
(temp file + rename).  A *missing* entry is a plain miss; an entry that
exists but cannot be parsed (truncated write, disk corruption, an
injected ``corrupt`` fault) is **quarantined** — moved aside into
``<cache_dir>/quarantine/`` with a logged warning — and then treated as
a miss, so one bad file costs one recomputation instead of poisoning
every later sweep or propagating an exception into the batch runner.

Concurrent clients
------------------
The cache directory may be shared by many processes at once — batch
workers, supervised sweeps, and every worker of a ``repro.serve`` HTTP
front end.  Safety rests on two mechanisms:

* **Atomic replace.**  Every mutation of an entry file (fresh write,
  quarantine move) goes through ``os.replace`` of a same-directory temp
  file, so a reader sees either the complete old bytes or the complete
  new bytes, never a torn mix.  Two writers racing on the same entry is
  last-write-wins, which is harmless: equal specs produce equal results.
* **An advisory cross-process lock** (:class:`FileLock` on
  ``<cache_dir>/.lock``) serializing *mutations* — writes and
  quarantine moves.  This closes the one genuinely destructive race:
  a reader deciding an entry is corrupt while a writer is concurrently
  replacing it with a good one could otherwise quarantine the fresh
  entry.  Under the lock the reader re-parses before moving anything,
  so a healthy entry is never quarantined.  Readers take no lock.

The lock uses ``fcntl.flock`` where available and silently degrades to
a no-op elsewhere (e.g. Windows, or exotic filesystems where ``fcntl``
raises): with no lock the atomic-replace guarantees above still hold —
the only regression is the narrow quarantine-vs-rewrite race, whose
worst case is one spurious recomputation, and the quarantine machinery
already tolerates exactly that.
"""

import json
import logging
import os
import pathlib
import tempfile
import threading

try:  # POSIX advisory locking; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None

from repro.sim.stats import result_from_dict

log = logging.getLogger(__name__)

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory (under the cache dir) where corrupt entries are parked.
QUARANTINE_DIR = "quarantine"

#: Lock file (under the cache dir) serializing cross-process mutations.
LOCK_FILE = ".lock"


class FileLock:
    """Advisory cross-process mutex over a lock file.

    ``with FileLock(path):`` holds an exclusive ``fcntl.flock`` on
    ``path`` (created on first use), nested inside a process-level
    ``threading.RLock``: threads of one process serialize on the RLock
    (flock would not distinguish them — the kernel locks per open file,
    and a second flock on the same handle succeeds immediately), and
    distinct processes serialize on the flock.  Reentrant in both
    layers, so nested cache operations cannot self-deadlock.

    Where ``fcntl`` is unavailable (non-POSIX platforms) or the
    filesystem rejects it, the cross-process layer degrades to a no-op:
    see the module docstring for why correctness survives — atomic
    replace alone keeps readers consistent, and the unguarded
    quarantine race costs at most one spurious recomputation.
    """

    def __init__(self, path):
        self.path = str(path)
        self._handle = None
        self._depth = 0
        self._thread_lock = threading.RLock()

    def acquire(self):
        """Take the exclusive lock (blocking); no-op without fcntl."""
        self._thread_lock.acquire()
        self._depth += 1
        if self._depth > 1 or fcntl is None:
            return
        try:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = open(self.path, "a+")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - fs without flock support
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
            self._handle = None

    def release(self):
        """Drop the lock once the outermost holder exits."""
        self._depth -= 1
        if self._depth == 0 and self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
            try:
                self._handle.close()
            except OSError:  # pragma: no cover
                pass
            self._handle = None
        self._thread_lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


def version_salt():
    """The version string mixed into every entry digest.

    Bumping ``repro.__version__`` changes the salt, which changes every
    entry's file name — i.e. a whole-cache invalidation.  The sweep
    supervisor keys its checkpoint journal with the same salt so stale
    journals invalidate in lockstep.
    """
    import repro  # late: repro's package init imports repro.sim
    return "repro-%s" % repro.__version__


class ResultCache:
    """Disk-backed {RunSpec digest: SimStats} mapping."""

    def __init__(self, cache_dir=None):
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.cache_dir = pathlib.Path(cache_dir)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.lock = FileLock(self.cache_dir / LOCK_FILE)

    # ------------------------------------------------------------------
    def path_for(self, spec):
        """The entry file a spec maps to (may not exist)."""
        return self.cache_dir / ("%s.json" % spec.digest(version_salt()))

    def path_for_digest(self, digest):
        """The entry file a precomputed digest maps to (may not exist).

        The digest-addressed twin of :meth:`path_for`, for callers that
        hold only the content hash — the ``repro.serve`` result endpoint
        resolves ``GET /results/<digest>`` through this.
        """
        return self.cache_dir / ("%s.json" % digest)

    def get(self, spec):
        """Return the cached SimStats for ``spec``, or None on a miss.

        A present-but-unparseable entry is quarantined (see
        :meth:`_quarantine`) and reported as a miss, so the caller simply
        recomputes — corruption never propagates as an exception.
        """
        stats = self._read(self.path_for(spec))
        if stats is None:
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def get_digest(self, digest):
        """Like :meth:`get`, keyed by a precomputed entry digest.

        Returns the rehydrated result or None; corrupt entries are
        quarantined exactly as in :meth:`get`.  Hit/miss counters tick
        the same way, so ``repro.serve`` result lookups show up in the
        cache statistics.
        """
        stats = self._read(self.path_for_digest(digest))
        if stats is None:
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def _read(self, path):
        """Parse one entry file; quarantine-and-None when unparseable."""
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            payload = json.loads(text)
            return result_from_dict(payload["stats"])
        except (ValueError, KeyError, TypeError) as exc:
            return self._quarantine(path, exc)

    def _quarantine(self, path, exc):
        """Move a corrupt entry into ``quarantine/`` and log it.

        Runs under the cross-process :class:`FileLock` and re-parses the
        entry first: if a concurrent writer has already replaced the
        corrupt bytes with a good entry, that entry is returned instead
        of being quarantined — a healthy result is never moved aside.
        The corrupt file itself is preserved (not deleted) so the
        corruption can be inspected post-mortem; if even the move fails
        the entry is unlinked as a last resort so it cannot shadow a
        fresh write.  Returns the re-parsed result or None.
        """
        with self.lock:
            try:
                payload = json.loads(path.read_text())
                return result_from_dict(payload["stats"])
            except OSError:
                return None  # already quarantined/overwritten by another
            except (ValueError, KeyError, TypeError):
                pass  # still corrupt under the lock: quarantine it
            self.quarantined += 1
            log.warning("quarantining corrupt cache entry %s (%s: %s); "
                        "the result will be recomputed",
                        path.name, type(exc).__name__, exc)
            target = self.cache_dir / QUARANTINE_DIR / path.name
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                os.replace(str(path), str(target))
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
            return None

    def put(self, spec, stats):
        """Store one result.  Atomic: readers never see partial entries.

        The temp file lives in the cache directory itself so
        ``os.replace`` is a same-filesystem rename; the write happens
        under the cross-process :class:`FileLock` so it cannot interleave
        with a quarantine move of the same entry.
        """
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # json.dumps, not json.dump: the same bytes, but dump always
        # runs the pure-Python encoder and dumps the C one.
        data = json.dumps({
            "version": version_salt(),
            "spec": spec.to_dict(),
            "stats": stats.to_dict(),
        }, sort_keys=True)
        with self.lock:
            fd, tmp = tempfile.mkstemp(dir=str(self.cache_dir),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(data)
                os.replace(tmp, self.path_for(spec))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    # ------------------------------------------------------------------
    def __len__(self):
        try:
            return sum(1 for _ in self.cache_dir.glob("*.json"))
        except OSError:
            return 0

    def clear(self):
        """Delete every cache entry (the directory itself is kept)."""
        for path in self.cache_dir.glob("*.json"):
            try:
                path.unlink()
            except OSError:
                pass

    def __repr__(self):
        return ("ResultCache(%r, %d entries, %d hits, %d misses, "
                "%d quarantined)" % (
                    str(self.cache_dir), len(self), self.hits, self.misses,
                    self.quarantined,
                ))
