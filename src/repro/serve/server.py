"""The asyncio HTTP layer of the serve subsystem (stdlib only).

A deliberately small HTTP/1.1 server — request line + headers +
``Content-Length`` body in, one response (or one chunked stream) out,
``Connection: close`` — built directly on :func:`asyncio.start_server`
so the service adds **no dependencies** beyond the standard library.
The interesting work all happens in the layers it fronts:

========================  ============================================
``POST /runs``            validate the body with ``spec_from_dict(...,
                          strict=True)`` (400 on any malformed field),
                          enqueue a :class:`~repro.serve.jobs.Job`
                          (503 when the bounded queue is full), answer
                          202 with the job id and the cells' digests.
``GET /jobs/<id>``        job snapshot; progress is derived by tailing
                          the supervisor's checkpoint journal.  With
                          ``?stream=1`` the response is a chunked
                          JSONL feed of journal records, live until
                          the job finishes.
``GET /jobs``             id + state of every job, oldest first.
``GET /results/<digest>`` the cached result as canonical JSON
                          (:func:`~repro.sim.stats.result_to_json` —
                          byte-identical to a direct ``execute()``).
                          The digest is a **strong ETag**:
                          ``If-None-Match`` hitting it answers 304
                          with no body, so a hot sweep's polling
                          clients cost neither compute nor bandwidth.
                          404 for unknown or malformed digests.
``GET /healthz``          liveness + version salt.
``GET /stats``            queue depth, worker states, cell counters,
                          cache hit rate (the zero-compute fast path
                          is observable here).
========================  ============================================

Results are served straight out of the shared
:class:`~repro.sim.cache.ResultCache` directory, so *any* producer —
this server, another server on the same cache, a plain CLI sweep —
populates the memo table every client reads.
"""

import asyncio
import json
import re
import threading
import urllib.parse

from repro.sim.cache import version_salt
from repro.sim.spec import spec_from_dict
from repro.sim.stats import result_to_json
from repro.serve.jobs import QueueFull

#: Hard cap on request-body size (a spec matrix is a few KB; anything
#: near this is abuse, answered with 413).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds allowed for reading one request (line, headers, and body).
REQUEST_TIMEOUT = 30.0

#: Seconds between checkpoint-journal polls while streaming progress.
STREAM_POLL_INTERVAL = 0.05

#: A result digest: 64 lowercase hex chars (sha256).  Anything else is
#: a 404 before the filesystem is consulted — no path traversal.
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 204: "No Content", 304: "Not Modified",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Internal: malformed HTTP or body; mapped to a 4xx response."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


def _json_bytes(payload):
    """Readable JSON for API envelopes (jobs, stats, errors)."""
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


class Server:
    """The HTTP front end over a :class:`~repro.serve.jobs.JobManager`.

    Two ways to run it: :meth:`run_forever` serves on the calling
    thread until interrupted (the ``python -m repro.serve`` path), and
    :meth:`start`/:meth:`stop` run the event loop on a daemon thread
    (the tests' and embedding path).  ``port=0`` binds an ephemeral
    port; :attr:`port` holds the real one once the server is up.
    """

    def __init__(self, manager, host="127.0.0.1", port=0):
        self.manager = manager
        self.host = host
        self.port = port
        self._requested_port = port
        self._loop = None
        self._stop_event = None
        self._thread = None
        self._ready = threading.Event()
        self._startup_error = None

    # -- lifecycle -----------------------------------------------------
    async def _main(self, on_ready=None):
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self._requested_port)
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        self.manager.start()
        self._ready.set()
        if on_ready is not None:
            on_ready(self)
        async with server:
            await self._stop_event.wait()

    def run_forever(self, on_ready=None):
        """Serve on the calling thread until :meth:`stop` or Ctrl-C."""
        try:
            asyncio.run(self._main(on_ready=on_ready))
        except KeyboardInterrupt:
            pass

    def start(self):
        """Serve on a daemon thread; block until bound; return the port."""
        self._thread = threading.Thread(
            target=self.run_forever, name="serve-http", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self.port

    def stop(self):
        """Stop the event loop (threadsafe) and join the serving thread."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    # -- HTTP plumbing -------------------------------------------------
    async def _handle_connection(self, reader, writer):
        try:
            try:
                method, path, query = await asyncio.wait_for(
                    self._read_head(reader), REQUEST_TIMEOUT)
                headers, body = await asyncio.wait_for(
                    self._read_rest(reader), REQUEST_TIMEOUT)
            except _BadRequest as exc:
                await self._respond(writer, exc.status,
                                    _json_bytes({"error": str(exc)}))
                return
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ValueError, ConnectionError):
                return  # client went away or never sent a request
            try:
                await self._dispatch(writer, method, path, query,
                                     headers, body)
            except _BadRequest as exc:
                await self._respond(writer, exc.status,
                                    _json_bytes({"error": str(exc)}))
            except ConnectionError:
                pass
            except Exception as exc:  # never take the server down
                await self._respond(writer, 500, _json_bytes(
                    {"error": "%s: %s" % (type(exc).__name__, exc)}))
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader):
        line = await reader.readline()
        if not line.strip():
            raise ValueError("empty request")
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest(400, "malformed request line")
        parts = urllib.parse.urlsplit(target)
        query = dict(urllib.parse.parse_qsl(parts.query))
        return method.upper(), parts.path, query

    async def _read_rest(self, reader):
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, "request body over %d bytes"
                              % MAX_BODY_BYTES)
        body = await reader.readexactly(length) if length else b""
        return headers, body

    async def _respond(self, writer, status, body=b"", extra=()):
        head = ["HTTP/1.1 %d %s" % (status,
                                    _STATUS_TEXT.get(status, "Unknown")),
                "Content-Type: application/json; charset=utf-8",
                "Content-Length: %d" % len(body),
                "Connection: close"]
        head.extend("%s: %s" % pair for pair in extra)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        if body:
            writer.write(body)
        await writer.drain()

    # -- routing -------------------------------------------------------
    async def _dispatch(self, writer, method, path, query, headers, body):
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, _json_bytes(
                {"status": "ok", "version": version_salt()}))
        elif path == "/stats" and method == "GET":
            await self._respond(writer, 200,
                                _json_bytes(self.manager.stats()))
        elif path == "/runs" and method == "POST":
            await self._post_runs(writer, headers, body)
        elif path == "/jobs" and method == "GET":
            jobs = [{"id": job.id, "state": job.state}
                    for job in self.manager.jobs()]
            await self._respond(writer, 200, _json_bytes({"jobs": jobs}))
        elif path.startswith("/jobs/") and method == "GET":
            await self._get_job(writer, path[len("/jobs/"):], query)
        elif path.startswith("/results/") and method == "GET":
            await self._get_result(writer, path[len("/results/"):],
                                   headers)
        elif path in ("/healthz", "/stats", "/runs", "/jobs") \
                or path.startswith(("/jobs/", "/results/")):
            raise _BadRequest(405, "method %s not allowed on %s"
                              % (method, path))
        else:
            raise _BadRequest(404, "no such endpoint: %s" % path)

    # -- POST /runs ----------------------------------------------------
    def _parse_specs(self, body):
        """Decode and strictly validate a submission body.

        Accepted shapes: a bare spec object, ``{"spec": {...}}``, or a
        sweep matrix ``{"specs": [{...}, ...]}``.  Any malformed field
        raises :class:`_BadRequest` (→ 400) with the validator's reason.
        """
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _BadRequest(400, "request body is not JSON: %s" % exc)
        if isinstance(data, dict) and "specs" in data:
            extra = set(data) - {"specs"}
            if extra:
                raise _BadRequest(400, "unknown field(s) beside 'specs': %s"
                                  % ", ".join(sorted(extra)))
            raw_specs = data["specs"]
            if not isinstance(raw_specs, list) or not raw_specs:
                raise _BadRequest(400, "'specs' must be a non-empty list")
        elif isinstance(data, dict) and "spec" in data:
            extra = set(data) - {"spec"}
            if extra:
                raise _BadRequest(400, "unknown field(s) beside 'spec': %s"
                                  % ", ".join(sorted(extra)))
            raw_specs = [data["spec"]]
        else:
            raw_specs = [data]
        specs = []
        for i, raw in enumerate(raw_specs):
            try:
                specs.append(spec_from_dict(raw, strict=True))
            except ValueError as exc:
                raise _BadRequest(400, "spec %d: %s" % (i, exc))
        return specs

    async def _post_runs(self, writer, headers, body):
        specs = self._parse_specs(body)
        try:
            job = self.manager.submit(specs)
        except QueueFull as exc:
            await self._respond(writer, 503, _json_bytes(
                {"error": str(exc)}), extra=[("Retry-After", "1")])
            return
        await self._respond(writer, 202, _json_bytes({
            "job": job.id,
            "href": "/jobs/%s" % job.id,
            "digests": list(job.digests),
            "results": ["/results/%s" % digest
                        for digest in job.digests],
        }))

    # -- GET /jobs/<id> ------------------------------------------------
    def _job_snapshot(self, job):
        """The job's JSON view, with progress read from its journal."""
        from repro.sim.supervisor import JournalTailer

        data = job.to_dict()
        tailer = JournalTailer(job.journal_path)
        tailer.poll()
        data["journal"] = tailer.progress()
        # Test the snapshot, not the live job: a worker thread may set
        # job.cells after to_dict() ran.
        for cell in data.get("cells", ()):
            cell["result"] = ("/results/%s" % cell["digest"]
                              if cell["status"] == "ok" else None)
        return data

    async def _get_job(self, writer, job_id, query):
        job = self.manager.get(job_id)
        if job is None:
            raise _BadRequest(404, "no such job: %s" % job_id)
        if query.get("stream") not in (None, "", "0"):
            await self._stream_job(writer, job)
            return
        await self._respond(writer, 200,
                            _json_bytes(self._job_snapshot(job)))

    async def _stream_job(self, writer, job):
        """Chunked JSONL feed of the job's journal, live to completion.

        Each chunk is one checkpoint-journal record (the supervisor's
        cell-state transitions) as a JSON line, followed by one final
        ``job`` record carrying the terminal snapshot.  The feed
        re-polls the journal file as the supervisor appends to it —
        progress streams while the sweep runs.
        """
        from repro.sim.supervisor import JournalTailer

        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson; charset=utf-8\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1"))
        tailer = JournalTailer(job.journal_path)
        while True:
            records = tailer.poll()
            for record in records:
                line = (json.dumps(record, sort_keys=True) + "\n").encode()
                writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
            await writer.drain()
            if job.finished_state and not records:
                break
            await asyncio.sleep(STREAM_POLL_INTERVAL)
        final = (json.dumps({"kind": "job", "job": self._job_snapshot(job)},
                            sort_keys=True) + "\n").encode()
        writer.write(b"%x\r\n" % len(final) + final + b"\r\n")
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- GET /results/<digest> -----------------------------------------
    async def _get_result(self, writer, digest, headers):
        if not _DIGEST_RE.match(digest):
            raise _BadRequest(404, "not a result digest: %r" % digest)
        etag = '"%s"' % digest
        candidates = headers.get("if-none-match", "")
        if candidates:
            tags = [tag.strip() for tag in candidates.split(",")]
            if etag in tags or "*" in tags:
                await self._respond(writer, 304, b"",
                                    extra=[("ETag", etag)])
                return
        result = self.manager.cache.get_digest(digest)
        if result is None:
            raise _BadRequest(404, "no cached result for digest %s"
                              % digest)
        body = result_to_json(result).encode("utf-8")
        await self._respond(writer, 200, body, extra=[("ETag", etag)])
