"""The stdlib HTTP/JSON front end: ``python -m repro.service``.

A deliberately thin layer — no framework, just ``http.server`` on a
threading server — over :mod:`repro.service.api` (synchronous, cache-hot
estimates) and :mod:`repro.service.jobs` (async sweeps).  Routes:

``GET/POST /estimate``
    One resource estimate, served through the two-tier cache.  GET takes
    query parameters, POST a JSON body; both normalize to the same
    fingerprint.  The response body is :func:`~repro.service.api.canonical_json`
    of the payload; the serving tier (``memory``/``disk``/``computed``)
    travels in the ``X-Repro-Cache`` header, outside the body, so
    repeated responses stay byte-identical.

``POST /jobs`` / ``GET /jobs`` / ``GET /jobs/<id>`` / ``GET /jobs/<id>/result``
    Submit a sweep config (202 with the job's status), list jobs, poll
    one, fetch the finished artifact (404 unknown, 409 until done).

``GET /healthz`` / ``GET /statsz``
    Liveness, and the cache/job counters the CI smoke job asserts on,
    including the Monte-Carlo strategy each computed estimate ran on
    (``cache.mc_strategies``).

Client errors are ``{"error": "<message>"}`` with a 400; unroutable
paths 404; anything unexpected a 500 that names only the exception type,
while the full traceback goes to the ``repro.service.http`` logger.
"""

from __future__ import annotations

import argparse
import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qsl, urlsplit

from .api import EstimateRequest, canonical_json, serve_estimate
from .jobs import JobManager, sweep_config_from_mapping
from .store import PersistentCircuitCache

__all__ = ["ServiceState", "ReproRequestHandler", "serve", "main"]

#: Cap request bodies well above any sane sweep config, far below a DoS.
MAX_BODY_BYTES = 1 << 20

logger = logging.getLogger(__name__)


class ServiceState:
    """Everything a running service holds: the cache, the jobs, the clock."""

    def __init__(
        self,
        store: str = "service-store",
        cache_maxsize: Optional[int] = 512,
        result_maxsize: Optional[int] = 4096,
        job_workers: int = 1,
    ) -> None:
        self.cache = PersistentCircuitCache(
            store, maxsize=cache_maxsize, result_maxsize=result_maxsize
        )
        self.jobs = JobManager(store=store, workers=job_workers)
        self.started_at = time.time()
        self._requests = 0
        self._errors = 0
        self._lock = threading.Lock()

    def count_request(self, ok: bool) -> None:
        with self._lock:
            self._requests += 1
            if not ok:
                self._errors += 1

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            requests, errors = self._requests, self._errors
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": requests,
            "errors": errors,
            "cache": self.cache.stats_dict(),
            "jobs": self.jobs.summary(),
        }


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Routes one connection; all state lives on ``server.state``."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    # -------------------------------------------------------------- #
    # plumbing

    @property
    def state(self) -> ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # quiet by default
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        body: str,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        data = (body + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        self.state.count_request(ok=status < 400)

    def _send_json(
        self,
        status: int,
        payload: Any,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self._send(status, canonical_json(payload), headers)

    def _error(self, status: int, message: str) -> None:
        self._send(status, json.dumps({"error": message}))

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            data = json.loads(raw)
        except ValueError:
            raise ValueError("request body is not valid JSON")
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _dispatch(self, handler, *args: Any) -> None:
        try:
            handler(*args)
        except ValueError as exc:
            self._error(400, str(exc))
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:
            logger.exception("%s %s failed", self.command, self.path)
            self._error(500, f"internal error: {type(exc).__name__}")

    # -------------------------------------------------------------- #
    # routing

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._send(200, json.dumps({"status": "ok"}))
        elif url.path == "/statsz":
            self._send_json(200, self.state.stats())
        elif url.path == "/estimate":
            params = dict(parse_qsl(url.query))
            self._dispatch(self._handle_estimate, params)
        elif parts[:1] == ["jobs"] and len(parts) == 1:
            self._send_json(200, {"jobs": self.state.jobs.list()})
        elif parts[:1] == ["jobs"] and len(parts) == 2:
            self._dispatch(self._handle_job_status, parts[1])
        elif parts[:1] == ["jobs"] and len(parts) == 3 and parts[2] == "result":
            self._dispatch(self._handle_job_result, parts[1])
        else:
            self._error(404, f"no route for GET {url.path}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlsplit(self.path)
        if url.path == "/estimate":
            self._dispatch(self._handle_estimate_post)
        elif url.path == "/jobs":
            self._dispatch(self._handle_job_submit)
        else:
            self._error(404, f"no route for POST {url.path}")

    # -------------------------------------------------------------- #
    # handlers

    def _handle_estimate(self, params: Dict[str, Any]) -> None:
        request = EstimateRequest.from_mapping(params)
        payload, tier = serve_estimate(request, self.state.cache)
        self._send_json(200, payload, headers=(("X-Repro-Cache", tier),))

    def _handle_estimate_post(self) -> None:
        self._handle_estimate(self._read_body())

    def _handle_job_submit(self) -> None:
        config = sweep_config_from_mapping(self._read_body())
        job = self.state.jobs.submit(config)
        self._send_json(202, job.status_dict())

    def _handle_job_status(self, job_id: str) -> None:
        job = self.state.jobs.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._send_json(200, job.status_dict())

    def _handle_job_result(self, job_id: str) -> None:
        job = self.state.jobs.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if job.status == "failed":
            self._send_json(500, {"error": job.error, "job": job.status_dict()})
            return
        if job.status != "done" or job.artifact is None:
            self._error(409, f"job {job_id} is {job.status}; result not ready")
            return
        self._send_json(200, {"job": job.id, "artifact": job.artifact,
                              "report": job.report})


def serve(
    host: str = "127.0.0.1",
    port: int = 8754,
    store: str = "service-store",
    job_workers: int = 1,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-run server (not yet serving; call ``serve_forever`` or
    drive it from a thread).  ``port=0`` binds an ephemeral port — the
    test suite's pattern; read the bound address from ``server_address``.
    """
    server = ThreadingHTTPServer((host, port), ReproRequestHandler)
    server.state = ServiceState(store=store, job_workers=job_workers)  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve resource estimates and sweep jobs over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8754,
                        help="bind port (default 8754; 0 = ephemeral)")
    parser.add_argument("--store", default="service-store",
                        help="persistent cache + job journal directory "
                             "(default ./service-store)")
    parser.add_argument("--job-workers", type=int, default=1,
                        help="concurrent background sweep jobs (default 1)")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    args = parser.parse_args(argv)
    if args.job_workers < 1:
        parser.error("--job-workers must be >= 1")

    server = serve(args.host, args.port, store=args.store,
                   job_workers=args.job_workers, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"repro.service on http://{host}:{port} (store: {args.store})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        state: ServiceState = server.state  # type: ignore[attr-defined]
        state.jobs.shutdown()
        server.server_close()
    return 0
