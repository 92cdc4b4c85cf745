"""Minimal HTTP/1.1 front end for the sweep service — stdlib only.

A deliberately small, dependency-free server over
``asyncio.start_server``: parse one request, route it, answer JSON (or
stream NDJSON/SSE), close the connection.  ``Connection: close`` on
every response keeps the framing trivial and lets event streams end by
EOF — clients just read lines until the socket closes, which happens
right after the run's single terminal event.

Routes::

    GET  /healthz                     liveness, version, uptime, queue
    GET  /v1/runs                     all runs (live + this process)
    POST /v1/runs                     submit {"spec": {...}, "priority": n}
    GET  /v1/runs/<id>                one run's info
    GET  /v1/runs/<id>/events?since=N stream events as NDJSON
                                      (or SSE with Accept: text/event-stream;
                                      SSE frames carry ``id:`` and honour
                                      ``Last-Event-ID`` on reconnect)
    POST /v1/runs/<id>/cancel         request cancellation
    GET  /v1/metrics                  aggregated DashSnapshot (404 unless
                                      the service runs with --dashboard)
    GET  /v1/dashboard                the single-file HTML dashboard
    POST /v1/shutdown                 {"drain": true|false} then exit

``repro serve`` wires this to a :class:`~.scheduler.SweepService`; see
``docs/serving.md`` for curl transcripts.

A :class:`~repro.chaos.ChaosInjector` (optional, ``None`` by default)
makes the *network* misbehave deterministically: GET requests can be
answered with a connection reset and event streams can be cut mid-run —
both keyed on stable identities, so the same ``(spec, seed)`` breaks
the same requests.  Write paths (POST) are never dropped: a reset POST
would leave the client unsure whether its submission was admitted, and
retrying it would duplicate the run — resets therefore only exercise
the idempotent-read recovery that :meth:`ServiceClient.watch` provides.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qs, urlsplit

from ..chaos.inject import ChaosInjector
from ..chaos.model import ChaosSpec
from ..explore.executor import SweepOptions
from .protocol import PROTOCOL_VERSION, ServeError
from .scheduler import SERVICE_OPTIONS, SweepService
from .storage import ServiceStorage

__all__ = ["DEFAULT_PORT", "HttpServer", "run_service"]

DEFAULT_PORT = 8765

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class HttpServer:
    """One service instance behind one listening socket."""

    def __init__(self, service: SweepService, *, host: str = "127.0.0.1",
                 port: int = 0,
                 on_shutdown: Callable[[bool], Awaitable[None] | None]
                 | None = None,
                 chaos: ChaosInjector | None = None,
                 metrics: Any | None = None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._on_shutdown = on_shutdown
        self._chaos = chaos
        #: The service's MetricsAggregator when the dashboard is on;
        #: ``None`` (the default) keeps /v1/metrics and /v1/dashboard
        #: off — the same gating seam as chaos.
        self._metrics = metrics

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request plumbing ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, query, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
                if (self._chaos is not None
                        and self._chaos.drop_request(method, path)):
                    # Injected connection reset: hard-abort without a
                    # response, exactly what a dying LB or mid-request
                    # network partition looks like to the client.
                    writer.transport.abort()
                    return
                await self._route(method, path, query, headers, body, writer)
            except _HttpError as exc:
                await self._respond(writer, exc.status,
                                    {"error": exc.message})
            except ServeError as exc:
                await self._respond(writer, 400, {"error": str(exc)})
            except (ConnectionError, asyncio.IncompleteReadError):
                pass  # client went away; nothing to answer
            except Exception as exc:  # noqa: BLE001 - boundary
                await self._respond(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader: asyncio.StreamReader):
        raw = await reader.readuntil(b"\r\n\r\n")
        if len(raw) > _MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large")
        lines = raw.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {lines[0]!r}") \
                from None
        parts = urlsplit(target)
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        return method.upper(), parts.path, query, headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: dict[str, str]) -> dict[str, Any]:
        length = int(headers.get("content-length", "0") or "0")
        if length == 0:
            return {}
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        raw = await reader.readexactly(length)
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return data

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict[str, Any]) -> None:
        body = (json.dumps(payload, default=str) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _respond_html(self, writer: asyncio.StreamWriter,
                            document: str) -> None:
        body = document.encode("utf-8")
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/html; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(self, method: str, path: str, query: dict[str, str],
                     headers: dict[str, str], body: dict[str, Any],
                     writer: asyncio.StreamWriter) -> None:
        if path == "/healthz" and method == "GET":
            from .. import __version__

            await self._respond(writer, 200, {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "version": __version__,
                "accepting": self.service.accepting,
                "runs": len(self.service.runs()),
                "started_at": getattr(self.service, "started_at", None),
                "uptime_s": getattr(self.service, "uptime_s", None),
            })
            return
        if path == "/v1/metrics" and method == "GET":
            if self._metrics is None:
                raise _HttpError(
                    404, "metrics are off; start the service with "
                         "--dashboard (or use `repro dash` offline)"
                )
            await self._respond(writer, 200,
                                self._metrics.snapshot().as_dict())
            return
        if path in ("/", "/v1/dashboard") and method == "GET":
            if self._metrics is None:
                raise _HttpError(
                    404, "the dashboard is off; start the service with "
                         "--dashboard (or use `repro dash` offline)"
                )
            from ..dash.page import dashboard_page

            await self._respond_html(writer, dashboard_page())
            return
        if path == "/v1/runs":
            if method == "POST":
                spec = body.get("spec")
                if not isinstance(spec, dict):
                    raise _HttpError(400, "body needs a 'spec' object")
                handle = await self.service.submit(
                    spec,
                    tenant=str(body.get("tenant",
                                        headers.get("x-tenant", ""))),
                    priority=int(body.get("priority", 0)),
                )
                await self._respond(writer, 202, {"run": handle.info()})
                return
            if method == "GET":
                await self._respond(writer, 200, {
                    "runs": [h.info() for h in self.service.runs()],
                })
                return
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/v1/runs/"):
            rest = path[len("/v1/runs/"):]
            run_id, _, action = rest.partition("/")
            try:
                handle = self.service.run(run_id)
            except ServeError as exc:
                raise _HttpError(404, str(exc)) from None
            if not action and method == "GET":
                await self._respond(writer, 200, {"run": handle.info()})
                return
            if action == "cancel" and method == "POST":
                handle = self.service.cancel(run_id)
                await self._respond(writer, 200, {"run": handle.info()})
                return
            if action == "events" and method == "GET":
                await self._stream_events(writer, run_id, query, headers)
                return
            raise _HttpError(404, f"no route {method} {path}")
        if path == "/v1/shutdown" and method == "POST":
            drain = bool(body.get("drain", True))
            await self._respond(writer, 202, {"ok": True, "drain": drain})
            if self._on_shutdown is not None:
                result = self._on_shutdown(drain)
                if asyncio.iscoroutine(result):
                    await result
            return
        raise _HttpError(404, f"no route {method} {path}")

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             run_id: str, query: dict[str, str],
                             headers: dict[str, str]) -> None:
        try:
            since = int(query.get("since", "0"))
        except ValueError:
            raise _HttpError(400, "'since' must be an integer") from None
        # A reconnecting EventSource resumes via the Last-Event-ID
        # header (we stamp each SSE frame with ``id: <seq>``); it
        # composes with ?since= as a second cursor — the later wins.
        last_id = headers.get("last-event-id", "")
        if last_id:
            try:
                since = max(since, int(last_id))
            except ValueError:
                pass  # a foreign id scheme; fall back to ?since=
        sse = "text/event-stream" in headers.get("accept", "")
        content_type = ("text/event-stream" if sse
                        else "application/x-ndjson")
        writer.write((
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {content_type}\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1"))
        await writer.drain()
        async for envelope in self.service.watch(run_id, since=since):
            line = json.dumps(envelope, default=str)
            chunk = (f"id: {int(envelope['seq'])}\ndata: {line}\n\n"
                     if sse else line + "\n")
            writer.write(chunk.encode("utf-8"))
            await writer.drain()
            if (self._chaos is not None
                    and self._chaos.break_stream(run_id,
                                                 int(envelope["seq"]))):
                # Cut the stream *after* this envelope went out: the
                # break is keyed on (run, seq), so each one fires once
                # and a reconnecting client always makes progress.
                writer.transport.abort()
                return


def run_service(*, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                data_dir: str = ".repro-serve",
                config: SweepOptions = SERVICE_OPTIONS,
                announce: Callable[[str], None] | None = print,
                chaos: ChaosSpec | ChaosInjector | None = None,
                dashboard: bool = False) -> int:
    """Blocking entry point behind ``repro serve``.

    Runs the scheduler and HTTP front end until ``POST /v1/shutdown``
    or SIGINT/SIGTERM, then drains per the shutdown request (signals
    cancel live runs — a terminal Ctrl-C should exit promptly, and the
    cache makes the interrupted remainder resumable by resubmission).

    ``chaos`` (a :class:`~repro.chaos.ChaosSpec` or an already-built
    injector) arms fault injection across *every* seam — workers,
    cache, store, HTTP — through one shared injector, so its decision
    ledger accounts for the whole instance.
    """
    injector: ChaosInjector | None = None
    if isinstance(chaos, ChaosInjector):
        injector = chaos
    elif chaos is not None:
        injector = ChaosInjector(chaos)
    metrics = None
    if dashboard:
        # Lazy: a dashboard-free service never imports repro.dash, and
        # the observer seam stays None — observation-free by the same
        # contract as chaos=None.
        from ..dash import MetricsAggregator

        metrics = MetricsAggregator()

    async def _main() -> None:
        storage = ServiceStorage(data_dir, chaos=injector)
        service = SweepService(storage, config, chaos=injector,
                               observer=metrics)
        done = asyncio.Event()
        drain_mode = {"drain": True}

        def request_shutdown(drain: bool) -> None:
            drain_mode["drain"] = drain
            done.set()

        server = HttpServer(service, host=host, port=port,
                            on_shutdown=request_shutdown,
                            chaos=injector, metrics=metrics)
        await service.start()
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, request_shutdown, False
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix event loops
        if announce is not None:
            announce(f"repro serve: listening on {server.url} "
                     f"(data dir {storage.root})")
            if metrics is not None:
                announce(f"repro serve: dashboard at "
                         f"{server.url}/v1/dashboard")
            if injector is not None:
                announce("repro serve: CHAOS ARMED "
                         f"(seed {injector.spec.seed})")
        await done.wait()
        if announce is not None:
            announce("repro serve: shutting down "
                     + ("(drain)" if drain_mode["drain"] else "(cancel)"))
        await server.close()
        await service.stop(drain=drain_mode["drain"])

    asyncio.run(_main())
    return 0
