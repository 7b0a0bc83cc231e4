"""The HTTP front door: four JSON endpoints on one asyncio event loop.

* ``POST /evaluate`` — ``{"workload": name, "point": ..., "client":,
  "priority":, "deadline_s":, "timeout_s":}``; waits until the request
  reaches a terminal state and returns the result (or the structured
  error).  Admission failures map to **429** with the rejection reason,
  deadline expiry to **504**, cancellation to **409**, a dispatcher-side
  engine error to **500** — backpressure is visible in the status code,
  never a hang or a silent drop.  A request that carries neither
  ``timeout_s`` nor any deadline is still bounded by the server-side
  ``ServeConfig.http_max_wait_s`` ceiling (504, ``outcome="pending"``).
* ``POST /synthesize`` — same contract against the workload named by
  ``ServeConfig.synthesize_workload`` (the sizing-loop-as-a-service
  shape); 404 when none is configured.
* ``GET /healthz`` — liveness plus queue depths and registered
  workloads.
* ``GET /metrics`` — the backend's versioned report, i.e. exactly what
  ``check_report`` validates.

One event loop on one background thread holds *all* in-flight requests,
each parked on an :class:`asyncio.Future` that the backend resolves
through ``handle.add_done_callback`` → ``loop.call_soon_threadsafe`` —
the completion callback is the wake-up, not a blocking wait.  Submission
is the backend's ordinary thread-safe ``submit``; GETs run on a worker
thread (``asyncio.to_thread``), because a
:class:`~repro.serve.shard.ShardRouter`'s ``report()`` asks every shard
over its pipe and must not stall the requests parked on the loop.

The HTTP itself is a deliberately minimal stdlib HTTP/1.1: request line
+ headers + Content-Length body, keep-alive by default — exactly what
the JSON endpoints need and nothing more.  Works over a
:class:`~repro.serve.broker.Broker` or a
:class:`~repro.serve.shard.ShardRouter`; the app only touches their
common surface.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any

from repro.engine.faults import is_failure
from repro.serve.admission import (
    DeadlineExpiredError,
    RejectedError,
    RequestCancelledError,
)

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            409: "Conflict", 429: "Too Many Requests",
            500: "Internal Server Error", 504: "Gateway Timeout"}


def _json_safe(value: Any) -> Any:
    if is_failure(value):
        return {"eval_failure": value.as_dict()}
    return value


def terminal_reply(handle: Any) -> tuple[int, dict]:
    """Map a *done* handle onto its ``(status, payload)`` wire shape.

    504 for deadline expiry, 409 for cancellation, 500 for a
    dispatcher-side engine error, 200 with the (JSON-safe) result
    otherwise.
    """
    try:
        value = handle.result(timeout=0)
    except DeadlineExpiredError as exc:
        return 504, {"error": str(exc), "outcome": "expired"}
    except RequestCancelledError as exc:
        return 409, {"error": str(exc), "outcome": "cancelled"}
    except Exception as exc:
        # The dispatcher failed the batch with the engine's own
        # exception (handle.outcome == "errored").
        return 500, {"error": str(exc), "outcome": "errored"}
    return 200, {"outcome": "completed", "result": _json_safe(value)}


class ServeApp:
    """Routes HTTP requests onto a started backend.

    POSTs submit synchronously — admission is deliberately a fast,
    synchronous refusal — then await the handle without blocking the
    loop.  ``POST /synthesize`` runs the backend's
    ``config.synthesize_workload``.
    """

    def __init__(self, backend: Any):
        self.backend = backend
        self.synthesize_workload = backend.config.synthesize_workload

    async def handle(self, method: str, path: str,
                     body: bytes) -> tuple[int, dict]:
        if method == "GET":
            return await asyncio.to_thread(self._get, path)
        if method != "POST":
            return 400, {"error": f"unsupported method {method!r}"}
        try:
            payload = json.loads(body or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except ValueError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if path == "/evaluate":
            workload = payload.get("workload")
            if not isinstance(workload, str):
                return 400, {"error": "body must name a 'workload'"}
            return await self._run(workload, payload)
        if path == "/synthesize":
            if self.synthesize_workload is None:
                return 404, {"error": "no synthesis workload configured"}
            return await self._run(self.synthesize_workload, payload)
        return 404, {"error": f"unknown path {path!r}"}

    def _get(self, path: str) -> tuple[int, dict]:
        if path == "/healthz":
            return 200, self.backend.healthz()
        if path == "/metrics":
            return 200, self.backend.report()
        return 404, {"error": f"unknown path {path!r}"}

    async def _run(self, workload: str, body: dict) -> tuple[int, dict]:
        backend = self.backend
        if "point" not in body:
            return 400, {"error": "body must carry a 'point'"}
        deadline_s = body.get("deadline_s")
        try:
            handle = backend.submit(
                workload, body["point"],
                client=str(body.get("client", "http")),
                priority=str(body.get("priority", "interactive")),
                deadline_s=deadline_s)
        except RejectedError as exc:
            return 429, {"error": str(exc), "reason": exc.reason}
        except (KeyError, ValueError, RuntimeError) as exc:
            return 400, {"error": str(exc)}
        timeout = body.get("timeout_s")
        if (timeout is None and deadline_s is None
                and backend.config.default_deadline_s is None):
            timeout = backend.config.http_max_wait_s
        loop = asyncio.get_running_loop()
        done: asyncio.Future = loop.create_future()

        def _resolve(_handle: Any) -> None:
            if not done.done():
                done.set_result(None)

        def _notify(h: Any) -> None:
            # Fires under the backend's lock (or immediately): just a
            # loop wake-up, the outcome is read from the handle after.
            # Must never raise — this runs inside the dispatcher's
            # callback chain, and the loop may already be closed if the
            # request settles after the front door shut down.
            try:
                loop.call_soon_threadsafe(_resolve, h)
            except RuntimeError:
                pass

        handle.add_done_callback(_notify)
        try:
            await asyncio.wait_for(asyncio.shield(done), timeout)
        except asyncio.TimeoutError as exc:
            if handle.outcome == "pending":
                return 504, {"error": "request still in flight",
                             "outcome": "pending"}
            del exc  # terminal outcome raced the timeout: fall through
        return terminal_reply(handle)


class AsyncServeServer:
    """Owns the event loop thread and the asyncio listener.

    Context manager for tests and CLIs.  ``port=0`` binds an ephemeral
    port, read back from ``address``.  The server does not own the
    backend — close both, backend last, so in-flight requests drain
    before the engine goes away.
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0):
        self.app = app
        self._host = host
        self._port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AsyncServeServer":
        if self._thread is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-http-async", daemon=True)
        self._thread.start()
        opened = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._serve_connection, self._host,
                                 self._port),
            self._loop)
        self._server = opened.result(timeout=30)
        return self

    def close(self) -> None:
        if self._thread is None:
            return
        assert self._loop is not None

        async def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()

        asyncio.run_coroutine_threadsafe(
            _shutdown(), self._loop).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
        self._thread = None
        self._loop = None
        self._server = None

    def __enter__(self) -> "AsyncServeServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- loop side -----------------------------------------------------
    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()
        # Cancel whatever is still parked (client gone mid-request) so
        # the loop can close without "task was destroyed" noise.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        # A GET may still be running on the default executor's threads.
        self._loop.run_until_complete(self._loop.shutdown_default_executor())

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    return
                parts = request_line.decode("latin-1").split()
                if len(parts) < 2:
                    return
                method, path = parts[0], parts[1]
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                raw_length = headers.get("content-length") or "0"
                try:
                    length = int(raw_length)
                except ValueError:
                    length = -1
                if length < 0:
                    # No trustworthy body framing: answer, then close.
                    await self._reply(writer, 400, {
                        "error": f"invalid Content-Length {raw_length!r}"},
                        close=True)
                    return
                body = await reader.readexactly(length) if length else b""
                status, payload = await self.app.handle(method, path, body)
                close = headers.get("connection", "").lower() == "close"
                await self._reply(writer, status, payload, close=close)
                if close:
                    return
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.CancelledError):
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, status: int,
                     payload: dict, close: bool) -> None:
        data = json.dumps(payload, sort_keys=True, default=repr).encode()
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n")
        writer.write(head.encode("latin-1") + data)
        await writer.drain()


def make_async_server(backend: Any) -> AsyncServeServer:
    """Wrap a started backend in a ready-to-start front door.

    Host, port and the ``/synthesize`` workload come from the backend's
    :class:`~repro.engine.config.ServeConfig` (``http_host`` /
    ``http_port`` / ``synthesize_workload``).
    """
    config = backend.config
    return AsyncServeServer(ServeApp(backend), config.http_host,
                            config.http_port)
