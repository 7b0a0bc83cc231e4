"""Typed client for the serve HTTP front door.

Every consumer of the service so far hand-rolled ``urllib`` JSON calls
and re-derived the status-code contract; :class:`ServeClient` is the one
typed surface that does it right once.  The raw JSON endpoints are
unchanged — this is a client, not a protocol — but the *outcomes* come
back as the same structured exceptions the in-process broker raises:

========  ==================  ======================================
status    wire ``outcome``    raised client-side
========  ==================  ======================================
429       (rejection)         :class:`RejectedError` (reason kept)
504       ``expired``         :class:`DeadlineExpiredError`
504       ``pending``         :class:`TimeoutError` (request live)
409       ``cancelled``       :class:`RequestCancelledError`
500       ``errored``         :class:`RemoteEngineError`
400/404   (protocol)          ``ValueError`` / ``KeyError``
========  ==================  ======================================

so ``try: client.evaluate(...) except RejectedError:`` reads identically
whether the broker is in-process or across the wire.  It speaks to the
front door (:mod:`repro.serve.http_async`) over either backend, which
the round-trip tests pin.

``submit()`` gives the handle shape (``result`` / ``done`` /
``outcome``) over the blocking wire call by parking it on a daemon
thread; ``stream()`` fans a batch of points out and yields results in
completion order, mirroring :meth:`repro.serve.session.Session`.
"""

from __future__ import annotations

import json
import queue
import threading
import urllib.error
import urllib.request
from typing import Any, Iterable, Iterator

from repro.serve.admission import (
    DeadlineExpiredError,
    RejectedError,
    RequestCancelledError,
)


class RemoteEngineError(RuntimeError):
    """The service's dispatcher failed the batch engine-side (HTTP 500)."""


def _raise_for(status: int, payload: dict) -> None:
    """Map one non-200 reply onto its structured exception."""
    error = str(payload.get("error", f"HTTP {status}"))
    outcome = payload.get("outcome")
    if status == 429:
        raise RejectedError(str(payload.get("reason", "rejected")), error)
    if status == 504 and outcome == "expired":
        raise DeadlineExpiredError(error)
    if status == 504:
        raise TimeoutError(error)
    if status == 409:
        raise RequestCancelledError(error)
    if status == 500:
        raise RemoteEngineError(error)
    if status == 404:
        raise KeyError(error)
    raise ValueError(error)


class ClientHandle:
    """Wire-call twin of :class:`~repro.serve.broker.ResultHandle`.

    ``result(timeout)`` blocks until the underlying HTTP round trip
    finishes, then returns the value or raises the structured error;
    ``outcome`` mirrors the broker vocabulary (``pending`` /
    ``completed`` / ``expired`` / ``cancelled`` / ``errored`` /
    ``rejected``).
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._exc: BaseException | None = None
        self.outcome = "pending"

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError("request still in flight")
        if self._exc is not None:
            raise self._exc
        return self._value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise TimeoutError("request still in flight")
        return self._exc

    # -- client side ---------------------------------------------------
    def _settle(self, value: Any, exc: BaseException | None) -> None:
        if exc is None:
            self.outcome = "completed"
            self._value = value
        else:
            self._exc = exc
            self.outcome = {
                DeadlineExpiredError: "expired",
                RequestCancelledError: "cancelled",
                RejectedError: "rejected",
            }.get(type(exc), "errored")
        self._event.set()


class ServeClient:
    """Typed HTTP client for one serve endpoint.

    Parameters
    ----------
    url:
        Base URL of a running front door, e.g. ``server.url``.
    client:
        Client id sent with every request (admission accounting).
    timeout_s:
        Socket-level timeout per HTTP call; ``None`` waits as long as
        the server-side ceiling allows.
    """

    def __init__(self, url: str, *, client: str = "client",
                 timeout_s: float | None = None):
        self.url = url.rstrip("/")
        self.client = client
        self.timeout_s = timeout_s
        self._threads: list[threading.Thread] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Wait for outstanding :meth:`submit` threads to settle."""
        self._closed = True
        for thread in self._threads:
            thread.join()
        self._threads.clear()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- wire ----------------------------------------------------------
    def _call(self, method: str, path: str,
              body: dict | None = None) -> tuple[int, dict]:
        data = None
        headers = {"Content-Type": "application/json"}
        if body is not None:
            data = json.dumps(body, sort_keys=True, default=repr).encode()
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as reply:
                return reply.status, json.loads(reply.read() or b"{}")
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            try:
                return exc.code, json.loads(payload or b"{}")
            except ValueError:
                return exc.code, {"error": payload.decode("latin-1")}

    def _evaluate_body(self, point: Any, priority: str,
                       deadline_s: float | None,
                       timeout_s: float | None) -> dict:
        body: dict[str, Any] = {"point": point, "client": self.client,
                                "priority": priority}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return body

    # -- typed surface -------------------------------------------------
    def evaluate(self, workload: str, point: Any, *,
                 priority: str = "interactive",
                 deadline_s: float | None = None,
                 timeout_s: float | None = None) -> Any:
        """One blocking ``POST /evaluate``; the result or a structured
        raise (see the module table)."""
        body = self._evaluate_body(point, priority, deadline_s, timeout_s)
        body["workload"] = workload
        status, payload = self._call("POST", "/evaluate", body)
        if status != 200:
            _raise_for(status, payload)
        return payload["result"]

    def synthesize(self, point: Any, *, priority: str = "batch",
                   deadline_s: float | None = None,
                   timeout_s: float | None = None) -> Any:
        """One blocking ``POST /synthesize`` against the configured
        synthesis workload."""
        body = self._evaluate_body(point, priority, deadline_s, timeout_s)
        status, payload = self._call("POST", "/synthesize", body)
        if status != 200:
            _raise_for(status, payload)
        return payload["result"]

    def submit(self, workload: str, point: Any, *,
               priority: str = "interactive",
               deadline_s: float | None = None,
               timeout_s: float | None = None) -> ClientHandle:
        """Non-blocking submit: the wire call runs on a daemon thread,
        the returned :class:`ClientHandle` settles when it lands."""
        if self._closed:
            raise RuntimeError("client is closed")
        handle = ClientHandle()

        def _run() -> None:
            try:
                value = self.evaluate(workload, point, priority=priority,
                                      deadline_s=deadline_s,
                                      timeout_s=timeout_s)
            except BaseException as exc:
                handle._settle(None, exc)
            else:
                handle._settle(value, None)

        thread = threading.Thread(target=_run, daemon=True,
                                  name="serve-client")
        self._threads.append(thread)
        thread.start()
        return handle

    def result(self, handle: ClientHandle,
               timeout: float | None = None) -> Any:
        """Convenience passthrough: ``client.result(h)`` == ``h.result()``."""
        return handle.result(timeout)

    def stream(self, workload: str, points: Iterable[Any], *,
               priority: str = "interactive",
               deadline_s: float | None = None,
               timeout_s: float | None = None
               ) -> Iterator[tuple[Any, str, Any]]:
        """Fan out ``points``; yield ``(point, outcome, value_or_exc)``
        in completion order.  Structured errors are *yielded* (outcome
        names the lane), not raised — a streaming consumer wants the
        whole batch, not the first failure."""
        settled: "queue.Queue" = queue.Queue()
        points = list(points)
        for point in points:
            handle = self.submit(workload, point, priority=priority,
                                 deadline_s=deadline_s, timeout_s=timeout_s)

            def _watch(h: ClientHandle = handle, p: Any = point) -> None:
                h._event.wait()
                settled.put((p, h.outcome,
                             h._exc if h._exc is not None else h._value))

            watcher = threading.Thread(target=_watch, daemon=True,
                                       name="serve-client-stream")
            self._threads.append(watcher)
            watcher.start()
        for _ in points:
            yield settled.get()

    # -- introspection -------------------------------------------------
    def healthz(self) -> dict:
        status, payload = self._call("GET", "/healthz")
        if status != 200:
            _raise_for(status, payload)
        return payload

    def metrics(self) -> dict:
        """The service's versioned engine report (``GET /metrics``)."""
        status, payload = self._call("GET", "/metrics")
        if status != 200:
            _raise_for(status, payload)
        return payload
