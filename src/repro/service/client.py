"""Stdlib client for the planner service (``repro client ...``).

A thin, dependency-free wrapper over :mod:`http.client` that speaks
the same typed dataclasses as the server: requests go out as
``to_dict`` payloads, responses come back through
:func:`repro.api.response_from_dict`, and structured errors surface as
:class:`ServiceError` carrying the :class:`repro.api.ErrorInfo`.
"""

from __future__ import annotations

import http.client
import json
from collections.abc import Iterator
from typing import Any
from urllib.parse import urlencode, urlsplit

from repro.api import (
    ErrorInfo,
    Request,
    RequestError,
    Response,
    response_from_dict,
)
from repro.api.types import JsonDict


class ServiceError(Exception):
    """The server answered with a structured error payload."""

    def __init__(self, status: int, error: ErrorInfo) -> None:
        super().__init__(f"[{status}] {error.code}: {error.message}")
        self.status = status
        self.error = error


class ServiceClient:
    """One planner-service endpoint, e.g. ``http://127.0.0.1:8731``."""

    def __init__(
        self,
        address: str,
        *,
        tenant: str | None = None,
        timeout_s: float | None = None,
    ) -> None:
        parts = urlsplit(address if "//" in address else f"http://{address}")
        if parts.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {parts.scheme!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.tenant = tenant
        #: Per-request deadline forwarded as ``?timeout=``; the socket
        #: timeout is set slightly above it so the server answers first.
        self.timeout_s = timeout_s

    # -- raw transport --------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        socket_timeout = (
            self.timeout_s + 5.0 if self.timeout_s is not None else None
        )
        return http.client.HTTPConnection(
            self.host, self.port, timeout=socket_timeout
        )

    def call(
        self,
        method: str,
        path: str,
        *,
        body: JsonDict | None = None,
        query: dict[str, Any] | None = None,
    ) -> tuple[int, JsonDict]:
        """One request/response exchange; returns (status, payload)."""
        params = dict(query or {})
        if self.timeout_s is not None:
            params.setdefault("timeout", self.timeout_s)
        if params:
            path = f"{path}?{urlencode(params)}"
        headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        payload = (
            json.dumps(body, sort_keys=True).encode() if body is not None
            else None
        )
        conn = self._connect()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError as exc:
            raise RequestError(
                f"server sent invalid JSON: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise RequestError("server payload was not a JSON object")
        return response.status, data

    @staticmethod
    def _raise_for_error(status: int, data: JsonDict) -> None:
        if data.get("kind") == "error":
            raise ServiceError(status, ErrorInfo.from_dict(data))
        if status >= 400:
            raise ServiceError(
                status,
                ErrorInfo(code="http-error", message=f"HTTP {status}"),
            )

    # -- typed endpoints ------------------------------------------------

    def request(self, request: Request) -> Response:
        """Execute synchronously; raises :class:`ServiceError` on a
        structured error (timeout, quota, malformed request)."""
        status, data = self.call(
            "POST", f"/v1/{request.KIND}", body=request.to_dict()
        )
        self._raise_for_error(status, data)
        return response_from_dict(data)

    def submit(self, request: Request) -> JsonDict:
        """Submit asynchronously; returns the 202 job descriptor."""
        status, data = self.call(
            "POST",
            f"/v1/{request.KIND}",
            body=request.to_dict(),
            query={"mode": "async"},
        )
        self._raise_for_error(status, data)
        return data

    def job(self, job_id: str) -> JsonDict:
        status, data = self.call("GET", f"/v1/jobs/{job_id}")
        self._raise_for_error(status, data)
        return data

    def health(self) -> JsonDict:
        status, data = self.call("GET", "/v1/healthz")
        self._raise_for_error(status, data)
        return data

    def wait(self, job_id: str) -> JsonDict:
        """Block until the job finishes; returns its job descriptor.

        Reads the job's SSE stream up to the terminal ``done`` event,
        whose payload is the descriptor ``/v1/jobs/<id>`` serves.  A
        stream that outlives its deadline ends on a ``timeout`` error
        event while the job keeps running, so the stream is reopened.
        """
        while True:
            for event, payload in self.events(job_id):
                if event == "done":
                    return payload

    def events(self, job_id: str) -> Iterator[tuple[str, JsonDict]]:
        """Stream the job's SSE feed as ``(event, payload)`` pairs.

        Yields until the server sends the terminal ``done`` (or
        ``error``) event and closes the stream.
        """
        params = (
            {"timeout": self.timeout_s} if self.timeout_s is not None
            else {}
        )
        path = f"/v1/jobs/{job_id}/events"
        if params:
            path = f"{path}?{urlencode(params)}"
        conn = self._connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                data = json.loads(raw.decode("utf-8")) if raw else {}
                self._raise_for_error(response.status, data)
            event_name = "message"
            data_lines: list[str] = []
            for raw_line in response:
                line = raw_line.decode("utf-8").rstrip("\n").rstrip("\r")
                if line.startswith("event:"):
                    event_name = line[len("event:") :].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:") :].strip())
                elif line == "" and data_lines:
                    payload = json.loads("\n".join(data_lines))
                    yield event_name, payload
                    if event_name in ("done", "error"):
                        return
                    event_name = "message"
                    data_lines = []
        finally:
            conn.close()


__all__ = ["ServiceClient", "ServiceError"]
