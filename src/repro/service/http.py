"""A minimal asyncio HTTP/1.1 layer for the job API.  Stdlib only.

Just enough HTTP for the service's five routes: request-line + headers
+ ``Content-Length`` body in, status + headers + body out, one request
per connection (``Connection: close`` everywhere — clients are urllib
or curl, both of which reconnect per call).  The ``/events`` route is
the one long-lived response: headers first, then JSON-lines streamed as
the job progresses.

This is deliberately not a framework: no routing tables, no middleware
— a single ``handle`` function with explicit ``if`` arms, so the whole
attack surface is readable in one screen.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.errors import ConfigError, SpecError
from repro.runner.executor import FailurePolicy
from repro.runner.spec import spec_from_json

#: Sanity cap on request bodies (a 64-pt grid spec is ~20 KiB).
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


def _response(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: Any) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _response(status, body)


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request: ``(method, path, headers, body)`` or ``None``."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    try:
        method, path, _version = (
            request_line.decode("ascii").strip().split(None, 2)
        )
    except ValueError:
        return None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        return method, path, headers, b"\x00overflow"
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class HttpApi:
    """Route table for the experiment service's job API."""

    def __init__(self, manager, index):
        self.manager = manager
        self.index = index

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            if body == b"\x00overflow":
                writer.write(_json_response(
                    413, {"error": "request body too large"}
                ))
                await writer.drain()
                return
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # surface, don't kill the server
            try:
                writer.write(_json_response(500, {"error": str(exc)}))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if method == "POST" and parts == ["jobs"]:
            writer.write(self._submit(body))
        elif method == "GET" and parts == ["jobs"]:
            writer.write(_json_response(200, {
                "jobs": [
                    {
                        "id": job.id,
                        "experiment": job.spec.experiment,
                        "status": job.status,
                        "completed": job.completed,
                        "total": job.total,
                    }
                    for job in self.manager.jobs.values()
                ],
            }))
        elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            job = self.manager.get(parts[1])
            if job is None:
                writer.write(_json_response(404, {"error": "no such job"}))
            else:
                writer.write(_json_response(200, job.manifest()))
        elif (
            method == "GET" and len(parts) == 3
            and parts[0] == "jobs" and parts[2] == "events"
        ):
            await self._stream_events(parts[1], writer)
            return
        elif (
            method == "GET" and len(parts) == 4
            and parts[0] == "jobs" and parts[2] == "points"
        ):
            writer.write(self._point_blob(parts[1], parts[3]))
        elif method == "GET" and parts == ["stats"]:
            writer.write(_json_response(200, {
                "cache": self.index.stats(),
                "jobs": self.manager.stats(),
            }))
        elif method == "GET" and parts == ["healthz"]:
            writer.write(_json_response(200, {"status": "ok"}))
        elif parts and parts[0] in ("jobs", "stats", "healthz"):
            writer.write(_json_response(405, {"error": "method not allowed"}))
        else:
            writer.write(_json_response(404, {"error": "no such route"}))
        await writer.drain()

    # -- route bodies ----------------------------------------------------

    def _submit(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body or b"{}")
        except ValueError as exc:
            return _json_response(400, {"error": f"malformed JSON: {exc}"})
        if not isinstance(payload, dict):
            return _json_response(400, {"error": "body must be an object"})
        try:
            if "spec" in payload:
                spec = spec_from_json(payload["spec"])
            elif "driver" in payload:
                spec = self._driver_spec(
                    payload["driver"], payload.get("params") or {}
                )
            else:
                return _json_response(400, {
                    "error": "body needs 'spec' or 'driver'",
                })
        except SpecError as exc:
            return _json_response(400, {"error": str(exc)})
        policy = None
        if "retries" in payload or "timeout" in payload:
            try:
                policy = FailurePolicy(
                    retries=int(payload.get("retries", 0)),
                    timeout=payload.get("timeout"),
                    keep_going=True,
                )
            except (TypeError, ValueError, ConfigError) as exc:
                return _json_response(400, {
                    "error": f"bad failure policy: {exc}",
                })
        job = self.manager.submit(spec, policy=policy)
        return _json_response(201, {
            "id": job.id,
            "experiment": job.spec.experiment,
            "total": job.total,
            "status": job.status,
        })

    @staticmethod
    def _driver_spec(driver: Any, params: Any):
        from repro.experiments import REGISTRY

        if not isinstance(driver, str) or driver not in REGISTRY:
            raise SpecError(
                f"unknown driver {driver!r}; registered: "
                f"{', '.join(sorted(REGISTRY))}"
            )
        if not isinstance(params, dict):
            raise SpecError("driver params must be an object")
        try:
            return REGISTRY[driver].build_spec(**params)
        except SpecError:
            raise
        except Exception as exc:
            raise SpecError(f"driver {driver!r} rejected params: {exc}")

    def _point_blob(self, job_id: str, index_text: str) -> bytes:
        job = self.manager.get(job_id)
        if job is None:
            return _json_response(404, {"error": "no such job"})
        try:
            point_index = int(index_text)
            key = job.keys[point_index]
        except (ValueError, IndexError):
            return _json_response(404, {"error": "no such point"})
        blob = self.index.cache.lookup_blob(key)
        if blob is None:
            return _json_response(404, {
                "error": "point has no published result (pending or failed)",
            })
        return _response(200, blob, content_type="application/octet-stream")

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """JSON-lines: replayed history, then live events until job-end."""
        job = self.manager.get(job_id)
        if job is None:
            writer.write(_json_response(404, {"error": "no such job"}))
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        queue = self.manager.subscribe(job)
        try:
            while True:
                if queue.empty() and job.done_event.is_set():
                    break
                record = await queue.get()
                line = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                ) + "\n"
                writer.write(line.encode("utf-8"))
                await writer.drain()
                if record.get("event") == "job-end":
                    break
        except (ConnectionError, OSError):
            pass  # client went away mid-stream
        finally:
            self.manager.unsubscribe(job, queue)
