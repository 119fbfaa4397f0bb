"""Load generation, the ``repro serve`` child process, and its telemetry.

A *sender* is a callable that scores one request payload and returns
the scores as a list of floats; one sender is one connection (or, in
process, one caller).  :func:`open_loop` issues requests on a fixed
schedule and times each from when it was due; :func:`closed_loop`
issues the next request on a sender as soon as the previous one
returns.  Every response is checked against reference scores while the
phase runs, and a mismatch counts as a failure.
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from mcbench.common import mean, peak_rss_mb_of, percentile


@dataclass
class Request:
    """One request: what the sender gets, and the scores it must return."""

    payload: object
    expected: np.ndarray
    rows: int


@dataclass
class Phase:
    """What one load phase measured."""

    latency_s: list = field(default_factory=list)  # open loop: from due time
    service_s: list = field(default_factory=list)  # from send to full response
    late_s: list = field(default_factory=list)  # generator lag behind schedule
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)
    elapsed: float = 0.0  # summed over the phase's bursts
    wall_start: float = field(default_factory=time.time)

    def record_error(self, kind: str) -> None:
        self.failed += 1
        self.errors[kind] = self.errors.get(kind, 0) + 1

    def summary(self) -> dict:
        lat = self.latency_s or self.service_s
        out = {
            "requests": self.attempted,
            "failed": self.failed,
            "errors": dict(self.errors),
            "elapsed_s": self.elapsed,
            "rows": self.rows,
        }
        if lat:
            out.update(
                p50_ms=percentile(lat, 50) * 1e3,
                p90_ms=percentile(lat, 90) * 1e3,
                p99_ms=percentile(lat, 99) * 1e3,
                service_mean_ms=mean(self.service_s) * 1e3,
            )
        if self.late_s:
            out["late_p99_ms"] = percentile(self.late_s, 99) * 1e3
        if self.elapsed > 0:
            out["requests_per_s"] = (self.attempted - self.failed) / self.elapsed
            out["rows_per_s"] = self.rows / self.elapsed
        return out


def _serve_one(send, request: Request, phase: Phase, lock: threading.Lock):
    """Send one request; returns (ok, t_sent, t_done)."""
    sent = time.perf_counter()
    try:
        scores = send(request.payload)
        error = None
    except ServerError as exc:
        scores, error = None, exc.kind
    except (OSError, http.client.HTTPException):
        scores, error = None, "transport"
    except Exception as exc:  # the scorer raised: count it and keep the phase going
        scores, error = None, f"raised {type(exc).__name__}"
        traceback.print_exc(file=sys.stderr)
    done = time.perf_counter()
    if error is None and (
        len(scores) != request.rows
        or not np.array_equal(np.asarray(scores, dtype=np.float64), request.expected)
    ):
        error = "wrong_scores"
    with lock:
        phase.attempted += 1
        if error is None:
            phase.rows += request.rows
        else:
            phase.record_error(error)
    return error is None, sent, done


def _run_threads(target, senders) -> None:
    threads = [threading.Thread(target=target, args=(s,), daemon=True) for s in senders]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(senders, requests: list[Request], rate: float, seconds: float,
              into: Phase | None = None) -> Phase:
    """Requests due every ``1/rate`` s, spread over the senders as they free up.

    With ``into``, the burst adds to that phase and carries on through
    ``requests`` where the phase's earlier bursts stopped.
    """
    phase = into if into is not None else Phase()
    lock = threading.Lock()
    total = max(1, int(round(rate * seconds)))
    order = itertools.count()
    offset = phase.attempted
    t0 = time.perf_counter() + 0.005

    def worker(send):
        free = t0
        while True:
            with lock:
                i = next(order)
            if i >= total:
                return
            due = t0 + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            request = requests[(offset + i) % len(requests)]
            ok, sent, done = _serve_one(send, request, phase, lock)
            with lock:
                phase.late_s.append(max(0.0, sent - max(due, free)))
                if ok:
                    phase.latency_s.append(done - due)
                    phase.service_s.append(done - sent)
            free = done

    _run_threads(worker, senders)
    phase.elapsed += time.perf_counter() - t0
    return phase


def closed_loop(senders, requests: list[Request], seconds: float,
                into: Phase | None = None) -> Phase:
    """Each sender sends its next request as soon as the last one returns."""
    phase = into if into is not None else Phase()
    lock = threading.Lock()
    order = itertools.count(phase.attempted)
    t0 = time.perf_counter()
    t_end = t0 + seconds
    last = [t0]

    def worker(send):
        while time.perf_counter() < t_end:
            with lock:
                i = next(order)
            ok, sent, done = _serve_one(send, requests[i % len(requests)], phase, lock)
            with lock:
                if ok:
                    phase.service_s.append(done - sent)
                last[0] = max(last[0], done)

    _run_threads(worker, senders)
    phase.elapsed += last[0] - t0
    return phase


# -- HTTP -----------------------------------------------------------------


class ServerError(Exception):
    """A non-200 answer (``kind`` is ``http_<status>``)."""

    def __init__(self, status: int):
        super().__init__(f"HTTP {status}")
        self.kind = f"http_{status}"


class Connection:
    """One keep-alive HTTP/1.1 connection to the scoring server."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.port = port
        self.timeout = timeout
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            # start the next request on a fresh connection
            self._conn.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)
            raise

    def score(self, body: bytes) -> list:
        status, data = self.request("POST", "/score", body)
        if status != 200:
            raise ServerError(status)
        return json.loads(data)["scores"]

    def close(self) -> None:
        self._conn.close()


def http_requests(pool: np.ndarray, reference: np.ndarray, rows: int) -> list[Request]:
    """Pre-encoded ``/score`` bodies of ``rows`` pool rows each."""
    out = []
    for start in range(0, len(pool) - rows + 1, rows):
        block = pool[start:start + rows]
        key = "row" if rows == 1 else "rows"
        value = block[0].tolist() if rows == 1 else block.tolist()
        body = json.dumps({key: value}).encode()
        out.append(Request(body, reference[start:start + rows], rows))
    return out


def parse_metrics(text: str) -> dict[tuple[str, tuple], float]:
    """Prometheus text lines -> ``{(sample name, sorted labels): value}``."""
    sample = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
    label = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = sample.match(line)
        if match:
            labels = tuple(sorted(label.findall(match.group(2) or "")))
            out[(match.group(1), labels)] = float(match.group(3))
    return out


def metric_sum(samples: dict, name: str, **labels: str) -> float:
    """Sum of one sample name over children matching ``labels``."""
    total = 0.0
    for (sample_name, sample_labels), value in samples.items():
        if sample_name == name and all(
            (k, v) in sample_labels for k, v in labels.items()
        ):
            total += value
    return total


class ServerProcess:
    """``python -m repro serve`` in its own process.

    With ``access_log`` the server runs at ``--log-level info``; its
    JSON access-log lines are parsed from stderr and kept in
    :attr:`records`.
    """

    def __init__(self, checkout, registry, *, access_log: bool = False):
        cmd = [sys.executable, "-m", "repro", "serve", "--spec", "mccatch",
               "--registry", str(registry), "--port", "0"]
        if access_log:
            cmd += ["--log-level", "info"]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=checkout.root, env=checkout.child_env(PYTHONUNBUFFERED="1"),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        self.records: list[dict] = []
        self.stderr_tail: list[str] = []
        self._port: int | None = None
        self._port_seen = threading.Event()
        self._readers = [
            threading.Thread(target=self._read_stdout, daemon=True),
            threading.Thread(target=self._read_stderr, daemon=True),
        ]
        for reader in self._readers:
            reader.start()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match and self._port is None:
                self._port = int(match.group(1))
                self._port_seen.set()
        self._port_seen.set()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            if line.startswith("{"):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    record = None
                if record is not None and record.get("path") == "/score":
                    self.records.append(record)
                    continue
            self.stderr_tail = (self.stderr_tail + [line.rstrip()])[-20:]

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server has not reported its port")
        return self._port

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first 200 on ``/healthz``."""
        deadline = self.spawned + timeout
        self._port_seen.wait(timeout)
        if self._port is None:
            raise RuntimeError(f"repro serve did not start: {self.stderr_tail}")
        conn = Connection(self._port, timeout=5.0)
        try:
            while time.perf_counter() < deadline:
                try:
                    status, _ = conn.request("GET", "/healthz")
                    if status == 200:
                        return time.perf_counter() - self.spawned
                except (OSError, http.client.HTTPException):
                    pass
                time.sleep(0.01)
        finally:
            conn.close()
        raise RuntimeError(f"repro serve never answered /healthz: {self.stderr_tail}")

    def metrics(self) -> dict:
        conn = Connection(self.port)
        try:
            status, body = conn.request("GET", "/metrics")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_metrics(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        """Terminate (SIGTERM), then kill; waits for the process.

        Not SIGINT: a parent started in the background may pass SIGINT
        on as ignored, and the server would never see it.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for reader in self._readers:
            reader.join(timeout=5)
        self.proc.stdout.close()
        self.proc.stderr.close()
