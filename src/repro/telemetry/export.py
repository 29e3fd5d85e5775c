"""Exporters: Prometheus text exposition, periodic JSONL sampler, scraper.

Three ways out of the process for a :class:`~repro.telemetry.metrics.
MetricsRegistry` snapshot:

* :func:`render_prometheus` — the Prometheus **text exposition format**
  (version 0.0.4): latency sketches rendered as summaries with quantile
  labels, every other numeric provider leaf as a gauge carrying its
  dotted mount path in a ``path`` label.  :func:`validate_exposition` is
  the matching grammar checker (used by the tests *and* the CI scrape
  step, so format drift is caught without promtool).
* :class:`JsonlSampler` — a periodic background sampler appending one
  timestamped snapshot per line to a JSONL file, flushed per sample so a
  crashed soak run still leaves a replayable series.  ``sample()`` can
  also be driven manually (deterministic tests).
* :class:`TelemetryServer` — an opt-in stdlib :mod:`http.server` scrape
  endpoint (``repro telemetry serve``): ``/metrics`` serves the
  exposition, ``/health`` the health monitor's JSON verdict, ``/snapshot``
  the raw snapshot.  ``max_requests`` lets CI scrape-and-exit without
  process management gymnastics.

Nothing here imports outside the stdlib — the scrape endpoint must run in
the bare CI container.
"""

from __future__ import annotations

import http.server
import json
import re
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.telemetry.histogram import EXPORTED_QUANTILES, is_sketch_dict
from repro.telemetry.metrics import MetricsRegistry

#: Prefix stamped onto every exported metric name.
DEFAULT_NAMESPACE = "caram"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
#: One label value: any run of non-quote/backslash chars or escapes
#: (``\"``, ``\\``, ``\n`` are legal inside label values).
_LABEL_VALUE = r"\"(?:[^\"\\\n]|\\.)*\""
_METRIC_LINE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=" + _LABEL_VALUE  # first label
    + r"(,[a-zA-Z_][a-zA-Z0-9_]*=" + _LABEL_VALUE + r")*\})?"
    r" [^ \n]+$"                                  # value
)


def sanitize_name(path: str, namespace: str = DEFAULT_NAMESPACE) -> str:
    """Dotted path -> Prometheus-legal metric name."""
    name = _NAME_RE.sub("_", path.strip("."))
    if not name or not (name[0].isalpha() or name[0] == "_"):
        name = "_" + name
    return f"{namespace}_{name}" if namespace else name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _summary_lines(name: str, sketch: Dict[str, object], label: str) -> List[str]:
    """One serialized latency sketch's samples in a summary family."""
    lines = [
        f'{name}{{{label},quantile="{q}"}} '
        f"{_format_value(float(sketch[leaf]))}"
        for q, leaf in EXPORTED_QUANTILES
    ]
    lines.append(f"{name}_count{{{label}}} {int(sketch.get('count', 0))}")
    lines.append(
        f"{name}_sum{{{label}}} {_format_value(float(sketch.get('sum', 0.0)))}"
    )
    return lines


def render_prometheus(
    snapshot: Dict[str, object], namespace: str = DEFAULT_NAMESPACE
) -> str:
    """Render one registry snapshot as Prometheus text exposition.

    Serialized latency sketches render as summaries (quantile-labelled
    samples plus ``_count``/``_sum``).  Every other numeric leaf of a
    provider block becomes a gauge named after the leaf, labelled with
    its mount ``path`` — so per-slice blocks share one metric family
    distinguishable by label, the Prometheus idiom for a tree of mounts.
    Each family is typed once, however many paths carry it.
    """
    summaries: Dict[str, List[str]] = {}
    gauges: Dict[str, List[str]] = {}
    for prefix in sorted(snapshot.get("stats", {})):
        block = snapshot["stats"][prefix]
        if not isinstance(block, dict):
            continue
        label = f'path="{_escape_label(prefix)}"'
        for leaf in sorted(block):
            value = block[leaf]
            metric = sanitize_name(leaf, namespace)
            if is_sketch_dict(value):
                summaries.setdefault(metric, []).extend(
                    _summary_lines(metric, value, label)
                )
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                gauges.setdefault(metric, []).append(
                    f"{metric}{{{label}}} {_format_value(value)}"
                )
    lines: List[str] = []
    for kind, families in (("summary", summaries), ("gauge", gauges)):
        for metric in sorted(families):
            lines.append(f"# TYPE {metric} {kind}")
            lines.extend(families[metric])
    return "\n".join(lines) + "\n"


def validate_exposition(text: str) -> int:
    """Check Prometheus text-format conformance; returns the sample count.

    Raises :class:`~repro.errors.ConfigurationError` on the first
    malformed line — the CI scrape step and the exporter tests share this
    checker, so the rendered format cannot silently drift.
    """
    samples = 0
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "summary", "histogram", "untyped"
            ):
                raise ConfigurationError(
                    f"line {lineno}: malformed TYPE line {line!r}"
                )
            if parts[2] in typed:
                raise ConfigurationError(
                    f"line {lineno}: duplicate TYPE for {parts[2]!r}"
                )
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        if not _METRIC_LINE_RE.match(line):
            raise ConfigurationError(
                f"line {lineno}: malformed sample line {line!r}"
            )
        value = line.rsplit(" ", 1)[1]
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ConfigurationError(
                    f"line {lineno}: non-numeric sample value {value!r}"
                ) from None
        samples += 1
    if samples == 0:
        raise ConfigurationError("exposition contains no samples")
    return samples


class JsonlSampler:
    """Periodic registry snapshots appended to a JSONL file.

    Each line is ``{"seq": n, "elapsed_s": t, "snapshot": {...}}`` —
    flushed immediately, so a crashed run keeps every completed sample.
    ``start()`` drives sampling from a daemon thread on ``interval``
    seconds; ``sample()`` can also be called directly (manual cadence,
    deterministic tests).  Use as a context manager to guarantee the final
    sample and the file close.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path,
        interval: float = 1.0,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"sampler interval must be positive, got {interval}"
            )
        self._registry = registry
        self._path = path
        self.interval = interval
        self._file = open(path, "a", encoding="utf-8")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self.samples_written = 0

    @property
    def path(self):
        return self._path

    def sample(self) -> Dict[str, object]:
        """Take and append one snapshot (thread-safe, flushed)."""
        record = {
            "seq": self.samples_written,
            "elapsed_s": round(time.perf_counter() - self._started, 6),
            "snapshot": self._registry.snapshot(),
        }
        with self._lock:
            if self._file.closed:
                return record
            self._file.write(json.dumps(record) + "\n")
            self._file.flush()
            self.samples_written += 1
        return record

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "JsonlSampler":
        """Begin background sampling every ``interval`` seconds."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="telemetry-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        """Stop the background thread, optionally recording a last sample."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if final_sample and not self._file.closed:
            self.sample()

    def close(self) -> None:
        self.stop(final_sample=False)
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "JsonlSampler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        self.close()
        return False


def read_samples(path) -> List[Dict[str, object]]:
    """Load every sample line of a :class:`JsonlSampler` file."""
    out: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


class _ScrapeHandler(http.server.BaseHTTPRequestHandler):
    server_version = "caram-telemetry/1"

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        server: "TelemetryServer" = self.server.telemetry  # type: ignore
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = render_prometheus(
                    server.registry.snapshot(), server.namespace
                ).encode("utf-8")
                self._send(
                    200, "text/plain; version=0.0.4; charset=utf-8", body
                )
            elif path == "/snapshot":
                body = json.dumps(server.registry.snapshot(), indent=2)
                self._send(200, "application/json", body.encode("utf-8"))
            elif path == "/health" and server.health_check is not None:
                body = json.dumps(server.health_check(), indent=2)
                self._send(200, "application/json", body.encode("utf-8"))
            else:
                self._send(404, "text/plain", b"not found\n")
                return
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, "text/plain", f"error: {exc}\n".encode("utf-8"))
            return
        server._count_request()

    def log_message(self, fmt: str, *args) -> None:
        if self.server.telemetry.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)


class TelemetryServer:
    """Opt-in stdlib HTTP scrape endpoint over one metrics registry.

    Args:
        registry: the live registry snapshotted per request.
        host / port: bind address (``port=0`` picks a free port — tests).
        health_check: optional zero-arg callable returning the JSON body
            of ``/health`` (the health monitor's report).
        max_requests: after this many *successful* scrapes the server
            shuts itself down (0 = serve until :meth:`stop`); lets CI
            scrape once and exit cleanly.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        health_check: Optional[Callable[[], Dict[str, object]]] = None,
        max_requests: int = 0,
        namespace: str = DEFAULT_NAMESPACE,
        verbose: bool = False,
    ) -> None:
        self.registry = registry
        self.health_check = health_check
        self.max_requests = max_requests
        self.namespace = namespace
        self.verbose = verbose
        self.requests_served = 0
        self._httpd = http.server.ThreadingHTTPServer(
            (host, port), _ScrapeHandler
        )
        self._httpd.telemetry = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._done = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _count_request(self) -> None:
        self.requests_served += 1
        if self.max_requests and self.requests_served >= self.max_requests:
            self._done.set()
            # shutdown() must come from another thread than the handler's.
            threading.Thread(target=self._httpd.shutdown, daemon=True).start()

    def start(self) -> "TelemetryServer":
        """Serve in a background thread; returns immediately."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="telemetry-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_until_done(self) -> int:
        """Block until ``max_requests`` scrapes landed (or forever).

        The foreground spelling the CLI uses; returns requests served.
        """
        self.start()
        try:
            self._done.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        self.stop()
        return self.requests_served

    def stop(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


__all__ = [
    "DEFAULT_NAMESPACE",
    "JsonlSampler",
    "TelemetryServer",
    "read_samples",
    "render_prometheus",
    "sanitize_name",
    "validate_exposition",
]
