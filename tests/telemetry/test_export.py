"""Exporters: Prometheus rendering, JSONL sampler, HTTP scrape endpoint."""

import json
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.export import (
    JsonlSampler,
    TelemetryServer,
    read_samples,
    render_prometheus,
    sanitize_name,
    validate_exposition,
)
from repro.telemetry.histogram import LatencyHistogram
from repro.telemetry.metrics import MetricsRegistry


class WorkloadCounts:
    """A component-owned provider whose count a test can move."""

    def __init__(self):
        self.batches = 3

    def as_dict(self):
        return {"batches": self.batches}


def make_registry(workload=None):
    registry = MetricsRegistry()
    registry.register_provider("workload", workload or WorkloadCounts())
    latency = LatencyHistogram()
    latency.observe_many([0.001, 0.002, 0.010])
    registry.register_provider(
        "slice.search",
        lambda: {
            "lookups": 100,
            "hits": 70,
            "hit_rate": 0.7,
            "latency": latency.as_dict(),
        },
    )
    return registry


class TestPrometheusRendering:
    def test_sanitize_name(self):
        assert sanitize_name("slice.search.amal") == "caram_slice_search_amal"
        assert sanitize_name("a-b c", namespace="x") == "x_a_b_c"

    def test_render_and_validate(self):
        text = render_prometheus(make_registry().snapshot())
        samples = validate_exposition(text)
        assert samples > 0
        assert 'caram_batches{path="workload"} 3' in text
        assert 'caram_latency{path="slice.search",quantile="0.99"}' in text
        assert 'caram_hits{path="slice.search"} 70' in text

    def test_sketches_at_several_paths_share_one_family(self):
        """A cluster mounts a latency sketch per replica and one for the
        whole cluster: one summary family, one sample set per path."""
        registry = MetricsRegistry()
        for path in ("serving.shard0.replica0.search", "serving.cluster.search"):
            latency = LatencyHistogram()
            latency.observe_many([0.001, 0.004])
            registry.register_provider(
                path, lambda sketch=latency: {"latency": sketch.as_dict()}
            )
        text = render_prometheus(registry.snapshot())
        validate_exposition(text)
        assert text.count("# TYPE caram_latency summary") == 1
        for path in ("serving.shard0.replica0.search", "serving.cluster.search"):
            assert f'caram_latency_count{{path="{path}"}} 2' in text

    def test_validator_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            validate_exposition("caram_x not-a-number\n")
        with pytest.raises(ConfigurationError):
            validate_exposition("")
        with pytest.raises(ConfigurationError):
            validate_exposition(
                "# TYPE caram_x gauge\ncaram_x 1\n"
                "# TYPE caram_x gauge\ncaram_x 2\n"
            )

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.register_provider('weird"path', lambda: {"reads": 1})
        text = render_prometheus(registry.snapshot())
        validate_exposition(text)
        assert '\\"' in text


class TestJsonlSampler:
    def test_manual_samples_flushed(self, tmp_path):
        workload = WorkloadCounts()
        registry = make_registry(workload)
        path = tmp_path / "samples.jsonl"
        sampler = JsonlSampler(registry, path, interval=60.0)
        sampler.sample()
        workload.batches += 1
        sampler.sample()
        sampler.close()
        samples = read_samples(path)
        assert [s["seq"] for s in samples] == [0, 1]
        assert (
            samples[1]["snapshot"]["stats"]["workload"]["batches"]
            == samples[0]["snapshot"]["stats"]["workload"]["batches"] + 1
        )

    def test_background_thread_and_final_sample(self, tmp_path):
        registry = make_registry()
        path = tmp_path / "bg.jsonl"
        with JsonlSampler(registry, path, interval=0.01) as sampler:
            import time

            time.sleep(0.08)
        assert sampler.samples_written >= 2
        assert len(read_samples(path)) == sampler.samples_written

    def test_invalid_interval_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlSampler(make_registry(), tmp_path / "x.jsonl", interval=0)


class TestTelemetryServer:
    def test_scrape_endpoints(self):
        registry = make_registry()
        server = TelemetryServer(
            registry,
            port=0,
            health_check=lambda: {"level": "ok", "exit_code": 0},
            max_requests=3,
        )
        with server:
            base = server.url
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as rsp:
                assert rsp.headers["Content-Type"].startswith("text/plain")
                body = rsp.read().decode("utf-8")
            assert validate_exposition(body) > 0

            with urllib.request.urlopen(f"{base}/snapshot", timeout=5) as rsp:
                snapshot = json.load(rsp)
            assert snapshot["stats"]["workload"]["batches"] == 3

            with urllib.request.urlopen(f"{base}/health", timeout=5) as rsp:
                health = json.load(rsp)
            assert health["level"] == "ok"
        assert server.requests_served == 3

    def test_unknown_path_404_and_no_health_route(self):
        server = TelemetryServer(make_registry(), port=0)
        with server:
            for path in ("/nope", "/health"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"{server.url}{path}", timeout=5
                    )
                assert err.value.code == 404
        assert server.requests_served == 0

    def test_max_requests_self_shutdown(self):
        server = TelemetryServer(make_registry(), port=0, max_requests=1)
        server.start()
        urllib.request.urlopen(f"{server.url}/metrics", timeout=5).read()
        served = server.serve_until_done()
        assert served == 1
