"""Command-line interface: run paper experiments by name.

Usage::

    python -m repro list
    python -m repro run table2
    python -m repro run fig8 table3
    python -m repro run all
    python -m repro report          # regenerate EXPERIMENTS.md content
    python -m repro telemetry run --json out.json --trace trace.jsonl
    python -m repro telemetry diff baseline.json current.json
    python -m repro telemetry serve --port 8787 --max-requests 3
    python -m repro telemetry health --slo 0.05 --json health.json
    python -m repro telemetry health --shards 4      # cluster aggregate
    python -m repro serve-bench --shards 4 --users 400 --json serve.json
    python -m repro reliability soak --rates 1e-5 1e-4 --json soak.json

Failures exit with the error's class-specific code (see
:mod:`repro.errors`), so scripts can tell a capacity overflow from a
detected corruption.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.experiments import (
    fig6,
    fig7,
    fig8,
    ipv6_scaling,
    misses,
    report,
    robustness,
    s34_bandwidth,
    s43_victim,
    table1,
    table2,
    table3,
)

EXPERIMENTS: Dict[str, tuple] = {
    "table1": (table1.main, "match-processor synthesis (Table 1)"),
    "table2": (table2.main, "IP lookup designs A-F (Table 2)"),
    "table3": (table3.main, "trigram designs A-D (Table 3)"),
    "fig6": (fig6.main, "cell size + search power comparison (Figure 6)"),
    "fig7": (fig7.main, "bucket occupancy distribution (Figure 7)"),
    "fig8": (fig8.main, "application area/power comparison (Figure 8)"),
    "s34": (s34_bandwidth.main, "bandwidth/latency equations (Section 3.4)"),
    "s43": (s43_victim.main, "overflow-area sizing (Section 4.3)"),
    "ipv6": (ipv6_scaling.main, "IPv6 scaling study (extension of Section 4.1)"),
    "misses": (misses.main, "unsuccessful-search cost (extension of Section 4)"),
    "robustness": (
        robustness.main,
        "Table 2 stability across generator seeds",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CA-RAM (ISPASS 2007) reproduction harness",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    run = commands.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "names",
        nargs="+",
        help="experiment names (see `repro list`) or 'all'",
    )

    commands.add_parser(
        "report", help="print the full paper-vs-measured report (markdown)"
    )

    telemetry = commands.add_parser(
        "telemetry",
        help="run the instrumented synthetic workload or diff two reports",
    )
    telemetry_commands = telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )
    tel_run = telemetry_commands.add_parser(
        "run",
        help="drive a synthetic workload with tracing/metrics/profiling on",
    )
    tel_run.add_argument(
        "--queries", type=int, default=10_000, help="lookup-stream length"
    )
    tel_run.add_argument(
        "--index-bits", type=int, default=8, help="slice index bits (rows=2^b)"
    )
    tel_run.add_argument(
        "--slots", type=int, default=16, help="record slots per bucket"
    )
    tel_run.add_argument(
        "--seed", type=int, default=99, help="workload RNG seed"
    )
    tel_run.add_argument(
        "--json", metavar="PATH", help="write the full report as JSON"
    )
    tel_run.add_argument(
        "--trace", metavar="PATH", help="stream every trace event to a JSONL file"
    )
    tel_run.add_argument(
        "--no-trace",
        action="store_true",
        help="disable the event tracer (metrics/profiling still on)",
    )
    tel_run.add_argument(
        "--latency",
        action="store_true",
        help="record per-chunk lookup latency percentiles "
        "(slice.search.latency in the report)",
    )
    tel_diff = telemetry_commands.add_parser(
        "diff", help="compare two telemetry/bench JSON reports"
    )
    tel_diff.add_argument("baseline", help="baseline report JSON")
    tel_diff.add_argument("current", help="current report JSON")
    tel_diff.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative-change threshold (default 0.05)",
    )

    def add_workload_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--queries", type=int, default=10_000,
            help="lookup-stream length",
        )
        sub.add_argument(
            "--index-bits", type=int, default=8,
            help="slice index bits (rows=2^b)",
        )
        sub.add_argument(
            "--slots", type=int, default=16,
            help="record slots per bucket",
        )
        sub.add_argument(
            "--seed", type=int, default=99, help="workload RNG seed"
        )
        sub.add_argument(
            "--slo", type=float, default=None,
            help="p99 latency SLO in seconds (enables the SLO burn rule)",
        )
        sub.add_argument(
            "--shards", type=int, default=1,
            help="serve a sharded cluster instead of a single slice "
            "(consistent-hash router; telemetry mounts under serving.*, "
            "health rules read the serving.cluster aggregate)",
        )

    tel_serve = telemetry_commands.add_parser(
        "serve",
        help="run the synthetic workload and expose a Prometheus scrape "
        "endpoint (/metrics, /snapshot, /health)",
    )
    add_workload_args(tel_serve)
    tel_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    tel_serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (0 picks a free port; the URL is printed)",
    )
    tel_serve.add_argument(
        "--max-requests",
        type=int,
        default=0,
        help="shut down after this many scrapes (0 = serve until Ctrl-C)",
    )

    tel_health = telemetry_commands.add_parser(
        "health",
        help="evaluate the health rules; exit 0 (ok) / 10 (warn) / 11 "
        "(critical)",
    )
    add_workload_args(tel_health)
    tel_health.add_argument(
        "--snapshot",
        metavar="PATH",
        help="evaluate an existing telemetry JSON instead of running "
        "the synthetic workload",
    )
    tel_health.add_argument(
        "--expected-amal",
        type=float,
        default=None,
        help="model AMAL reference for the drift rule (default: computed "
        "from the occupancy model when the workload runs)",
    )
    tel_health.add_argument(
        "--json", metavar="PATH", help="write the health report as JSON"
    )

    serve_bench = commands.add_parser(
        "serve-bench",
        help="drive the sharded async serving tier with Zipf-skewed "
        "verified traffic (closed loop; optional open-loop overload leg)",
    )
    serve_bench.add_argument(
        "--shards", type=int, default=4, help="cluster shard count"
    )
    serve_bench.add_argument(
        "--index-bits", type=int, default=8,
        help="per-shard slice index bits (rows=2^b)",
    )
    serve_bench.add_argument(
        "--slots", type=int, default=16, help="record slots per bucket"
    )
    serve_bench.add_argument(
        "--records", type=int, default=6000, help="stored record count"
    )
    serve_bench.add_argument(
        "--requests", type=int, default=20_000,
        help="closed-loop request count",
    )
    serve_bench.add_argument(
        "--users", type=int, default=400,
        help="concurrent simulated users (closed loop)",
    )
    serve_bench.add_argument(
        "--zipf", type=float, default=1.0,
        help="Zipf popularity exponent (0 = uniform)",
    )
    serve_bench.add_argument(
        "--miss-fraction", type=float, default=0.1,
        help="fraction of requests that must miss",
    )
    serve_bench.add_argument(
        "--max-batch", type=int, default=512,
        help="coalescer flush-on-size bound (1 disables coalescing)",
    )
    serve_bench.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="coalescer flush-on-deadline window in milliseconds",
    )
    serve_bench.add_argument(
        "--max-pending", type=int, default=8192,
        help="per-shard admission bound; beyond it requests shed",
    )
    serve_bench.add_argument(
        "--open-qps", type=float, default=None,
        help="also run an open-loop leg offered at this rate "
        "(overload is expected: shed requests get typed errors)",
    )
    serve_bench.add_argument(
        "--max-shed-fraction", type=float, default=None,
        help="fail with exit code 12 (ServiceOverloadError) if the "
        "closed-loop shed fraction exceeds this",
    )
    serve_bench.add_argument(
        "--replicas", type=int, default=1,
        help="replicas per shard (the same failover loop serves every "
        "count; >1 adds replicas to fail over to)",
    )
    serve_bench.add_argument(
        "--chaos", action="store_true",
        help="kill one replica of every shard mid-stream (requires "
        "--replicas >= 2) and report failover behaviour",
    )
    serve_bench.add_argument(
        "--seed", type=int, default=7, help="workload RNG seed"
    )
    serve_bench.add_argument(
        "--json", metavar="PATH", help="write the reports as JSON"
    )

    reliability = commands.add_parser(
        "reliability",
        help="fault-injection / graceful-degradation experiments",
    )
    reliability_commands = reliability.add_subparsers(
        dest="reliability_command", required=True
    )
    soak = reliability_commands.add_parser(
        "soak",
        help="chaos soak: swept fault rates, detect-or-correct invariant",
    )
    soak.add_argument(
        "--queries",
        type=int,
        default=10_000,
        help="lookups per workload per rate",
    )
    soak.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        help="bit-flip rates to sweep (default: 1e-5 1e-4 1e-3)",
    )
    soak.add_argument(
        "--workloads",
        nargs="+",
        choices=("ip", "trigram"),
        default=None,
        help="workloads to soak (default: both)",
    )
    soak.add_argument(
        "--seed", type=int, default=7, help="workload/fault RNG seed"
    )
    soak.add_argument(
        "--scrub-every",
        type=int,
        default=4,
        help="interleave blocks between background scrubs (0 disables)",
    )
    soak.add_argument(
        "--no-ecc",
        action="store_true",
        help="chaos mode: inject faults with ECC off (demonstrates "
        "silent corruption — the soak will report silent wrong answers)",
    )
    soak.add_argument(
        "--json", metavar="PATH", help="write the sweep report as JSON"
    )
    return parser


def cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_, description) in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {description}")
    return 0


def cmd_run(names: Sequence[str]) -> int:
    selected: List[str] = []
    for name in names:
        if name == "all":
            selected.extend(EXPERIMENTS)
        elif name in EXPERIMENTS:
            selected.append(name)
        else:
            print(f"unknown experiment {name!r}; try `repro list`",
                  file=sys.stderr)
            return 2
    for name in dict.fromkeys(selected):  # dedupe, keep order
        print(f"\n########## {name} ##########")
        EXPERIMENTS[name][0]()
    return 0


def cmd_report() -> int:
    report.build_report(out=sys.stdout)
    return 0


def _print_telemetry_report(report_dict: Dict[str, object]) -> None:
    workload = report_dict["workload"]
    print("workload:")
    for key, value in workload.items():
        print(f"  {key}: {value}")
    metrics = report_dict["metrics"]
    search = metrics.get("stats", {}).get("slice.search", {})
    if search:
        print("search:")
        for key in (
            "lookups", "hit_rate", "amal",
            "scalar_fallbacks", "probe_walk_keys",
        ):
            print(f"  {key}: {search.get(key)}")
    phases = report_dict.get("phases") or {}
    if phases:
        print("phases:")
        for phase, entry in phases.items():
            print(
                f"  {phase}: {entry['seconds'] * 1e3:.3f} ms"
                f" ({entry['calls']} calls)"
            )
    trace = report_dict.get("trace")
    if trace:
        print("trace events:")
        for kind, count in sorted(trace.items()):
            print(f"  {kind}: {count}")


def cmd_telemetry_run(args: argparse.Namespace) -> int:
    from repro.telemetry.workload import run_synthetic_workload

    report_dict = run_synthetic_workload(
        index_bits=args.index_bits,
        slots=args.slots,
        queries=args.queries,
        seed=args.seed,
        trace=not args.no_trace,
        trace_path=args.trace,
        track_latency=args.latency,
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report_dict, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    _print_telemetry_report(report_dict)
    return 0


def cmd_telemetry_diff(args: argparse.Namespace) -> int:
    from repro.telemetry.compare import main as compare_main

    argv = [args.baseline, args.current]
    if args.threshold is not None:
        argv += ["--threshold", str(args.threshold)]
    return compare_main(argv)


def _prepare_serving_slice(args: argparse.Namespace):
    """Build, load, and exercise the serve/health telemetry target.

    ``--shards 1`` (default) keeps the original single synthetic slice;
    ``--shards N`` builds an N-shard consistent-hash cluster and drives
    the same workload through the scatter/gather batch path, mounting
    per-shard telemetry plus the ``serving.cluster`` aggregate.

    Returns ``(target, registry, model_amal, health_prefix)`` — the model
    AMAL is the occupancy model's expectation for the stored key set
    (record-weighted across shards), the reference the drift rule
    compares the measured AMAL against; ``health_prefix`` is where the
    health rules read the search telemetry (``slice`` or
    ``serving.cluster``).
    """
    from repro.hashing.analysis import occupancy_report
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.workload import (
        build_workload_slice,
        make_keys,
        make_queries,
    )

    registry = MetricsRegistry()
    if getattr(args, "shards", 1) <= 1:
        slice_ = build_workload_slice(args.index_bits, args.slots)
        slice_.register_telemetry(registry)
        slice_.enable_latency_tracking()
        stored = make_keys(slice_, 0.7, args.seed)
        slice_.bulk_load([(key, key & 0xFFFF) for key in stored])
        queries = make_queries(stored, args.queries, 0.5, args.seed + 1)
        slice_.search_batch(queries)
        homes = [slice_.index_generator.index(key) for key in stored]
        model = occupancy_report(homes, slice_.config.rows, args.slots)
        return slice_, registry, model.amal_uniform, "slice"

    from repro.serving.cluster import CaramCluster

    cluster = CaramCluster.build(
        shard_count=args.shards,
        index_bits=args.index_bits,
        slots=args.slots,
    )
    cluster.enable_latency_tracking()
    cluster.register_telemetry(registry, prefix="serving")
    # Target 0.5 average load: consistent hashing spreads keys to within
    # a few tens of percent of even, so no shard risks overflowing.
    reference = cluster.shards[0].group
    target = int(args.shards * reference.capacity_records * 0.5)
    stored = _distinct_keys(target, args.seed)
    cluster.load([(key, key & 0xFFFF) for key in stored])
    queries = make_queries(stored, args.queries, 0.5, args.seed + 1)
    cluster.search_batch(queries)
    # Record-weighted model AMAL across shards: each shard is its own
    # hash table, so the cluster expectation is the per-shard occupancy
    # model weighted by how many lookups land there (~ records stored).
    weighted = 0.0
    total_records = 0
    for shard in cluster.shards:
        group = shard.group
        shard_keys = [
            key for key in stored
            if cluster.router.shard_for_query(key) == shard.shard_id
        ]
        if not shard_keys:
            continue
        homes = [group.index_generator.index(key) for key in shard_keys]
        model = occupancy_report(
            homes, group.bucket_count, group.slots_per_bucket
        )
        weighted += model.amal_uniform * len(shard_keys)
        total_records += len(shard_keys)
    model_amal = weighted / total_records if total_records else None
    return cluster, registry, model_amal, "serving.cluster"


def _distinct_keys(count: int, seed: int) -> List[int]:
    """``count`` distinct random 32-bit keys (cluster workload)."""
    from repro.telemetry.workload import KEY_BITS
    from repro.utils.rng import make_rng

    rng = make_rng(seed)
    keys: List[int] = []
    seen = set()
    while len(keys) < count:
        key = int(rng.integers(0, 1 << KEY_BITS))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


def cmd_telemetry_serve(args: argparse.Namespace) -> int:
    from repro.telemetry.export import TelemetryServer
    from repro.telemetry.health import HealthMonitor, default_rules

    _target, registry, model_amal, prefix = _prepare_serving_slice(args)
    monitor = HealthMonitor(
        default_rules(
            expected_amal=model_amal, slo_seconds=args.slo, prefix=prefix
        )
    )
    server = TelemetryServer(
        registry,
        host=args.host,
        port=args.port,
        health_check=lambda: monitor.evaluate(
            registry.snapshot()
        ).as_dict(),
        max_requests=args.max_requests,
    )
    print(
        f"serving telemetry on {server.url} (/metrics, /snapshot, /health)",
        flush=True,
    )
    served = server.serve_until_done()
    print(f"served {served} requests")
    return 0


def cmd_telemetry_health(args: argparse.Namespace) -> int:
    from repro.telemetry.health import HealthMonitor, default_rules

    expected_amal = args.expected_amal
    prefix = "serving.cluster" if args.shards > 1 else "slice"
    if args.snapshot:
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    else:
        _target, registry, model_amal, prefix = _prepare_serving_slice(
            args
        )
        snapshot = registry.snapshot()
        if expected_amal is None:
            expected_amal = model_amal
    monitor = HealthMonitor(
        default_rules(
            expected_amal=expected_amal, slo_seconds=args.slo, prefix=prefix
        )
    )
    report = monitor.evaluate(snapshot)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    print(report.format())
    return report.exit_code


def cmd_serve_bench(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ConfigurationError, ServiceOverloadError
    from repro.serving import (
        CaramCluster,
        ChaosSpec,
        ShardedService,
        make_request_stream,
        run_closed_loop,
        run_open_loop,
    )
    from repro.telemetry.workload import KEY_BITS

    if args.chaos and args.replicas < 2:
        raise ConfigurationError("--chaos requires --replicas >= 2")

    cluster = CaramCluster.build(
        shard_count=args.shards,
        index_bits=args.index_bits,
        slots=args.slots,
        replication=args.replicas,
    )
    stored = _distinct_keys(args.records, args.seed)
    records = [(key, key & 0xFFFF) for key in stored]
    cluster.load(records)
    values = dict(records)

    def stream_of(requests: int, seed_offset: int):
        return make_request_stream(
            stored,
            values,
            requests=requests,
            zipf_exponent=args.zipf,
            miss_fraction=args.miss_fraction,
            seed=args.seed + seed_offset,
            key_bits=KEY_BITS,
        )

    def make_service():
        return ShardedService(
            cluster,
            max_batch_size=args.max_batch,
            max_delay=args.max_delay_ms / 1000.0,
            max_pending=args.max_pending,
        )

    async def kill_one_replica_midstream(service):
        # Wait until roughly half the closed-loop traffic has completed,
        # then crash replica 1 of every shard.
        target = max(1, args.requests // 2)
        while service.stats.completed < target and service._accepting:
            await asyncio.sleep(0.005)
        for shard_id in range(args.shards):
            cluster.inject_chaos(shard_id, 1, ChaosSpec(mode="crash"))
        return True

    async def run():
        async with make_service() as service:
            killer = None
            if args.chaos:
                killer = asyncio.ensure_future(
                    kill_one_replica_midstream(service)
                )
            closed = await run_closed_loop(
                service, stream_of(args.requests, 1), users=args.users
            )
            if killer is not None:
                killer.cancel()
                try:
                    await killer
                except asyncio.CancelledError:
                    pass
            opened = None
            if args.open_qps is not None:
                opened = await run_open_loop(
                    service,
                    stream_of(args.requests, 2),
                    offered_qps=args.open_qps,
                )
            return closed, opened

    closed, opened = asyncio.run(run())
    reports = {"closed_loop": closed.as_dict()}
    if opened is not None:
        reports["open_loop"] = opened.as_dict()
    for name, report_dict in reports.items():
        print(f"{name}:")
        for key in (
            "requests", "completed", "shed", "failed", "wrong",
            "sustained_qps", "coalescing_factor",
        ):
            value = report_dict.get(key, 0)
            if isinstance(value, float):
                value = round(value, 2)
            print(f"  {key}: {value}")
        latency = report_dict.get("latency") or {}
        if latency.get("count"):
            print(
                f"  latency p50/p99: "
                f"{latency['p50'] * 1e3:.3f} ms / "
                f"{latency['p99'] * 1e3:.3f} ms"
            )
    membership = cluster.membership()
    failover = {
        "replication": args.replicas,
        "chaos": bool(args.chaos),
        "membership": membership,
    }
    totals = [shard.failover.as_dict() for shard in cluster.shards]
    failover.update({stat: sum(t[stat] for t in totals) for stat in totals[0]})
    reports["failover"] = failover
    print("failover:")
    for stat in (
        "retries", "timeouts", "evictions", "readmissions",
        "exhausted",
    ):
        print(f"  {stat}: {failover[stat]}")
    alive = sum(
        1
        for entry in membership.values()
        for counters in entry["replicas"].values()
        if counters["state"] == "active"
    )
    total = sum(
        len(entry["replicas"]) for entry in membership.values()
    )
    print(f"  replicas active: {alive}/{total}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(reports, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if (
        args.max_shed_fraction is not None
        and closed.shed_fraction > args.max_shed_fraction
    ):
        raise ServiceOverloadError(
            f"closed-loop shed fraction {closed.shed_fraction:.4f} "
            f"exceeds --max-shed-fraction {args.max_shed_fraction}"
        )
    if closed.wrong or (opened is not None and opened.wrong):
        print("error: wrong answers detected", file=sys.stderr)
        return 1
    return 0


def cmd_reliability_soak(args: argparse.Namespace) -> int:
    from repro.reliability.manager import ReliabilityPolicy
    from repro.reliability.soak import (
        DEFAULT_RATES,
        format_sweep_table,
        run_soak_sweep,
    )

    policy = None
    if args.no_ecc:
        policy = ReliabilityPolicy(
            ecc=False, victim_capacity=4096, max_retries=16
        )
    reports = run_soak_sweep(
        rates=args.rates or DEFAULT_RATES,
        workloads=args.workloads or ("ip", "trigram"),
        queries=args.queries,
        seed=args.seed,
        policy=policy,
        scrub_every=args.scrub_every,
    )
    print(format_sweep_table(reports))
    silent = sum(r.silent_wrong for r in reports)
    if args.no_ecc:
        print(f"\nECC off (chaos mode): {silent} silent wrong answers")
    elif silent:
        print(
            f"\nDETECT-OR-CORRECT VIOLATED: {silent} silent wrong answers"
        )
    else:
        print("\ndetect-or-correct invariant held: 0 silent wrong answers")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump([r.as_dict() for r in reports], handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if silent and not args.no_ecc:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.errors import CaRamError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "run":
            return cmd_run(args.names)
        if args.command == "report":
            return cmd_report()
        if args.command == "telemetry":
            if args.telemetry_command == "run":
                return cmd_telemetry_run(args)
            if args.telemetry_command == "serve":
                return cmd_telemetry_serve(args)
            if args.telemetry_command == "health":
                return cmd_telemetry_health(args)
            return cmd_telemetry_diff(args)
        if args.command == "serve-bench":
            return cmd_serve_bench(args)
        if args.command == "reliability":
            return cmd_reliability_soak(args)
    except CaRamError as error:
        # Typed failures map to class-specific exit codes so callers can
        # distinguish configuration mistakes from detected corruption.
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
