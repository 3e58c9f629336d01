"""Command-line entry point: ``python -m repro <experiment>``.

``repro list`` shows every experiment; ``repro all`` runs the full set.
``--scale`` replays the paper's dataset sizes proportionally
(``--scale 1.0`` = full size); it defaults to ``REPRO_SCALE`` or 0.05.

``repro explain [--sql "SELECT ..."]`` renders the LLM-aware optimizer's
plan for a query over the Movies demo catalog: the rewrites that fired
(non-LLM filters pushed below LLM filters, LLM predicates reordered by
estimated tokens x selectivity, LIMIT pushed below projections) and the
estimated LLM prompt tokens per operator.

``repro serve-trace`` demos the online serving layer: it synthesizes (or
loads, ``--trace``) a 3-tenant arrival-timed workload over the benchmark
query suite and replays it under every scheduling policy (``--policy``
narrows the set), printing prefix hit rate, p50/p95/p99 TTFT and goodput
per policy plus a per-tenant SLO table and the shared encode cache's
hit/miss telemetry.

``repro serve-cluster`` replays the same workload across a replica fleet
(``--replicas``, default 4) under every routing policy (``--routing``
narrows the set), printing aggregate PHR, goodput, load skew and
makespan per policy plus the winning policy's per-replica table.

Both serving demos accept the continuous-batching knobs: ``--preemption
{off,recompute,swap}`` lets the scheduler evict decoding victims for
late-arriving urgent work, ``--chunk N`` splits long prefills into
N-token segments interleaved with decode, and ``--deadline-policy S``
sets the ``deadline`` EDF scheduler's default per-request deadline.

Both also accept ``--emit-trace FILE``: tracing is forced on and the
replay's execution trace — per-request lifecycle spans, preemption /
eviction / shed instants, and scheduler gauge timelines — is written as
Chrome trace-event JSON (load in Perfetto or chrome://tracing; one track
per policy for serve-trace, one per routing/replica for serve-cluster)
or compact JSONL with a ``.jsonl`` extension. ``repro trace-report FILE``
prints the per-track, per-tenant phase breakdown (queue / prefill /
decode / swap-stall %) of such a file.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Optimizing LLM Queries in Relational "
            "Data Analytics Workloads' (MLSys 2025)."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'all', 'list', 'explain', 'serve-trace', "
             "'serve-cluster', or 'trace-report'",
    )
    parser.add_argument(
        "path", nargs="?", default=None,
        help="trace file for 'repro trace-report' (Chrome JSON or JSONL, "
             "as written by --emit-trace)",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale factor (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--sql", type=str, default=None,
                        help="SQL for 'repro explain' (default: a demo "
                             "multi-predicate LLM query over Movies)")
    parser.add_argument("--policy", type=str, default=None,
                        help="comma-separated scheduler policies for "
                             "'repro serve-trace' (default: all)")
    parser.add_argument("--trace", type=str, default=None,
                        help="JSON workload trace file for 'repro "
                             "serve-trace' (default: synthesize a 3-tenant "
                             "mix over the query suite)")
    parser.add_argument("--requests", type=int, default=90,
                        help="synthesized trace length for 'repro "
                             "serve-trace'")
    parser.add_argument("--rate", type=float, default=None,
                        help="arrival rate (requests/s) for the "
                             "synthesized trace")
    parser.add_argument("--arrivals", type=str, default="poisson",
                        help="arrival process for the synthesized trace: "
                             "poisson, bursty, or diurnal")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request E2E deadline (s) for goodput "
                             "accounting in 'repro serve-trace'")
    parser.add_argument("--save-trace", type=str, default=None,
                        help="also write the synthesized trace JSON here")
    parser.add_argument("--replicas", type=int, default=4,
                        help="replica count for 'repro serve-cluster'")
    parser.add_argument("--routing", type=str, default=None,
                        help="comma-separated routing policies for "
                             "'repro serve-cluster' (default: all)")
    parser.add_argument("--preemption", type=str, default="off",
                        choices=["off", "recompute", "swap"],
                        help="decode preemption mode for the serving "
                             "demos: victims are evicted for re-prefill "
                             "(recompute) or parked in host memory (swap)")
    parser.add_argument("--chunk", type=int, default=None,
                        help="chunked-prefill segment size in tokens for "
                             "the serving demos (default: monolithic "
                             "prefill)")
    parser.add_argument("--deadline-policy", type=float, default=None,
                        help="default per-request deadline (s) for the "
                             "'deadline' EDF scheduler in the serving "
                             "demos (requests without their own "
                             "deadline_s use it)")
    parser.add_argument("--emit-trace", type=str, default=None,
                        help="write the serving demos' execution trace "
                             "here (forces tracing on): Chrome trace-event "
                             "JSON for Perfetto/chrome://tracing, or "
                             "compact JSONL with a .jsonl extension; "
                             "inspect with 'repro trace-report FILE'")
    return parser


#: Demo query for ``repro explain``: one cheap relational predicate plus
#: two LLM predicates of very different per-row cost, and a LIMIT — every
#: optimizer rewrite fires on it.
EXPLAIN_DEMO_SQL = (
    "SELECT movietitle FROM movies "
    "WHERE LLM('Given the movie information and review, answer Yes or No: "
    "is this movie suitable for kids?', movieinfo, reviewcontent) = 'Yes' "
    "AND reviewtype = 'Fresh' "
    "AND LLM('Is this title catchy? Yes or No.', movietitle) = 'Yes' "
    "LIMIT 5"
)


def run_explain(sql: Optional[str], scale: Optional[float], seed: int) -> str:
    """Build the Movies demo catalog and render the optimized plan."""
    from repro.bench.reporting import default_scale
    from repro.data import build_dataset
    from repro.relational import Database

    ds = build_dataset("movies", scale=scale or default_scale(0.01), seed=seed)
    db = Database()
    db.register("movies", ds.table, fds=ds.fds)
    return db.explain(sql or EXPLAIN_DEMO_SQL)


def _serve_trace_from_args(args):
    """The workload for the serving demos: the ``--trace`` file when
    given, else a synthesized 3-tenant mix over the benchmark query
    suite (optionally teed to ``--save-trace``)."""
    from repro.bench.reporting import default_scale
    from repro.llm.workload import (
        TenantSpec,
        WorkloadTrace,
        make_arrivals,
        synthesize_tenant_trace,
    )

    if args.trace:
        trace = WorkloadTrace.load(args.trace)
    else:
        # Three tenants over real suite queries: two unordered streams that
        # interleave against each other plus one GGR-reordered stream —
        # the cross-tenant cache-interference shape the policies differ on.
        scale = args.scale or default_scale(0.01)
        tenants = [
            TenantSpec("analytics", "movies-T1", policy="original", weight=1.0),
            TenantSpec("reviews", "products-T1", policy="original", weight=1.0),
            TenantSpec("curated", "movies-T2", policy="ggr", weight=0.5),
        ]
        rate = 40.0 if args.rate is None else args.rate
        arrivals = make_arrivals(
            args.arrivals, args.requests, rate, seed=args.seed
        )
        trace = synthesize_tenant_trace(
            tenants, arrivals, scale=scale, seed=args.seed
        )
    if args.save_trace:
        trace.save(args.save_trace)
    return trace


def _trace_header(trace) -> str:
    return (
        f"trace {trace.name!r}: {trace.n_requests} requests, "
        f"{len(trace.tenants)} tenants "
        f"({', '.join(trace.tenants)}), "
        f"{trace.duration_s:.2f}s span, "
        f"~{trace.offered_rate_rps():.1f} req/s offered"
    )


def run_serve_trace(args) -> str:
    """Replay an arrival-timed trace under each scheduling policy and
    render the policy comparison + per-tenant SLO tables."""
    from repro.llm.client import SimulatedLLMClient
    from repro.llm.engine import EngineConfig
    from repro.llm.scheduler import SCHEDULER_POLICIES
    from repro.llm.tokenizer import HashTokenizer

    policies = (
        [p.strip() for p in args.policy.split(",") if p.strip()]
        if args.policy
        else list(SCHEDULER_POLICIES)
    )
    trace = _serve_trace_from_args(args)

    lines = [
        _trace_header(trace),
        "",
        "policy            phr     p50_ttft  p95_ttft  p99_ttft  e2e_p95"
        "   goodput    makespan  npre",
    ]
    # One tokenizer across the per-policy clients: each distinct prompt is
    # encoded once for the whole sweep, and the shared encode cache's
    # telemetry below shows the cross-policy reuse.
    tokenizer = HashTokenizer()
    last = None
    tracks = []
    for policy in policies:
        client = SimulatedLLMClient(
            engine_config=EngineConfig(
                scheduler=policy,
                max_batch_size=16,
                preemption=args.preemption,
                prefill_chunk_tokens=args.chunk,
                scheduler_deadline_s=args.deadline_policy,
                trace="on" if args.emit_trace else "off",
            ),
            tokenizer=tokenizer,
        )
        res = client.generate_trace(trace, deadline_s=args.deadline)
        if res.engine_result.trace is not None:
            tracks.append((res.scheduler, res.engine_result.trace))
        s = res.slo
        lines.append(
            f"{res.scheduler:<16} {100 * res.prefix_hit_rate:5.1f}%  "
            f"{s.ttft.p50:7.3f}s  {s.ttft.p95:7.3f}s  {s.ttft.p99:7.3f}s  "
            f"{s.e2e.p95:7.3f}s  {100 * s.attainment:6.1f}%  "
            f"{res.total_seconds:8.2f}s  {res.engine_result.n_preemptions:>4}"
        )
        last = res
        ec_stats = client.encode_cache_stats()
        rx_stats = client.radix_stats()
    if last is not None:
        ec_lookups = ec_stats["hits"] + ec_stats["misses"]
        ec_rate = ec_stats["hits"] / ec_lookups if ec_lookups else 0.0
        lines.append(
            f"encode cache: {ec_stats['hits']} hits / "
            f"{ec_stats['misses']} misses ({100 * ec_rate:.1f}%), "
            f"{ec_stats['entries']} entries, "
            f"{ec_stats['evictions']} evictions"
        )
        lines.append(
            f"radix cache: {rx_stats['nodes']} nodes, "
            f"{rx_stats['token_store_bytes']} store bytes, "
            f"{rx_stats['evicted_nodes']} nodes / "
            f"{rx_stats['evicted_tokens']} tok evicted"
        )
        lines.append("")
        lines.append(last.slo.render(f"per-tenant SLO ({last.scheduler})"))
    if args.emit_trace:
        from repro.llm.tracing import write_trace

        write_trace(tracks, args.emit_trace)
        lines.append("")
        lines.append(
            f"trace: wrote {len(tracks)} track(s) to {args.emit_trace} "
            f"(inspect with 'repro trace-report {args.emit_trace}' or "
            f"load in Perfetto)"
        )
    return "\n".join(lines)


def run_serve_cluster(args) -> str:
    """Replay an arrival-timed trace across a replica fleet under each
    routing policy and render the comparison + the last policy's
    per-replica table."""
    from repro.llm.cluster import (
        ROUTING_POLICIES,
        ClusterConfig,
        ClusterEngine,
    )
    from repro.llm.engine import EngineConfig
    from repro.llm.tokenizer import HashTokenizer

    routings = (
        [r.strip() for r in args.routing.split(",") if r.strip()]
        if args.routing
        else list(ROUTING_POLICIES)
    )
    trace = _serve_trace_from_args(args)

    lines = [
        _trace_header(trace),
        "",
        "routing            replicas  phr     goodput   skew    makespan",
    ]
    tokenizer = HashTokenizer()
    last = None
    last_engine = None
    tracks = []
    for routing in routings:
        engine = ClusterEngine(
            config=ClusterConfig(
                n_replicas=args.replicas,
                routing=routing,
                engine=EngineConfig(
                    max_batch_size=16,
                    preemption=args.preemption,
                    prefill_chunk_tokens=args.chunk,
                    scheduler_deadline_s=args.deadline_policy,
                    trace="on" if args.emit_trace else "off",
                ),
            ),
            tokenizer=tokenizer,
        )
        res = engine.run_trace(trace, deadline_s=args.deadline)
        tracks.extend(
            (f"{res.routing}/{label}", tr) for label, tr in res.trace_tracks()
        )
        lines.append(
            f"{res.routing:<18} {res.n_replicas:>8}  "
            f"{100 * res.prefix_hit_rate:5.1f}%  "
            f"{100 * res.goodput_attainment:6.1f}%  {res.load_skew:5.3f}  "
            f"{res.total_seconds:8.2f}s"
        )
        last = res
        last_engine = engine
    if last is not None:
        # The encode cache rides the tokenizer, shared by every engine in
        # the sweep — one fleet-wide line, matching serve-trace's.
        ec = last_engine.encode_cache_stats()
        ec_lookups = ec["hits"] + ec["misses"]
        ec_rate = ec["hits"] / ec_lookups if ec_lookups else 0.0
        lines.append(
            f"encode cache: {ec['hits']} hits / "
            f"{ec['misses']} misses ({100 * ec_rate:.1f}%), "
            f"{ec['entries']} entries, {ec['evictions']} evictions"
        )
        lines.append("")
        lines.append(last.render_replicas())
        lines.append("")
        lines.append(
            last.slo.render(
                f"per-tenant SLO ({last.routing}, {last.n_replicas} replicas)"
            )
        )
    if args.emit_trace:
        from repro.llm.tracing import write_trace

        write_trace(tracks, args.emit_trace)
        lines.append("")
        lines.append(
            f"trace: wrote {len(tracks)} track(s) to {args.emit_trace} "
            f"(inspect with 'repro trace-report {args.emit_trace}' or "
            f"load in Perfetto)"
        )
    return "\n".join(lines)


def run_trace_report(path: Optional[str]) -> str:
    """Per-phase time breakdown of an ``--emit-trace`` file."""
    from repro.errors import ReproError
    from repro.llm.tracing import trace_report

    if not path:
        raise ReproError(
            "trace-report needs a trace file: repro trace-report TRACE.json"
        )
    return trace_report(path)


def _run_subcommand(name: str, runner, out: Optional[str]) -> int:
    """Shared subcommand epilogue: user errors (malformed SQL, unknown
    tables, bad trace files) become one line on stderr and a nonzero
    exit — never a traceback; success prints and optionally tees to
    ``out``."""
    from repro.errors import ReproError

    try:
        text = runner()
        print(text)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
    except (ReproError, OSError) as exc:
        print(f"{name} failed: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.experiment == "explain":
        return _run_subcommand(
            "explain",
            lambda: run_explain(args.sql, args.scale, args.seed),
            args.out,
        )

    if args.experiment == "serve-trace":
        return _run_subcommand(
            "serve-trace", lambda: run_serve_trace(args), args.out
        )

    if args.experiment == "serve-cluster":
        return _run_subcommand(
            "serve-cluster", lambda: run_serve_cluster(args), args.out
        )

    if args.experiment == "trace-report":
        return _run_subcommand(
            "trace-report", lambda: run_trace_report(args.path), args.out
        )

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'repro list'", file=sys.stderr)
        return 2

    from repro.errors import ReproError

    reports = []
    try:
        for name in names:
            start = time.perf_counter()
            output = EXPERIMENTS[name](scale=args.scale, seed=args.seed)
            elapsed = time.perf_counter() - start
            text = output.render() + f"\n\n(wall time: {elapsed:.1f}s)"
            print(text)
            print()
            reports.append(text)

        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n\n".join(reports) + "\n")
    except (ReproError, OSError) as exc:
        # Same contract as the subcommands: one line on stderr, exit 2.
        print(f"{args.experiment} failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
