"""Micro-benchmarks of the core primitives (solver, PHC, radix cache,
tokenizer) — these are the pieces whose performance the library's users
actually feel, so regressions here matter independent of the experiment
reports."""

import random
import time

from conftest import perf_record, run_once

from repro.bench.experiments.base import dataset
from repro.core.ggr import GGRConfig, ggr
from repro.core.partitioned import partitioned_reorder
from repro.core.phc import phc
from repro.core.reorder import reorder
from repro.llm.radix import RadixPrefixCache
from repro.llm.tokenizer import HashTokenizer

#: The "large-scale" cases run at a multiple of the micro scale so the
#: same REPRO_SCALE knob controls both tiers (0.2 -> the paper's full
#: 15k-row movies table).
LARGE_SCALE_FACTOR = 5.0


def bench_ggr_movies(benchmark, repro_scale, repro_seed):
    ds = dataset("movies", repro_scale, repro_seed)
    rt = ds.table.to_reorder_table()
    est, sched, _ = benchmark(lambda: ggr(rt, fds=ds.fds))
    assert phc(sched) > 0


def bench_ggr_pdmx_wide(benchmark, repro_scale, repro_seed):
    ds = dataset("pdmx", repro_scale, repro_seed)
    rt = ds.table.to_reorder_table()
    est, sched, _ = benchmark(lambda: ggr(rt, fds=ds.fds))
    assert phc(sched) > 0


def bench_phc_evaluation(benchmark, repro_scale, repro_seed):
    ds = dataset("products", repro_scale, repro_seed)
    sched = reorder(ds.table.to_reorder_table(), "ggr", fds=ds.fds).schedule
    total = benchmark(lambda: phc(sched))
    assert total > 0


def bench_ggr_fastpath_vs_python_speedup(benchmark, repro_seed):
    """Perf-trajectory record for the core layer: compiled (numpy) GGR vs
    the pure-Python oracle on a fixed-size movies table, asserted to find
    the identical schedule. The workload size is pinned (not REPRO_SCALE)
    so the recorded ratio is comparable across runs; interleaved min-of-5
    timing plus the fast/oracle ratio cancels machine speed (same
    methodology as bench_engine_replay_event_speedup)."""
    ds = dataset("movies", 0.1, repro_seed)
    rt = ds.table.to_reorder_table()

    def solve(engine):
        cfg = GGRConfig(engine=engine)
        t0 = time.perf_counter()
        est, sched, _ = ggr(rt, fds=ds.fds, config=cfg)
        return time.perf_counter() - t0, est, phc(sched)

    def work():
        best = {}
        for _ in range(5):
            for engine in ("compiled", "python"):
                got = solve(engine)
                if engine not in best or got[0] < best[engine][0]:
                    best[engine] = got
        return best

    best = run_once(benchmark, work)
    # identical estimate and exact PHC
    assert best["compiled"][1:] == best["python"][1:]
    ratio = best["python"][0] / best["compiled"][0]
    benchmark.extra_info["speedup_compiled_over_python"] = round(ratio, 3)
    assert ratio >= 2.5
    perf_record("core", "ggr_fastpath_speedup", ratio, ">= 2.5")


def bench_ggr_movies_large(benchmark, repro_scale, repro_seed):
    """Large-scale GGR: the whole-table solve the partitioned benchmarks
    below split up, for an apples-to-apples wall-clock comparison."""
    ds = dataset("movies", repro_scale * LARGE_SCALE_FACTOR, repro_seed)
    rt = ds.table.to_reorder_table()
    est, sched, _ = benchmark(lambda: ggr(rt, fds=ds.fds))
    assert phc(sched) > 0


def bench_partitioned_sequential(benchmark, repro_scale, repro_seed):
    """8-way partitioned solve, partitions solved one after another."""
    ds = dataset("movies", repro_scale * LARGE_SCALE_FACTOR, repro_seed)
    rt = ds.table.to_reorder_table()
    res = benchmark(
        lambda: partitioned_reorder(rt, n_partitions=8, fds=ds.fds)
    )
    assert res.exact_phc > 0


def bench_radix_insert_match(benchmark):
    rng = random.Random(0)
    base = [rng.randrange(500) for _ in range(400)]
    prompts = []
    for _ in range(200):
        p = list(base[: rng.randrange(100, 400)])
        p.extend(rng.randrange(500) for _ in range(50))
        prompts.append(p)

    def work():
        cache = RadixPrefixCache()
        hits = 0
        for p in prompts:
            hits += cache.match(p)
            cache.insert(p)
        return hits

    hits = benchmark(work)
    assert hits > 0


def bench_tokenizer_throughput(benchmark):
    tok = HashTokenizer()
    text = " ".join(f"word{i % 97} piece" for i in range(5000))

    n = benchmark(lambda: len(tok.encode(text)))
    assert n > 5000
