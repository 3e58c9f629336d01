"""Tests for the batch inference server facade."""

import pytest

from repro.errors import ServingError
from repro.llm.server import BatchInferenceServer


def prompts(tag, n=5):
    return [f"shared preamble for every request {tag} row {i}" for i in range(n)]


class TestJobs:
    def test_submit_and_stats(self):
        server = BatchInferenceServer()
        res = server.submit_job("job-1", ["hello world"] * 4, output_lens=[2] * 4)
        assert len(res.outputs) == 4
        j = server.job("job-1")
        assert j.n_requests == 4
        assert j.prompt_tokens > 0
        assert j.seconds > 0
        # Four identical prompts: one distinct — the dedup headroom an
        # LLM-aware SQL layer would exploit.
        assert j.n_distinct_prompts == 1
        assert server.job("job-1").n_distinct_prompts == 1

    def test_distinct_prompts_counted_and_reported(self):
        server = BatchInferenceServer()
        server.submit_job("d", prompts("x"), output_lens=[1] * 5)
        assert server.job("d").n_distinct_prompts == 5
        assert "distinct" in server.report()

    def test_cache_persists_across_jobs(self):
        server = BatchInferenceServer()
        server.submit_job("warm", prompts("x"), output_lens=[1] * 5)
        server.submit_job("reuse", prompts("x"), output_lens=[1] * 5)
        assert server.job("reuse").hit_rate > server.job("warm").hit_rate

    def test_fresh_cache_isolates(self):
        server = BatchInferenceServer()
        server.submit_job("warm", prompts("x"), output_lens=[1] * 5)
        server.submit_job("cold", prompts("x"), output_lens=[1] * 5, fresh_cache=True)
        assert server.job("cold").hit_rate <= server.job("warm").hit_rate + 0.5

    def test_duplicate_job_id_rejected(self):
        server = BatchInferenceServer()
        server.submit_job("a", ["p"], output_lens=[1])
        with pytest.raises(ServingError):
            server.submit_job("a", ["p"], output_lens=[1])

    def test_failed_job_id_can_be_retried(self):
        """Regression: a job that dies with CapacityError used to leave its
        id registered, so the fixed-up retry hit "duplicate job id"."""
        from repro.errors import CapacityError
        from repro.llm.engine import EngineConfig

        server = BatchInferenceServer(
            engine_config=EngineConfig(kv_capacity_tokens=64, block_tokens=16)
        )
        huge = " ".join(f"tok{i}" for i in range(500))
        with pytest.raises(CapacityError):
            server.submit_job("etl", [huge], output_lens=[1])
        # The failed attempt must not burn the id or record stats.
        assert server.stats.jobs == []
        res = server.submit_job("etl", ["small prompt"], output_lens=[1])
        assert len(res.outputs) == 1
        assert server.job("etl").n_requests == 1

    def test_report_includes_paged_columns(self):
        from repro.llm.engine import EngineConfig

        server = BatchInferenceServer(
            engine_config=EngineConfig(kv_accounting="paged")
        )
        server.submit_job("a", prompts("x"), output_lens=[1] * 5)
        report = server.report()
        assert "kv_blocks" in report and "frag_tok" in report
        job = server.job("a")
        assert job.peak_kv_blocks > 0
        assert job.block_tokens == 16
        assert 0.0 <= job.fragmentation < 1.0

    def test_empty_job_rejected(self):
        server = BatchInferenceServer()
        with pytest.raises(ServingError):
            server.submit_job("empty", [])

    def test_unknown_job(self):
        server = BatchInferenceServer()
        with pytest.raises(ServingError):
            server.job("ghost")

    def test_lifetime_rollup_and_report(self):
        server = BatchInferenceServer()
        server.submit_job("a", prompts("x"), output_lens=[1] * 5)
        server.submit_job("b", prompts("x"), output_lens=[1] * 5)
        assert 0.0 <= server.stats.lifetime_hit_rate <= 1.0
        assert server.stats.total_seconds > 0
        report = server.report()
        assert "lifetime hit rate" in report
        assert "a" in report and "b" in report

    def test_outputs_passed_through(self):
        server = BatchInferenceServer()
        res = server.submit_job("o", ["p1", "p2"], outputs=["yes", "no"])
        assert res.outputs == ["yes", "no"]


class TestTraceJobs:
    def trace(self, n=8, tag="t", stagger=0.02):
        from repro.llm.workload import TraceRequest, WorkloadTrace

        return WorkloadTrace(
            [
                TraceRequest(
                    i * stagger,
                    f"shared preamble for every request {tag} row {i % 4}",
                    tenant=f"tenant-{i % 2}",
                    output_len=2,
                )
                for i in range(n)
            ],
            name=f"trace-{tag}",
        )

    def test_submit_trace_records_slo(self):
        server = BatchInferenceServer()
        res = server.submit_trace("nightly", self.trace(), deadline_s=60.0)
        job = server.job("nightly")
        assert job.n_requests == 8
        assert job.scheduler == "fcfs"
        assert job.slo is not None
        assert job.slo.n_requests == 8
        assert job.p95_ttft_s == job.slo.ttft.p95 > 0.0
        assert job.slo_attainment == 1.0
        assert set(job.slo.per_tenant) == {"tenant-0", "tenant-1"}
        assert res.slo.ttft.p95 == job.p95_ttft_s

    def test_trace_job_report_columns(self):
        server = BatchInferenceServer()
        server.submit_trace("trjob", self.trace(tag="r"))
        report = server.report()
        assert "sched" in report and "p95_ttft" in report
        assert "fcfs" in report

    def test_slo_report_renders_tenants(self):
        server = BatchInferenceServer()
        server.submit_trace("slojob", self.trace(tag="s"))
        text = server.slo_report("slojob")
        assert "slojob" in text
        assert "tenant-0" in text and "tenant-1" in text and "(all)" in text

    def test_batch_jobs_also_get_slo(self):
        server = BatchInferenceServer()
        server.submit_job("plain", prompts("p"), output_lens=[1] * 5)
        job = server.job("plain")
        assert job.slo is not None and job.slo.n_requests == 5
        assert "plain" in server.slo_report("plain")

    def test_duplicate_trace_job_rejected(self):
        server = BatchInferenceServer()
        server.submit_trace("dup", self.trace())
        with pytest.raises(ServingError):
            server.submit_trace("dup", self.trace())

    def test_empty_trace_rejected(self):
        from repro.llm.workload import WorkloadTrace

        server = BatchInferenceServer()
        with pytest.raises(ServingError):
            server.submit_trace("empty", WorkloadTrace([]))

    def test_trace_with_scheduler_policy(self):
        from repro.llm.engine import EngineConfig

        server = BatchInferenceServer(
            engine_config=EngineConfig(scheduler="prefix-affinity")
        )
        server.submit_trace("affine", self.trace(tag="a"))
        assert server.job("affine").scheduler == "prefix-affinity"

    def test_preemption_stats_recorded_and_reported(self):
        from repro.llm.engine import EngineConfig
        from repro.llm.workload import TraceRequest, WorkloadTrace

        # Two decode slots, one long-decode hog in front of urgent short
        # requests: the EDF policy must evict it, so n_preemptions > 0.
        server = BatchInferenceServer(
            engine_config=EngineConfig(
                scheduler="deadline",
                preemption="recompute",
                scheduler_deadline_s=2.0,
                max_batch_size=2,
            )
        )
        reqs = [
            TraceRequest(0.0, "long running batch report", output_len=120,
                         deadline_s=60.0),
            TraceRequest(0.0, "second batch report body", output_len=120,
                         deadline_s=60.0),
        ] + [
            TraceRequest(0.3 + 0.01 * i, f"urgent ask {i}", output_len=2,
                         deadline_s=1.0)
            for i in range(6)
        ]
        server.submit_trace("pre", WorkloadTrace(reqs, name="pre"))
        job = server.job("pre")
        assert job.preemption == "recompute"
        assert job.n_preemptions > 0
        assert job.preempted_tokens_recomputed > 0
        assert job.preempted_tokens_swapped == 0
        report = server.report()
        assert "npre" in report

    def test_jobs_without_preemption_report_zero(self):
        server = BatchInferenceServer()
        server.submit_trace("calm", self.trace(tag="c"))
        job = server.job("calm")
        assert job.preemption == "off"
        assert job.n_preemptions == 0
        assert job.n_prefill_chunks == 0


class TestClusterJobs:
    def trace(self, n=16, tag="c"):
        from repro.llm.workload import TraceRequest, WorkloadTrace

        return WorkloadTrace(
            [
                TraceRequest(
                    i * 0.01,
                    f"cluster tenant {i % 3} shared header {tag} row {i}",
                    tenant=f"tenant-{i % 3}",
                    output_len=2,
                )
                for i in range(n)
            ],
            name=f"cluster-{tag}",
        )

    def test_submit_cluster_trace_records_stats(self):
        from repro.llm.cluster import ClusterConfig

        server = BatchInferenceServer()
        res = server.submit_cluster_trace(
            "fleet",
            self.trace(),
            cluster_config=ClusterConfig(n_replicas=2, routing="least-queue"),
            deadline_s=60.0,
        )
        assert res.n_replicas == 2
        job = server.job("fleet")
        assert job.n_requests == 16
        assert job.prompt_tokens == res.prompt_tokens
        assert job.scheduler == "least-queue@2r"
        assert job.slo is not None and job.slo.n_requests == 16
        assert "fleet" in server.report()
        assert "least-queue@2r" in server.report()

    def test_cluster_job_duplicate_rejected(self):
        server = BatchInferenceServer()
        server.submit_cluster_trace("dup-fleet", self.trace())
        with pytest.raises(ServingError):
            server.submit_cluster_trace("dup-fleet", self.trace())

    def test_cluster_job_does_not_touch_single_engine_cache(self):
        server = BatchInferenceServer()
        server.submit_trace("warm", self.trace(tag="w"))
        hits_before = server.client.engine.cache.hits
        server.submit_cluster_trace("fleet2", self.trace(tag="f"))
        assert server.client.engine.cache.hits == hits_before

    def test_empty_cluster_trace_rejected(self):
        from repro.llm.workload import WorkloadTrace

        server = BatchInferenceServer()
        with pytest.raises(ServingError):
            server.submit_cluster_trace("nope", WorkloadTrace([]))


class TestEncodeCacheTelemetry:
    """Satellite: the PR 6 encode cache is observable in the server report."""

    def test_report_renders_encode_cache_line(self):
        server = BatchInferenceServer()
        server.submit_job("ec", ["same prompt"] * 4, output_lens=[1] * 4)
        report = server.report()
        assert "encode cache:" in report
        assert "hits" in report and "misses" in report and "entries" in report

    def test_counts_reflect_reuse(self):
        server = BatchInferenceServer()
        server.submit_job("ec1", ["alpha", "beta", "alpha"], output_lens=[1] * 3)
        stats = server.client.encode_cache_stats()
        assert stats["misses"] >= 2  # alpha, beta cold
        assert stats["hits"] >= 1  # second alpha
        ec_line, radix_line = server.report().splitlines()[-2:]
        assert ec_line.startswith("encode cache:")
        assert f"{stats['hits']} hits" in ec_line
        rx = server.client.radix_stats()
        assert radix_line.startswith(f"radix cache: backend={rx['backend']}")
        assert f"{rx['nodes']} nodes" in radix_line
