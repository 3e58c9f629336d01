"""Tests for the lifecycle-tracing module: gates, span structure,
Chrome/JSONL export, ``trace-report``, edge cases (empty / single-request
/ all-shed traces), and the CLI surfacing (``--emit-trace``,
``repro trace-report``, server/cluster plumbing)."""

import json
import random

import pytest

from repro.cli import main
from repro.errors import ReproError, ServingError
from repro.llm.engine import EngineConfig, SimulatedLLMEngine
from repro.llm.hardware import CLUSTER_1XL4
from repro.llm.models import LLAMA3_8B
from repro.llm.request import Request
from repro.llm.scheduler import compute_slo, serving_online_enabled
from repro.llm.tracing import (
    WAITING_SLOT,
    EngineTrace,
    TraceGauge,
    TraceInstant,
    TraceSpan,
    export_chrome,
    export_jsonl,
    serving_trace_enabled,
    trace_report,
    write_trace,
)
from repro.llm.workload import TraceRequest, WorkloadTrace


def simple_requests(n=10, out=3, seed=0):
    rng = random.Random(seed)
    reqs = []
    t = 0.0
    for i in range(n):
        t += rng.uniform(0.005, 0.03)
        toks = tuple(rng.randrange(40) for _ in range(rng.randrange(8, 40)))
        reqs.append(
            Request(
                request_id=i,
                prompt_tokens=toks,
                output_tokens=out,
                arrival_s=t,
                tenant=f"t{i % 2}",
            )
        )
    return reqs


def run_traced(requests, **cfg_kwargs):
    cfg_kwargs.setdefault("trace", "on")
    eng = SimulatedLLMEngine(
        LLAMA3_8B, CLUSTER_1XL4, EngineConfig(**cfg_kwargs)
    )
    eng.submit_all(requests)
    return eng.run()


class TestGate:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVING_TRACE", raising=False)
        assert not serving_trace_enabled()
        result = run_traced(simple_requests(4), trace="auto")
        assert result.trace is None

    def test_env_enables_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_TRACE", "1")
        assert serving_trace_enabled()
        result = run_traced(simple_requests(4), trace="auto")
        assert result.trace is not None

    def test_explicit_off_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_TRACE", "1")
        result = run_traced(simple_requests(4), trace="off")
        assert result.trace is None

    def test_explicit_on_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVING_TRACE", raising=False)
        result = run_traced(simple_requests(4), trace="on")
        assert result.trace is not None

    def test_bad_trace_value_rejected(self):
        with pytest.raises(ServingError):
            EngineConfig(trace="loud")


class TestSpanStructure:
    def test_every_request_has_lifecycle(self):
        reqs = simple_requests(10, out=3)
        result = run_traced(reqs, scheduler="fcfs")
        trace = result.trace
        by_req = {}
        for s in trace.spans:
            by_req.setdefault(s.request_id, []).append(s)
        assert set(by_req) == set(range(10))
        for rid, spans in by_req.items():
            names = [s.name for s in spans]
            assert "queued" in names
            assert "prefill" in names
            assert "decode" in names  # out=3 for every request
            for s in spans:
                assert s.tenant == f"t{rid % 2}"
                if s.name == "queued":
                    assert s.slot == WAITING_SLOT
                else:
                    assert s.slot >= 0
                # queued spans may undershoot by float rounding only
                assert s.end_s >= s.start_s - 1e-9

    def test_zero_output_request_decode_is_instantaneous(self):
        reqs = simple_requests(4, out=0)
        result = run_traced(reqs)
        decodes = [s for s in result.trace.spans if s.name == "decode"]
        assert all(s.end_s == s.start_s for s in decodes)

    def test_gauges_sampled_with_expected_keys(self):
        result = run_traced(simple_requests(10), kv_accounting="paged")
        gauges = result.trace.gauges
        assert gauges
        keys = dict(gauges[0].values).keys()
        for expected in (
            "running",
            "waiting",
            "kv_used_tokens",
            "radix_nodes",
            "radix_store_bytes",
        ):
            assert expected in keys
        if result.kv_accounting == "paged":
            assert "kv_blocks_charged" in keys
            assert "kv_blocks_free" in keys

    def test_meta_records_run_shape(self):
        result = run_traced(simple_requests(4), scheduler="sjf")
        meta = result.trace.meta
        assert meta["scheduler"] == result.scheduler
        assert meta["preemption"] == result.preemption
        assert meta["kv_accounting"] == result.kv_accounting
        assert meta["mode"] in ("stepwise", "vector")


class TestChromeExport:
    def make_tracks(self, n_tracks=2):
        return [
            (f"track{k}", run_traced(simple_requests(6, seed=k)).trace)
            for k in range(n_tracks)
        ]

    def test_valid_json_with_process_rows(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome(self.make_tracks(), str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        procs = {
            ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert procs == {"track0", "track1"}
        for ev in events:
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
                assert "request_id" in ev["args"]

    def test_slot_threads_named(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome(self.make_tracks(1), str(path))
        events = json.loads(path.read_text())["traceEvents"]
        threads = {
            ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert "waiting" in threads
        assert any(t.startswith("slot ") for t in threads)

    def test_counters_present(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome(self.make_tracks(1), str(path))
        events = json.loads(path.read_text())["traceEvents"]
        counters = {ev["name"] for ev in events if ev["ph"] == "C"}
        assert "batch" in counters and "kv" in counters

    def test_instants_exported(self, tmp_path):
        trace = EngineTrace(
            instants=[TraceInstant("preempt", 1.0, (("request_id", 3),))]
        )
        path = tmp_path / "trace.json"
        export_chrome([("x", trace)], str(path))
        events = json.loads(path.read_text())["traceEvents"]
        inst = [ev for ev in events if ev["ph"] == "i"]
        assert len(inst) == 1
        assert inst[0]["name"] == "preempt"
        assert inst[0]["args"] == {"request_id": 3}

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracks = self.make_tracks(1)
        export_jsonl(tracks, str(path))
        recs = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert recs
        assert {r["type"] for r in recs} <= {"span", "instant", "gauge"}
        n_spans = sum(1 for r in recs if r["type"] == "span")
        assert n_spans == len(tracks[0][1].spans)

    def test_write_trace_dispatches_on_extension(self, tmp_path):
        tracks = self.make_tracks(1)
        write_trace(tracks, str(tmp_path / "a.json"))
        write_trace(tracks, str(tmp_path / "a.jsonl"))
        assert "traceEvents" in (tmp_path / "a.json").read_text()
        first = (tmp_path / "a.jsonl").read_text().splitlines()[0]
        assert json.loads(first)["type"] in ("span", "instant", "gauge")


class TestTraceReportEdgeCases:
    """Empty / single-request / all-shed traces must render (no division
    by zero) and the exporters must still emit valid JSON for them."""

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.json"
        export_chrome([("nothing", EngineTrace())], str(path))
        json.loads(path.read_text())  # valid JSON
        report = trace_report(str(path))
        assert "(no spans)" in report

    def test_empty_jsonl(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        export_jsonl([("nothing", EngineTrace())], str(path))
        report = trace_report(str(path))
        assert "(no spans)" in report

    def test_single_request_trace(self, tmp_path):
        result = run_traced(simple_requests(1))
        path = tmp_path / "one.json"
        export_chrome([("solo", result.trace)], str(path))
        report = trace_report(str(path))
        assert "solo" in report
        assert "queue%" in report

    def test_all_shed_trace(self, tmp_path):
        """A trace holding only shed instants (every request rejected
        before running) has zero span seconds — header-only report."""
        trace = EngineTrace(
            instants=[
                TraceInstant(
                    "shed", 0.1 * i, (("request_id", i), ("tenant", "t0"))
                )
                for i in range(5)
            ]
        )
        path = tmp_path / "shed.json"
        export_chrome([("shed-all", trace)], str(path))
        json.loads(path.read_text())
        assert "(no spans)" in trace_report(str(path))

    def test_zero_duration_spans_render(self, tmp_path):
        trace = EngineTrace(
            spans=[TraceSpan("decode", 0, "t0", 0, 1.0, 1.0)],
            gauges=[TraceGauge(1.0, (("running", 1),))],
        )
        path = tmp_path / "zero.json"
        export_chrome([("z", trace)], str(path))
        report = trace_report(str(path))
        assert "z" in report and "0.0%" in report

    def test_per_tenant_rows(self, tmp_path):
        result = run_traced(simple_requests(8))
        path = tmp_path / "tenants.jsonl"
        export_jsonl([("pol", result.trace)], str(path))
        report = trace_report(str(path))
        assert "pol/t0" in report and "pol/t1" in report


class TestTraceReportErrors:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json at all")
        with pytest.raises(ReproError):
            trace_report(str(path))

    def test_truncated_jsonl(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text(
            '{"type": "span", "track": "a", "name": "decode", '
            '"start_s": 0.0, "end_s": 1.0}\n{"type": "sp'
        )
        with pytest.raises(ReproError):
            trace_report(str(path))

    def test_not_a_trace_document(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ReproError):
            trace_report(str(path))

    def test_span_missing_fields(self, tmp_path):
        path = tmp_path / "fields.jsonl"
        path.write_text('{"type": "span", "track": "a"}\n')
        with pytest.raises(ReproError):
            trace_report(str(path))


class TestComputeSLOEdgeCases:
    def test_empty_metrics(self):
        report = compute_slo([], deadline_s=1.0)
        assert report.n_requests == 0
        assert report.attainment in (0.0, 1.0)
        assert report.render("empty")  # renders without dividing by zero

    def test_single_request(self):
        result = run_traced(simple_requests(1), trace="off")
        report = compute_slo(result.request_metrics, deadline_s=100.0)
        assert report.n_requests == 1
        assert report.attainment == 1.0
        assert report.render("solo")

    def test_all_requests_miss_deadline(self):
        result = run_traced(simple_requests(6), trace="off")
        report = compute_slo(result.request_metrics, deadline_s=1e-9)
        assert report.n_requests == 6
        assert report.attainment == 0.0
        assert report.render("all-late")


class TestCLITraceReport:
    def emit(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert main(
            ["serve-trace", "--scale", "0.004", "--requests", "10",
             "--policy", "fcfs", "--emit-trace", str(out)]
        ) == 0
        capsys.readouterr()
        return out

    def test_emit_then_report(self, tmp_path, capsys):
        out = self.emit(tmp_path, capsys)
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert main(["trace-report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "queue%" in text and "fcfs" in text

    def test_emit_trace_output_mentions_file(self, tmp_path, capsys):
        out = tmp_path / "named.json"
        assert main(
            ["serve-trace", "--scale", "0.004", "--requests", "8",
             "--policy", "fcfs", "--emit-trace", str(out)]
        ) == 0
        assert "trace: wrote" in capsys.readouterr().out

    def test_missing_path_exits_2(self, capsys):
        assert main(["trace-report"]) == 2
        err = capsys.readouterr().err
        assert "trace-report failed:" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_nonexistent_file_exits_2(self, capsys):
        assert main(["trace-report", "/nonexistent/trace.json"]) == 2
        err = capsys.readouterr().err
        assert "trace-report failed:" in err
        assert "Traceback" not in err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("]]]")
        assert main(["trace-report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "trace-report failed:" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_emit_trace_unwritable_dir_exits_2(self, capsys):
        assert main(
            ["serve-trace", "--scale", "0.004", "--requests", "6",
             "--policy", "fcfs",
             "--emit-trace", "/nonexistent-dir/trace.json"]
        ) == 2
        err = capsys.readouterr().err
        assert "serve-trace failed:" in err
        assert "Traceback" not in err

    def test_cluster_emit_trace(self, tmp_path, capsys):
        from repro.llm.cluster import serving_cluster_enabled

        out = tmp_path / "cluster.json"
        assert main(
            ["serve-cluster", "--scale", "0.004", "--requests", "10",
             "--replicas", "2", "--routing", "round-robin",
             "--emit-trace", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "encode cache:" in text  # satellite: fleet telemetry line
        assert "peak_wait" in text
        events = json.loads(out.read_text())["traceEvents"]
        procs = {
            ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        if serving_cluster_enabled():
            assert procs == {
                "round-robin/replica0",
                "round-robin/replica1",
            }
        else:  # gate forces the single-replica reference
            assert procs == {"round-robin/replica0"}


class TestServerTracePlumbing:
    def trace(self, n=6):
        return WorkloadTrace(
            [
                TraceRequest(
                    i * 0.02,
                    f"server trace prompt {i % 3}",
                    tenant=f"t{i % 2}",
                    output_len=2,
                )
                for i in range(n)
            ],
            name="srv",
        )

    def test_export_trace_roundtrip(self, tmp_path):
        from repro.llm.server import BatchInferenceServer

        server = BatchInferenceServer(
            engine_config=EngineConfig(trace="on")
        )
        server.submit_trace("job-a", self.trace())
        path = tmp_path / "job.json"
        server.export_trace("job-a", str(path))
        payload = json.loads(path.read_text())
        procs = {
            ev["args"]["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert procs == {"job-a"}

    def test_export_without_tracing_raises(self, tmp_path, monkeypatch):
        from repro.llm.server import BatchInferenceServer

        monkeypatch.delenv("REPRO_SERVING_TRACE", raising=False)
        server = BatchInferenceServer()
        server.submit_trace("job-b", self.trace())
        with pytest.raises(ServingError):
            server.export_trace("job-b", str(tmp_path / "no.json"))

    def test_cluster_job_tracks_named_per_replica(self, tmp_path):
        from repro.llm.cluster import ClusterConfig, serving_cluster_enabled
        from repro.llm.server import BatchInferenceServer

        server = BatchInferenceServer()
        server.submit_cluster_trace(
            "fleet",
            self.trace(8),
            cluster_config=ClusterConfig(
                n_replicas=2, engine=EngineConfig(trace="on")
            ),
        )
        job = server.job("fleet")
        labels = [label for label, _ in job.trace_tracks]
        if serving_cluster_enabled():
            assert labels == ["fleet/replica0", "fleet/replica1"]
        else:
            assert labels == ["fleet/replica0"]
        path = tmp_path / "fleet.json"
        server.export_trace("fleet", str(path))
        json.loads(path.read_text())


class TestClusterPeakWaiting:
    def test_replica_stats_carry_peak_waiting(self):
        from repro.llm.cluster import ClusterConfig, ClusterEngine

        eng = ClusterEngine(ClusterConfig(n_replicas=2))
        trace = WorkloadTrace(
            [
                TraceRequest(
                    i * 0.002, f"cluster wait prompt {i}", output_len=2
                )
                for i in range(16)
            ]
        )
        res = eng.run_trace(trace)
        assert all(s.peak_waiting >= 0 for s in res.replicas)
        if serving_online_enabled():
            assert any(s.peak_waiting > 0 for s in res.replicas)
        assert "peak_wait" in res.render_replicas()
