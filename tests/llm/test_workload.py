"""Tests for the arrival-timed workload trace subsystem."""

import pytest

from repro.errors import ServingError
from repro.llm.workload import (
    ARRIVAL_PROCESSES,
    TenantSpec,
    TraceRequest,
    WorkloadTrace,
    bursty_arrivals,
    diurnal_arrivals,
    make_arrivals,
    poisson_arrivals,
    synthesize_tenant_trace,
)


class TestTraceRequest:
    def test_validation(self):
        with pytest.raises(ServingError):
            TraceRequest(-1.0, "p")
        with pytest.raises(ServingError):
            TraceRequest(float("inf"), "p")
        with pytest.raises(ServingError):
            TraceRequest(0.0, "")
        with pytest.raises(ServingError):
            TraceRequest(0.0, "p", output_len=-1)

    def test_dict_round_trip(self):
        r = TraceRequest(1.5, "hello", tenant="a", job="j", output_len=4)
        assert TraceRequest.from_dict(r.to_dict()) == r

    def test_deadline_validation(self):
        with pytest.raises(ServingError):
            TraceRequest(0.0, "p", deadline_s=0.0)
        with pytest.raises(ServingError):
            TraceRequest(0.0, "p", deadline_s=-2.0)
        assert TraceRequest(0.0, "p", deadline_s=1.5).deadline_s == 1.5

    def test_deadline_dict_round_trip(self):
        r = TraceRequest(1.0, "p", deadline_s=2.5)
        d = r.to_dict()
        assert d["deadline_s"] == 2.5
        assert TraceRequest.from_dict(d) == r
        # Absent deadline stays absent: the key is omitted entirely so
        # old traces and new traces without SLOs serialize identically.
        bare = TraceRequest(1.0, "p")
        assert "deadline_s" not in bare.to_dict()
        assert TraceRequest.from_dict(bare.to_dict()).deadline_s is None


class TestWorkloadTrace:
    def make(self):
        return WorkloadTrace(
            [
                TraceRequest(2.0, "late", tenant="b"),
                TraceRequest(0.5, "early", tenant="a"),
                TraceRequest(1.0, "mid", tenant="a", output_text="ans"),
            ],
            name="t",
            metadata={"k": 1},
        )

    def test_sorted_on_construction(self):
        tr = self.make()
        assert [r.prompt for r in tr.requests] == ["early", "mid", "late"]
        assert tr.duration_s == 2.0
        assert tr.tenants == ("a", "b")
        assert tr.n_requests == 3

    def test_stable_ties_preserve_submission_order(self):
        tr = WorkloadTrace(
            [TraceRequest(0.0, f"p{i}") for i in range(5)]
        )
        assert [r.prompt for r in tr.requests] == [f"p{i}" for i in range(5)]

    def test_json_round_trip(self, tmp_path):
        tr = self.make()
        path = tmp_path / "trace.json"
        tr.save(str(path))
        back = WorkloadTrace.load(str(path))
        assert back.name == tr.name
        assert back.metadata == tr.metadata
        assert back.requests == tr.requests

    def test_malformed_json_rejected(self):
        with pytest.raises(ServingError):
            WorkloadTrace.from_json("{\"nope\": 1}")
        with pytest.raises(ServingError):
            WorkloadTrace.from_json("not json at all")

    def test_at_time_zero(self):
        t0 = self.make().at_time_zero()
        assert all(r.arrival_s == 0.0 for r in t0.requests)
        # Arrival order (not original list order) is preserved.
        assert [r.prompt for r in t0.requests] == ["early", "mid", "late"]

    def test_at_time_zero_preserves_deadlines(self):
        tr = WorkloadTrace(
            [
                TraceRequest(1.0, "a", deadline_s=2.0),
                TraceRequest(0.0, "b"),
            ]
        )
        t0 = tr.at_time_zero()
        assert [r.deadline_s for r in t0.requests] == [None, 2.0]

    def test_json_round_trip_with_deadlines(self):
        tr = WorkloadTrace(
            [
                TraceRequest(0.0, "urgent", deadline_s=0.5),
                TraceRequest(0.1, "lax"),
            ],
            name="dl",
        )
        back = WorkloadTrace.from_json(tr.to_json())
        assert [r.deadline_s for r in back.requests] == [0.5, None]

    def test_offered_rate(self):
        tr = WorkloadTrace([TraceRequest(i * 0.5, "p") for i in range(5)])
        assert tr.offered_rate_rps() == pytest.approx(5 / 2.0)
        assert WorkloadTrace([]).offered_rate_rps() == 0.0


class TestArrivalProcesses:
    def test_poisson_shape(self):
        a = poisson_arrivals(200, 50.0, seed=3)
        assert len(a) == 200
        assert a == sorted(a)
        assert all(t > 0 for t in a)
        mean_gap = a[-1] / len(a)
        assert mean_gap == pytest.approx(1 / 50.0, rel=0.3)

    def test_poisson_deterministic(self):
        assert poisson_arrivals(20, 5.0, seed=1) == poisson_arrivals(20, 5.0, seed=1)
        assert poisson_arrivals(20, 5.0, seed=1) != poisson_arrivals(20, 5.0, seed=2)

    def test_bursty_has_gaps(self):
        a = bursty_arrivals(
            300, on_rate_rps=200.0, on_mean_s=0.2, off_mean_s=0.5, seed=0
        )
        assert len(a) == 300 and a == sorted(a)
        gaps = [b - c for b, c in zip(a[1:], a[:-1])]
        # OFF periods create gaps far above the ON interarrival scale.
        assert max(gaps) > 10 * (1 / 200.0)

    def test_bursty_off_trickle(self):
        a = bursty_arrivals(
            50, on_rate_rps=100.0, off_rate_rps=5.0, on_mean_s=0.1,
            off_mean_s=0.1, seed=4,
        )
        assert len(a) == 50 and a == sorted(a)

    def test_diurnal_shape(self):
        a = diurnal_arrivals(300, 50.0, period_s=10.0, amplitude=0.9, seed=0)
        assert len(a) == 300 and a == sorted(a)

    def test_validation(self):
        with pytest.raises(ServingError):
            poisson_arrivals(5, 0.0)
        with pytest.raises(ServingError):
            poisson_arrivals(-1, 1.0)
        with pytest.raises(ServingError):
            bursty_arrivals(5, 10.0, on_mean_s=0.0)
        with pytest.raises(ServingError):
            diurnal_arrivals(5, 10.0, amplitude=1.5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda v: poisson_arrivals(3, v),
            lambda v: bursty_arrivals(3, v),
            lambda v: bursty_arrivals(3, 10.0, off_rate_rps=v),
            lambda v: bursty_arrivals(3, 10.0, on_mean_s=v),
            lambda v: bursty_arrivals(3, 10.0, off_mean_s=v),
            lambda v: diurnal_arrivals(3, v),
            lambda v: diurnal_arrivals(3, 10.0, period_s=v),
        ],
        ids=["poisson-rate", "bursty-on-rate", "bursty-off-rate",
             "bursty-on-mean", "bursty-off-mean", "diurnal-rate",
             "diurnal-period"],
    )
    def test_nan_rate_or_period_rejected(self, call):
        """``x <= 0`` is False for NaN; the checks must read ``not x > 0``."""
        with pytest.raises(ServingError):
            call(float("nan"))

    def test_dispatch(self):
        for name in ARRIVAL_PROCESSES:
            assert len(make_arrivals(name, 10, 20.0, seed=0)) == 10
        with pytest.raises(ServingError):
            make_arrivals("uniform", 10, 20.0)


class TestTenantSynthesis:
    def specs(self):
        return [
            TenantSpec("alpha", "movies-T1", policy="original", weight=2.0),
            TenantSpec("beta", "products-T1", policy="original", weight=1.0),
            TenantSpec("gamma", "movies-T2", policy="ggr", weight=1.0),
        ]

    def test_synthesis_basics(self):
        arrivals = poisson_arrivals(40, 100.0, seed=0)
        tr = synthesize_tenant_trace(self.specs(), arrivals, scale=0.004, seed=0)
        assert tr.n_requests == 40
        assert set(tr.tenants) <= {"alpha", "beta", "gamma"}
        assert len(tr.tenants) >= 2
        assert all(r.prompt for r in tr.requests)
        assert all(r.output_len is not None for r in tr.requests)
        # Prompts carry the operator's serialization format.
        assert any("data analyst" in r.prompt for r in tr.requests)
        assert tr.metadata["tenants"]["gamma"]["policy"] == "ggr"

    def test_weights_respected(self):
        arrivals = poisson_arrivals(300, 100.0, seed=1)
        tr = synthesize_tenant_trace(self.specs(), arrivals, scale=0.004, seed=1)
        counts = {t: 0 for t in ("alpha", "beta", "gamma")}
        for r in tr.requests:
            counts[r.tenant] += 1
        # alpha has half the total weight: roughly twice beta's share.
        assert counts["alpha"] > counts["beta"]
        assert counts["alpha"] / tr.n_requests == pytest.approx(0.5, abs=0.12)

    def test_deterministic(self):
        arrivals = poisson_arrivals(20, 50.0, seed=2)
        a = synthesize_tenant_trace(self.specs(), arrivals, scale=0.004, seed=2)
        b = synthesize_tenant_trace(self.specs(), arrivals, scale=0.004, seed=2)
        assert a.requests == b.requests

    def test_reorder_policy_changes_stream(self):
        arrivals = [0.01 * i for i in range(30)]
        spec_orig = [TenantSpec("x", "movies-T2", policy="original")]
        spec_ggr = [TenantSpec("x", "movies-T2", policy="ggr")]
        a = synthesize_tenant_trace(spec_orig, arrivals, scale=0.004, seed=0)
        b = synthesize_tenant_trace(spec_ggr, arrivals, scale=0.004, seed=0)
        assert [r.prompt for r in a.requests] != [r.prompt for r in b.requests]
        # Same prompt *set* per cycle: reordering only permutes rows/fields.
        assert len({r.prompt for r in a.requests}) == len(
            {r.prompt for r in b.requests}
        )

    def test_validation(self):
        with pytest.raises(ServingError):
            synthesize_tenant_trace([], [0.0])
        with pytest.raises(ServingError):
            synthesize_tenant_trace(
                [TenantSpec("a", "movies-T1"), TenantSpec("a", "movies-T1")],
                [0.0],
            )
        with pytest.raises(ServingError):
            TenantSpec("a", "movies-T1", weight=0.0)


class TestTraceRequestOutputLenTypes:
    def test_non_integer_output_len_rejected(self):
        with pytest.raises(ServingError):
            TraceRequest(0.0, "p", output_len=2.5)
        with pytest.raises(ServingError):
            TraceRequest(0.0, "p", output_len=True)

    def test_malformed_trace_json_output_len(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "t", "metadata": {}, "requests": '
            '[{"arrival_s": 0.0, "prompt": "p", "output_len": 2.5}]}'
        )
        with pytest.raises(ServingError):
            WorkloadTrace.load(str(path))


class TestTraceRequestFieldTypes:
    """A hand-edited trace JSON with a wrongly typed field fails at load
    time with a ServingError naming the field."""

    @staticmethod
    def load(**fields):
        import json

        req = {"arrival_s": 0, "prompt": "p", **fields}
        return WorkloadTrace.from_json(json.dumps({"requests": [req]}))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("prompt", 5),
            ("prompt", ["p"]),
            ("tenant", 7),
            ("tenant", None),
            ("job", 3),
            ("output_text", {"a": 1}),
        ],
    )
    def test_non_string_field_rejected(self, field, value):
        with pytest.raises(ServingError, match=f"{field} must be a string"):
            self.load(**{field: value})

    @pytest.mark.parametrize("value", ["soon", True, [1.0]])
    def test_bad_deadline_rejected(self, value):
        with pytest.raises(
            ServingError, match="deadline_s must be a positive number"
        ):
            self.load(deadline_s=value)

    def test_integer_deadline_accepted(self):
        assert self.load(deadline_s=2).requests[0].deadline_s == 2


class TestTraceJSONVersioning:
    """Satellite: versioned trace JSON with clean ReproError failures."""

    def full_trace(self):
        return WorkloadTrace(
            [
                TraceRequest(
                    0.25,
                    "prompt one",
                    tenant="acme",
                    job="etl-7",
                    output_text="the answer",
                ),
                TraceRequest(0.5, "prompt two", tenant="beta", output_len=9),
            ],
            name="versioned",
            metadata={"source": "unit", "nested": {"k": [1, 2]}},
        )

    def test_version_stamped(self):
        import json

        d = json.loads(self.full_trace().to_json())
        assert d["version"] == WorkloadTrace.FORMAT_VERSION == 1

    def test_round_trip_preserves_all_fields(self, tmp_path):
        tr = self.full_trace()
        path = tmp_path / "v.json"
        tr.save(str(path))
        back = WorkloadTrace.load(str(path))
        assert back.name == tr.name
        assert back.metadata == tr.metadata
        assert back.requests == tr.requests
        assert back.requests[0].job == "etl-7"
        assert back.requests[0].tenant == "acme"
        assert back.requests[0].output_text == "the answer"
        assert back.requests[1].output_len == 9

    def test_unversioned_payload_reads_as_v1(self):
        import json

        d = json.loads(self.full_trace().to_json())
        del d["version"]
        back = WorkloadTrace.from_json(json.dumps(d))
        assert back.requests == self.full_trace().requests

    def test_future_version_rejected(self):
        with pytest.raises(ServingError, match="newer than this build"):
            WorkloadTrace.from_json('{"version": 99, "requests": []}')

    @pytest.mark.parametrize(
        "payload",
        [
            '{"version": "two", "requests": []}',
            '{"version": 0, "requests": []}',
            '{"version": 1}',
            "[1, 2, 3]",
            "not json at all",
            '{"version": 1, "requests": [{"prompt": "x"}]}',
        ],
    )
    def test_malformed_payloads_raise_repro_error(self, payload):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            WorkloadTrace.from_json(payload)

    def test_load_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "requests": 7}')
        with pytest.raises(ServingError):
            WorkloadTrace.load(str(path))


class TestMakeArrivalsErrors:
    """Regression: an unknown process name fails with the valid choices in
    the message, as a ReproError (not KeyError)."""

    def test_unknown_process_lists_choices(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError) as exc_info:
            make_arrivals("fractal", 10, 5.0)
        msg = str(exc_info.value)
        for name in ARRIVAL_PROCESSES:
            assert name in msg
