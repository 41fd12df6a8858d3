"""Instrumentation of the runtime stack: timings, metrics, reconciliation."""

from __future__ import annotations

import pytest

import repro
from repro.applications.chemistry import fermi_hubbard_chain, jordan_wigner_scb
from repro.runtime import (
    ProcessExecutor,
    RunSpec,
    Session,
    SweepSpec,
    execute_spec,
    execute_spec_batch,
)
from repro.telemetry import metrics
from repro.telemetry.report import load_trace_dir, render_report
from repro.telemetry.schema import validate_spans
from repro.utils.lru import LRUCache

PHASES = ("compile", "plan", "evolve", "encode")


def problem(**kwargs):
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3}, **kwargs
    )


def hubbard_sweep(sites: int) -> SweepSpec:
    """The Annex-C shape: JW Hubbard chain, 2 strategies × 8 step counts."""
    hamiltonian = jordan_wigner_scb(fermi_hubbard_chain(sites, 1.0, 4.0))
    return SweepSpec(
        problem=repro.SimulationProblem(
            hamiltonian, 0.25, order=2, name=f"hubbard-{sites}"
        ),
        strategies=("direct", "pauli"),
        steps=tuple(range(1, 9)),
        backend="statevector",
    )


class TestPhaseTimings:
    def test_execute_spec_always_records_timings(self):
        # The per-phase split is always on — it needs no REPRO_TRACE.
        outcome = execute_spec(RunSpec(problem=problem()).to_dict(canonical=True))
        assert outcome["ok"]
        timings = outcome["timings"]
        assert set(timings) == set(PHASES)
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert sum(timings.values()) <= outcome["wall_time"] * 1.05

    def test_failure_outcome_has_no_timings(self):
        outcome = execute_spec({"spec": "run"})
        assert not outcome["ok"] and "timings" not in outcome

    def test_batch_outcomes_split_timings_per_point(self):
        payloads = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": 64, "rng": index},
            ).to_dict(canonical=True)
            for index in range(4)
        ]
        outcomes = execute_spec_batch(payloads)
        assert all(o["ok"] and o["batched"] == 4 for o in outcomes)
        for outcome in outcomes:
            assert set(outcome["timings"]) == set(PHASES)
        # Copies, not one shared dict: mutating one leaves the rest alone.
        outcomes[0]["timings"]["evolve"] = -1.0
        assert outcomes[1]["timings"]["evolve"] >= 0.0

    def test_point_and_batch_trace_the_same_phase_spans(self, traced):
        group = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": 64, "rng": index},
            ).to_dict(canonical=True)
            for index in range(3)
        ]
        assert execute_spec(RunSpec(problem=problem()).to_dict(canonical=True))["ok"]
        assert all(o["batched"] == 3 for o in execute_spec_batch(group))
        spans = load_trace_dir(traced)
        for root_name in ("execute.point", "execute.batch"):
            (root,) = [s for s in spans if s["name"] == root_name]
            phases = sorted(
                s["name"] for s in spans if s.get("parent_id") == root["span_id"]
            )
            assert phases == ["execute.compile", "execute.encode", "execute.evolve"]

    def test_session_records_expose_timings_and_table_column(self):
        session = Session(cache=False)
        results = session.sweep(SweepSpec(problem=problem(), steps=(1, 2)))
        assert results.ok
        for record in results:
            assert set(record.timings) == set(PHASES)
        table = results.table()
        assert "phases" in table

    def test_timings_survive_the_result_json_round_trip(self):
        session = Session(cache=False)
        results = session.sweep(SweepSpec(problem=problem(), steps=(1,)))
        import json

        document = json.loads(results.to_json())
        assert set(document["records"][0]["timings"]) == set(PHASES)


class TestMetricsInstrumentation:
    def test_batch_fusion_counters(self):
        payloads = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": 64, "rng": index},
            ).to_dict(canonical=True)
            for index in range(3)
        ]
        execute_spec_batch(payloads)
        counters = metrics.snapshot()["counters"]
        assert counters["batch.points_total"] == 3
        assert counters["batch.points_fused"] == 3

    def test_singletons_count_toward_the_fusion_denominator(self):
        payload = RunSpec(problem=problem()).to_dict(canonical=True)
        execute_spec_batch([payload])
        counters = metrics.snapshot()["counters"]
        assert counters["batch.points_total"] == 1
        assert counters.get("batch.points_fused", 0) == 0

    def test_compile_memo_counters(self, monkeypatch):
        from repro.runtime import executor as executor_module

        monkeypatch.setattr(executor_module, "_PROGRAM_MEMO", LRUCache(cap=32))
        spec = RunSpec(problem=problem())
        execute_spec(spec.to_dict(canonical=True))
        execute_spec(spec.to_dict(canonical=True))
        counters = metrics.snapshot()["counters"]
        assert counters["compile.memo_misses"] >= 1
        assert counters["compile.memo_hits"] >= 1

    def test_cache_counters_and_spans(self, traced, tmp_path):
        from repro.runtime.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        assert cache.get("no-such-key", None) is None
        outcome = execute_spec(RunSpec(problem=problem()).to_dict(canonical=True))
        cache.put_encoded("some-key", outcome["result"], outcome["arrays"])
        assert cache.get("some-key", None) is not None
        counters = metrics.snapshot()["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.puts"] == 1
        names = [s["name"] for s in load_trace_dir(traced)]
        assert names.count("cache.get") == 2 and names.count("cache.put") == 1


class TestTracedSweepReconciliation:
    def reconcile(self, traced, sites: int):
        spec = hubbard_sweep(sites)
        session = Session(cache=False, executor=ProcessExecutor(2))
        results = session.sweep(spec)
        assert results.ok and len(results) == 16

        spans = load_trace_dir(traced)
        assert validate_spans(spans) == len(spans)

        # Per-phase sums reconcile with the recorded wall time within 5%.
        points = [
            s for s in spans if s["name"] in ("execute.point", "execute.batch")
        ]
        span_wall = sum(s["wall"] for s in points)
        record_wall = sum(record.wall_time for record in results)
        assert span_wall == pytest.approx(record_wall, rel=0.05)
        for record in results:
            assert sum(record.timings.values()) <= record.wall_time * 1.05

        # Both pool workers traced, and their spans joined the session trace.
        roots = [s for s in spans if s["name"] == "session.execute"]
        assert len(roots) == 1
        assert all(s["trace_id"] == roots[0]["trace_id"] for s in points)
        worker_pids = {s["pid"] for s in points}
        assert len(worker_pids) == 2 and roots[0]["pid"] not in worker_pids

        report = render_report(spans)
        assert "evolve" in report and "execute.point" in report

    def test_two_worker_traced_sweep_reconciles(self, traced):
        self.reconcile(traced, sites=3)  # 6 qubits: the fast tier-1 shape

    @pytest.mark.slow
    def test_annex_c_traced_sweep_reconciles(self, traced):
        self.reconcile(traced, sites=5)  # the paper's 10-qubit Annex-C grid
