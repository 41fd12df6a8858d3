"""Job model: content-key identity, expansion, state files, recovery shapes."""

from __future__ import annotations

import json

import pytest

import repro
from repro.exceptions import SpecError
from repro.runtime import RunSpec, SweepSpec
from repro.service import jobs as J
from repro.service.jobs import Job, JobStore, job_from_batch, job_from_spec


def problem(**kwargs):
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3}, name="jobs-test", **kwargs
    )


class TestJobFromSpec:
    def test_run_job_id_is_the_spec_content_key(self):
        spec = RunSpec(problem=problem(), backend="resource")
        job = job_from_spec(spec.to_dict())
        assert job.job_id == spec.content_key()
        assert job.kind == "run" and len(job.points) == 1
        assert job.points[0].key == spec.content_key()

    def test_sweep_expands_points_in_grid_order(self):
        spec = SweepSpec(
            problem=problem(), strategies=("direct", "pauli"), steps=(1, 2),
            backend="sampling", run_kwargs={"shots": 32}, seed=5,
        )
        job = job_from_spec(spec.to_dict(), priority=3)
        assert job.job_id == spec.content_key()
        assert job.priority == 3 and job.kind == "sweep"
        expanded = spec.expand()
        assert [p.key for p in job.points] == [r.content_key() for _, r in expanded]
        assert [p.coords for p in job.points] == [c for c, _ in expanded]

    def test_equivalent_specs_collide_on_one_job_id(self):
        # Term order is cosmetic; the content key (hence the job id) is not.
        a = repro.SimulationProblem.from_labels(
            4, {"nsdI": 0.8, "IZZI": 0.3}, time=0.3)
        b = repro.SimulationProblem.from_labels(
            4, {"IZZI": 0.3, "nsdI": 0.8}, time=0.3)
        job_a = job_from_spec(RunSpec(problem=a).to_dict())
        job_b = job_from_spec(RunSpec(problem=b).to_dict())
        assert job_a.job_id == job_b.job_id

    def test_malformed_spec_is_a_spec_error(self):
        with pytest.raises(SpecError, match="cannot submit"):
            job_from_spec({"spec": "mystery"})


class TestJobFromBatch:
    def test_batch_keys_are_recomputed_canonically(self):
        payloads = [
            RunSpec(problem=problem(steps=k)).to_dict(canonical=True)
            for k in (1, 2, 3)
        ]
        job = job_from_batch(payloads)
        assert job.kind == "batch" and len(job.points) == 3
        assert [p.coords for p in job.points] == [{"index": i} for i in range(3)]
        # Same payloads → same job id (what makes two clients dedup).
        assert job_from_batch(payloads).job_id == job.job_id

    def test_empty_batch_is_rejected(self):
        with pytest.raises(SpecError, match="at least one"):
            job_from_batch([])


class TestJobStateMachine:
    def test_counts_and_terminal(self):
        job = job_from_spec(
            SweepSpec(problem=problem(), steps=(1, 2, 4)).to_dict()
        )
        assert job.counts["total"] == 3 and job.counts["pending"] == 3
        assert not job.terminal
        job.points[0].status = J.OK
        job.points[1].status = J.POINT_FAILED
        counts = job.counts
        assert counts["done"] == 2 and counts["succeeded"] == 1
        assert counts["failed"] == 1 and counts["pending"] == 1
        assert job.pending_indices() == [2]

    def test_summary_never_carries_payloads(self):
        job = job_from_spec(RunSpec(problem=problem()).to_dict())
        assert "points" not in job.summary()
        assert "payload" not in json.dumps(job.summary())


class TestJobStore:
    def test_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job = job_from_spec(
            SweepSpec(problem=problem(), steps=(1, 2)).to_dict(), priority=2
        )
        job.points[0].status = J.OK
        job.points[0].cached = True
        store.save(job)
        loaded = store.load(job.job_id)
        assert loaded.to_dict() == job.to_dict()
        assert store.load("missing") is None

    def test_load_all_sorted_and_corrupt_quarantined(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        first = job_from_spec(RunSpec(problem=problem()).to_dict())
        first.created = 1.0
        second = job_from_spec(RunSpec(problem=problem(steps=2)).to_dict())
        second.created = 2.0
        store.save(second)
        store.save(first)
        (tmp_path / "jobs" / "garbage.json").write_text("{torn")
        jobs = store.load_all()
        assert [j.job_id for j in jobs] == [first.job_id, second.job_id]
        assert (tmp_path / "jobs" / "garbage.json.corrupt").exists()

    def test_delete_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job = job_from_spec(RunSpec(problem=problem()).to_dict())
        store.save(job)
        store.delete(job.job_id)
        store.delete(job.job_id)
        assert store.load(job.job_id) is None


class TestJournal:
    @staticmethod
    def saved_job(store):
        job = job_from_spec(
            SweepSpec(problem=problem(), steps=(1, 2, 3, 4)).to_dict()
        )
        store.save(job)
        return job

    @staticmethod
    def complete(job, index, status=J.OK):
        point = job.points[index]
        point.status = status
        point.wall_time = 0.25 + index
        point.timings = {"execute": 0.125 * index}
        if status == J.POINT_FAILED:
            point.error = {"type": "E", "message": "m", "traceback": "tb"}

    def test_save_append_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job = self.saved_job(store)
        self.complete(job, 0)
        self.complete(job, 1, J.POINT_FAILED)
        store.append(job, [0, 1])
        self.complete(job, 3)
        store.append(job, [3])
        assert store.load(job.job_id).to_dict() == job.to_dict()
        assert [j.to_dict() for j in store.load_all()] == [job.to_dict()]

    def test_save_compacts_and_delete_removes_both_files(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job = self.saved_job(store)
        journal = tmp_path / "jobs" / f"{job.job_id}.journal"
        self.complete(job, 0)
        store.append(job, [0])
        assert journal.exists()
        store.save(job)
        assert not journal.exists()
        assert store.load(job.job_id).to_dict() == job.to_dict()
        store.append(job, [0])
        store.delete(job.job_id)
        assert list((tmp_path / "jobs").iterdir()) == []

    def test_lines_already_in_the_snapshot_replay_harmlessly(self, tmp_path):
        # A crash between a save's os.replace and its journal unlink leaves
        # lines the snapshot already holds; replay skips finished points.
        store = JobStore(tmp_path / "jobs")
        job = self.saved_job(store)
        self.complete(job, 0)
        store.append(job, [0])
        journal = tmp_path / "jobs" / f"{job.job_id}.journal"
        leftover = journal.read_bytes()
        store.save(job)
        stale = [[0, J.POINT_FAILED, None, 9.0, None]]
        journal.write_bytes(leftover + json.dumps(stale).encode() + b"\n")
        assert store.load(job.job_id).to_dict() == job.to_dict()

    @pytest.mark.parametrize(
        "bad_line",
        [
            b'[[1, "ok", null, 0.5',  # torn mid-append
            b'[[99, "ok", null, 0.5, null]]',  # index out of range
            b'[[1, "cancelled", null, 0.5, null]]',  # not a completion status
            b'[[1, "ok"]]',  # wrong entry shape
            b'{"1": "ok"}',  # not a list of entries
        ],
        ids=["torn", "index", "status", "shape", "type"],
    )
    def test_replay_stops_at_the_first_line_that_does_not_fit(
        self, tmp_path, caplog, bad_line
    ):
        store = JobStore(tmp_path / "jobs")
        job = self.saved_job(store)
        self.complete(job, 0)
        store.append(job, [0])
        journal = tmp_path / "jobs" / f"{job.job_id}.journal"
        good = json.dumps([[2, J.OK, None, 0.5, None]]).encode()
        with open(journal, "ab") as handle:
            handle.write(bad_line + b"\n" + good + b"\n")
        loaded = store.load(job.job_id)
        # Line 1 applied; line 2 ended replay, so line 3 never landed.
        assert [p.status for p in loaded.points] == ["ok", "pending", "pending", "pending"]
        assert "stops at line 2 of 3" in caplog.text

    def test_load_all_quarantines_a_corrupt_snapshot_with_its_journal(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job = self.saved_job(store)
        self.complete(job, 0)
        store.append(job, [0])
        (tmp_path / "jobs" / f"{job.job_id}.json").write_text("{torn")
        assert store.load_all() == []
        assert sorted(p.name for p in (tmp_path / "jobs").iterdir()) == [
            f"{job.job_id}.journal.corrupt",
            f"{job.job_id}.json.corrupt",
        ]
