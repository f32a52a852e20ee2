"""Tests of the durable job journal (WAL) and queue crash recovery.

The acceptance bar of the durability layer: every submission that
computes journaled before dispatch (a cache hit, born done, writes
nothing), torn tails tolerated, replay returns exactly the
unfinished submissions, and a queue restarted over the same journal
(plus cache) completes every journaled job — byte-identically, because
completed work re-serves from the content-addressed cache.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import ResultSet
from repro.core.spec import ArraySpec, ExecutionSpec, ExperimentSpec
from repro.service.cache import ResultCache
from repro.service.journal import JobJournal
from repro.service.queue import ExperimentQueue, JobState


def campaign_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(
        kind="campaign", array=ArraySpec(sizes=(16,)), **overrides
    )


def tiny_result(spec: ExperimentSpec, value: float = 1.0) -> ResultSet:
    return ResultSet(
        spec=spec,
        records=[{"record": "stub", "value": value}],
        meta={"stub": True},
    )


def wait_until(predicate, timeout_s=5.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(interval_s)
    return True


class TestJobJournal:
    def test_submitted_then_terminal_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        spec = campaign_spec()
        token = journal.record_submitted(spec.fingerprint(), spec)
        outstanding = journal.replay()
        assert [entry.token for entry in outstanding] == [token]
        assert outstanding[0].fingerprint == spec.fingerprint()
        assert ExperimentSpec.from_dict(outstanding[0].spec) == spec
        journal.record_terminal(token, "done")
        assert journal.replay() == []

    def test_events_are_fsynced_json_lines(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        spec = campaign_spec()
        token = journal.record_submitted(spec.fingerprint(), spec)
        journal.record_terminal(token, "failed", error="boom")
        lines = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert [line["event"] for line in lines] == ["submitted", "terminal"]
        assert lines[1]["state"] == "failed"
        assert lines[1]["error"] == "boom"

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        spec = campaign_spec()
        journal.record_submitted(spec.fingerprint(), spec)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "submitted", "token": "dead-')  # kill -9 here
        outstanding = journal.replay()
        assert len(outstanding) == 1
        assert journal.skipped_lines == 1

    def test_replay_survives_reopening(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = campaign_spec()
        JobJournal(path).record_submitted(spec.fingerprint(), spec)
        # A brand-new instance (a restarted process) sees the obligation.
        assert JobJournal(path).outstanding_count() == 1

    def test_compact_drops_finished_pairs_atomically(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        done = campaign_spec()
        open_spec = campaign_spec(execution=ExecutionSpec(seed=7))
        token = journal.record_submitted(done.fingerprint(), done)
        journal.record_terminal(token, "done")
        keep = journal.record_submitted(open_spec.fingerprint(), open_spec)
        assert journal.compact() == 2
        outstanding = journal.replay()
        assert [entry.token for entry in outstanding] == [keep]
        # Idempotent.
        assert journal.compact() == 0

    def test_missing_file_is_empty(self, tmp_path):
        journal = JobJournal(tmp_path / "never-written.jsonl")
        assert journal.replay() == []
        assert journal.compact() == 0
        stats = journal.stats_dict()
        assert stats["outstanding"] == 0


class TestQueueDurability:
    def test_submissions_journal_before_dispatch_and_settle_terminal(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        started = threading.Event()
        release = threading.Event()

        def slow_runner(spec):
            started.set()
            release.wait(5.0)
            return tiny_result(spec)

        with ExperimentQueue(workers=1, runner=slow_runner, journal=journal) as queue:
            job = queue.submit(campaign_spec())
            assert job.journal_token is not None
            assert started.wait(5.0)
            # Mid-flight: the obligation is durable.
            assert journal.outstanding_count() == 1
            release.set()
            queue.result(job.id, timeout=5.0)
            assert wait_until(lambda: journal.outstanding_count() == 0)

    def test_only_computed_submissions_are_journaled(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        cache = ResultCache(tmp_path / "cache")
        spec = campaign_spec()
        with ExperimentQueue(
            workers=1, runner=tiny_result, cache=cache, journal=JobJournal(path)
        ) as queue:
            computed = queue.submit(spec)
            queue.result(computed.id, timeout=5.0)
            assert wait_until(lambda: len(path.read_text().splitlines()) == 2)
            events = [json.loads(line) for line in path.read_text().splitlines()]
            assert [event["event"] for event in events] == ["submitted", "terminal"]
            assert events[1]["state"] == JobState.DONE
            before = path.read_bytes()
            hit = queue.submit(spec)
            assert hit.cached and hit.state == JobState.DONE
            assert hit.journal_token is None
        # Born done: nothing to recover, so the WAL is byte-unchanged.
        assert path.read_bytes() == before

    def test_recover_resubmits_unfinished_jobs(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = campaign_spec()
        # A dead process journaled a submission and never finished it.
        JobJournal(path).record_submitted(spec.fingerprint(), spec)

        seen = []

        def runner(spec):
            seen.append(spec.fingerprint())
            return tiny_result(spec)

        with ExperimentQueue(
            workers=1, runner=runner, journal=JobJournal(path)
        ) as queue:
            assert queue.recover() == 1
            assert wait_until(lambda: queue.stats()["completed"] == 1)
        assert seen == [spec.fingerprint()]
        # The obligation was handed off and the WAL compacted.
        assert JobJournal(path).outstanding_count() == 0

    def test_recover_serves_completed_jobs_from_cache_byte_identically(
        self, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        spec = campaign_spec()
        cache = ResultCache(tmp_path / "cache")
        reference = tiny_result(spec, value=1.0 / 3.0)
        cache.put(spec, reference)
        # Journaled, computed, cached — then killed before the terminal
        # event was appended.
        JobJournal(path).record_submitted(spec.fingerprint(), spec)

        def forbidden(spec):  # pragma: no cover - the cache must hit
            raise AssertionError("recovery recomputed a cached job")

        with ExperimentQueue(
            workers=1, runner=forbidden, cache=cache, journal=JobJournal(path)
        ) as queue:
            assert queue.recover() == 1
            jobs = queue.jobs()
            assert jobs[0]["state"] == JobState.DONE
            assert jobs[0]["cached"] is True
            replayed = queue.result(jobs[0]["id"], timeout=1.0)
        assert replayed.to_json() == ResultSet.from_dict(reference.to_dict()).to_json()

    def test_recover_marks_unreplayable_specs_terminal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        spec = campaign_spec()
        token = journal.record_submitted(spec.fingerprint(), spec)
        # Corrupt the journaled document (schema drift, hand editing...).
        text = path.read_text()
        path.write_text(text.replace('"kind":"campaign"', '"kind":"bogus"'))
        with ExperimentQueue(workers=1, runner=tiny_result, journal=JobJournal(path)) as queue:
            assert queue.recover() == 0
            assert queue.stats()["recovered"] == 0
        final = JobJournal(path)
        assert final.outstanding_count() == 0
        assert token not in [entry.token for entry in final.replay()]

    def test_recover_without_journal_is_a_noop(self):
        with ExperimentQueue(workers=1, runner=tiny_result) as queue:
            assert queue.recover() == 0

    def test_cancelled_jobs_settle_their_journal_obligation(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        release = threading.Event()

        def slow_runner(spec):
            release.wait(5.0)
            return tiny_result(spec)

        with ExperimentQueue(workers=1, runner=slow_runner, journal=journal) as queue:
            first = queue.submit(campaign_spec())
            # Coalesced twin: cancelling it must settle its own token.
            second = queue.submit(campaign_spec())
            assert queue.cancel(second.id) is True
            assert wait_until(lambda: journal.outstanding_count() == 1)
            release.set()
            queue.result(first.id, timeout=5.0)
            assert wait_until(lambda: journal.outstanding_count() == 0)


class TestJobDeadlines:
    def test_runaway_job_fails_at_the_deadline(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        release = threading.Event()

        def runaway(spec):
            release.wait(10.0)
            return tiny_result(spec)

        queue = ExperimentQueue(
            workers=1, runner=runaway, journal=journal, job_timeout_s=0.2
        )
        try:
            job = queue.submit(campaign_spec())
            assert wait_until(
                lambda: queue.status(job.id)["state"] == JobState.FAILED, timeout_s=5.0
            )
            status = queue.status(job.id)
            assert "deadline exceeded" in status["error"]
            stats = queue.stats()
            assert stats["timeouts"] == 1
            # The deadline settles the journal too.
            assert journal.outstanding_count() == 0
        finally:
            release.set()
            queue.shutdown(wait=True)

    def test_fast_job_cancels_its_deadline_timer(self):
        queue = ExperimentQueue(workers=1, runner=tiny_result, job_timeout_s=30.0)
        try:
            job = queue.submit(campaign_spec())
            queue.result(job.id, timeout=5.0)
            assert wait_until(lambda: not queue._timers)
        finally:
            queue.shutdown(wait=True)

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            ExperimentQueue(workers=1, job_timeout_s=0.0)


class TestDrain:
    def test_drain_waits_for_inflight_work(self):
        release = threading.Event()

        def slow_runner(spec):
            release.wait(5.0)
            return tiny_result(spec)

        queue = ExperimentQueue(workers=1, runner=slow_runner)
        try:
            queue.submit(campaign_spec())
            assert queue.drain(timeout_s=0.05) is False
            release.set()
            assert queue.drain(timeout_s=5.0) is True
        finally:
            queue.shutdown(wait=True)

    def test_drain_on_idle_queue_returns_immediately(self):
        with ExperimentQueue(workers=1, runner=tiny_result) as queue:
            assert queue.drain(timeout_s=0.0) is True
