"""Durable job journal: an append-only JSONL write-ahead log.

PR 5's queue kept every job in memory, so a crash (or a plain restart)
silently lost all submitted work.  :class:`JobJournal` fixes that with
the smallest durable structure that can: one JSONL file, appended and
fsynced *before* a computing submission is dispatched, appended again
when the job reaches a terminal state.  On restart, :meth:`replay` pairs
the two event streams and returns exactly the submissions that never
finished — what the queue must re-execute for ``kill -9`` mid-run to
lose nothing.  Only work that could be lost is journaled: a cache hit is
born ``done`` and writes no event at all.

Design notes:

* **Tokens, not job ids.**  Queue job ids restart from ``job-000001``
  every process, so a WAL keyed by them would pair a new process's
  events with a dead process's submissions.  Each ``submitted`` event
  instead carries a journal-unique random token; ``terminal`` events
  reference the token.
* **Torn tails are expected.**  ``kill -9`` can truncate the final line
  mid-write; replay treats any unparsable line as the torn tail (skipped
  and counted), never as corruption worth raising over.
* **Replay is idempotent.**  The recovery path marks each replayed
  submission ``recovered`` (a terminal state) only *after* resubmitting
  it under a fresh token.  A crash between the two steps merely replays
  the job once more next restart — and the result cache and in-flight
  fingerprint coalescing turn the duplicate into a dedupe hit.
* **Spec fingerprints ride along** so operators can grep the WAL for an
  experiment without parsing the embedded spec documents.

Durability is one ``fsync`` per event, two per computed submission.
Next to a solve that is noise; it is the property the chaos CI job kills
a live server to prove.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..core.results import atomic_write_text
from ..obs import trace as obs_trace

__all__ = ["JobJournal", "JournalEntry"]


@dataclass(frozen=True)
class JournalEntry:
    """One outstanding (submitted, never finished) journal record."""

    token: str
    fingerprint: str
    spec: Dict[str, Any]


class JobJournal:
    """Append-only JSONL WAL of experiment submissions.

    Thread safe; shared by the queue's submit path and its worker
    threads.  Events::

        {"event": "submitted", "token": ..., "fingerprint": ..., "spec": {...}, "unix": ...}
        {"event": "terminal",  "token": ..., "state": "done" | "failed" | ...}

    Any terminal state ends the token's obligation — including
    ``recovered`` (handed off to a fresh submission on replay) and
    ``unreplayable`` (the journaled spec no longer validates).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Unparsable lines seen by the last replay/compact (torn tails).
        self.skipped_lines = 0

    # -- append -------------------------------------------------------------------------

    def record_submitted(self, fingerprint: str, spec) -> str:
        """Journal a submission (durably, before dispatch); returns its token."""
        token = uuid.uuid4().hex[:16]
        payload: Dict[str, Any] = {
            "event": "submitted",
            "token": token,
            "fingerprint": fingerprint,
            "spec": spec.to_dict(),
            "unix": round(time.time(), 3),
        }
        # When the server runs with --trace, stamp the submission with
        # the active trace/span ids so a journaled job can be matched
        # to its spans in the trace file during a post-mortem.
        ids = obs_trace.current_trace_ids()
        if ids is not None:
            payload["trace_id"], span_id = ids
            if span_id is not None:
                payload["span_id"] = span_id
        self._append(payload)
        return token

    def record_terminal(
        self, token: str, state: str, error: Optional[str] = None
    ) -> None:
        payload: Dict[str, Any] = {"event": "terminal", "token": token, "state": state}
        if error:
            payload["error"] = str(error)[:500]
        self._append(payload)

    def _append(self, payload: Dict[str, Any]) -> None:
        line = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock:
            # Open per append: costs one open(2) next to the fsync that
            # dominates anyway, and stays correct across compact()'s
            # atomic file replacement.
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    # -- scan / replay ------------------------------------------------------------------

    def _scan(self) -> Tuple[List[JournalEntry], Set[str], int]:
        """(submissions in order, terminal tokens, skipped lines)."""
        submissions: List[JournalEntry] = []
        terminal: Set[str] = set()
        skipped = 0
        if not self.path.exists():
            return submissions, terminal, skipped
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(payload, dict):
                skipped += 1
                continue
            event = payload.get("event")
            token = payload.get("token")
            if not isinstance(token, str):
                skipped += 1
                continue
            if event == "submitted" and isinstance(payload.get("spec"), dict):
                submissions.append(
                    JournalEntry(
                        token=token,
                        fingerprint=str(payload.get("fingerprint", "")),
                        spec=payload["spec"],
                    )
                )
            elif event == "terminal":
                terminal.add(token)
            else:
                skipped += 1
        return submissions, terminal, skipped

    def replay(self) -> List[JournalEntry]:
        """The submissions with no terminal event, in submission order."""
        with self._lock:
            submissions, terminal, skipped = self._scan()
            self.skipped_lines = skipped
        return [entry for entry in submissions if entry.token not in terminal]

    def outstanding_count(self) -> int:
        return len(self.replay())

    # -- maintenance --------------------------------------------------------------------

    def compact(self) -> int:
        """Drop finished pairs from the file; returns lines removed.

        Rewrites the WAL to contain only the outstanding ``submitted``
        events (atomically, so a crash mid-compaction leaves the old file
        intact).  Safe to call any time; recovery calls it after replay
        so the WAL does not grow forever.
        """
        with self._lock:
            submissions, terminal, skipped = self._scan()
            self.skipped_lines = skipped
            if not self.path.exists():
                return 0
            before = sum(
                1 for line in self.path.read_text(encoding="utf-8").splitlines() if line.strip()
            )
            keep = [entry for entry in submissions if entry.token not in terminal]
            lines = [
                json.dumps(
                    {
                        "event": "submitted",
                        "token": entry.token,
                        "fingerprint": entry.fingerprint,
                        "spec": entry.spec,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
                for entry in keep
            ]
            atomic_write_text(self.path, "".join(line + "\n" for line in lines))
            return before - len(keep)

    def stats_dict(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "outstanding": self.outstanding_count(),
            "skipped_lines": self.skipped_lines,
        }
