"""Durable job records for the Caribou service layer.

One :class:`JobRecord` per submitted workflow, with an explicit state
machine::

    SUBMITTED -> ANALYZED -> SOLVED -> DEPLOYED -> MONITORING
                      \\-> FAILED (after max retries)
                      \\-> CANCELLED (operator action)

Every transition is idempotent (re-applying a transition the record has
already passed is a no-op), journaled with *virtual-time* timestamps,
and safe to retry after a crash: completed steps are recorded as
``step -> digest`` entries keyed on job id + step name, so an engine
restarting mid-pipeline skips exactly the work whose digest is already
on the record.

Three persistence backends share one interface:

* :class:`MemoryJobStore` — plain dict, for tests and throwaway runs.
* :class:`KVJobStore` — persisted through the simulated distributed KV
  store, so job durability costs the same metered accesses as any other
  workflow metadata (and is subject to injected KV faults).
* :class:`LocalJobStore` — a JSON file with atomic replace, for real
  CLI processes (``caribou submit`` in one process, ``caribou serve``
  in another).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import CaribouError, MalformedInputError

# -- states -----------------------------------------------------------------
SUBMITTED = "SUBMITTED"
ANALYZED = "ANALYZED"
SOLVED = "SOLVED"
DEPLOYED = "DEPLOYED"
MONITORING = "MONITORING"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

#: The happy path, in order.
PIPELINE: Tuple[str, ...] = (SUBMITTED, ANALYZED, SOLVED, DEPLOYED, MONITORING)
TERMINAL_STATES = frozenset({FAILED, CANCELLED})
JOB_STATES: Tuple[str, ...] = PIPELINE + (FAILED, CANCELLED)

_RANK = {state: i for i, state in enumerate(PIPELINE)}


class JobStateError(CaribouError):
    """An illegal job-state transition was requested."""


def step_digest(job_id: str, step: str, payload: Any = None) -> str:
    """Digest identifying one completed step of one job.

    Keyed on job id + step name (+ optional canonicalised payload), so
    re-running a completed step — after a crash, a retry, or a manual
    replay — is detectable as a no-op.
    """
    blob = json.dumps(
        {"job": job_id, "step": step, "payload": payload},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class JournalEntry:
    """One state transition, stamped with the simulation clock."""

    time_s: float
    from_state: str
    to_state: str
    step: str = ""
    digest: str = ""
    note: str = ""


@dataclass
class JobRecord:
    """Everything the service durably knows about one submitted job."""

    job_id: str
    app: str
    input_size: str = "small"
    state: str = SUBMITTED
    submitted_at_s: float = 0.0
    updated_at_s: float = 0.0
    #: step name -> digest of the completed step (idempotency ledger).
    steps: Dict[str, str] = field(default_factory=dict)
    #: step name -> failed attempt count (retry/backoff bookkeeping).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: durable step outputs (e.g. the solved plan set as a plain dict)
    #: that recovery re-applies instead of re-computing.
    artifacts: Dict[str, Any] = field(default_factory=dict)
    journal: List[JournalEntry] = field(default_factory=list)
    error: Optional[str] = None
    #: virtual time before which the engine must not retry this job.
    not_before_s: float = 0.0

    # -- queries ------------------------------------------------------------
    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def step_done(self, step: str) -> bool:
        return step in self.steps

    def rank(self) -> int:
        """Position along the pipeline (-1 for terminal states)."""
        return _RANK.get(self.state, -1)

    # -- transitions --------------------------------------------------------
    def record_step(self, step: str, digest: str) -> None:
        self.steps[step] = digest

    def advance(
        self,
        to_state: str,
        now_s: float,
        step: str = "",
        digest: str = "",
        note: str = "",
    ) -> bool:
        """Move forward along the pipeline; idempotent.

        Returns True when the state actually changed.  Re-applying a
        transition the record has already passed (same or earlier
        target state) is a silent no-op; moving backwards or out of a
        terminal state raises :class:`JobStateError`.
        """
        if to_state not in _RANK:
            raise JobStateError(f"{to_state!r} is not a pipeline state")
        if self.is_terminal:
            raise JobStateError(
                f"job {self.job_id!r} is terminal ({self.state}); "
                f"cannot advance to {to_state}"
            )
        if _RANK[to_state] <= self.rank():
            return False  # already at or past: idempotent no-op
        if _RANK[to_state] != self.rank() + 1:
            raise JobStateError(
                f"job {self.job_id!r}: illegal jump {self.state} -> {to_state}"
            )
        self._journal(now_s, to_state, step=step, digest=digest, note=note)
        return True

    def fail(self, now_s: float, error: str, step: str = "") -> None:
        if self.state == FAILED:
            return
        self.error = error
        self._journal(now_s, FAILED, step=step, note=error)

    def cancel(self, now_s: float, note: str = "") -> bool:
        """Cancel the job; idempotent, no-op on already-terminal jobs."""
        if self.is_terminal:
            return False
        self._journal(now_s, CANCELLED, note=note)
        return True

    def _journal(
        self,
        now_s: float,
        to_state: str,
        step: str = "",
        digest: str = "",
        note: str = "",
    ) -> None:
        self.journal.append(
            JournalEntry(
                time_s=now_s,
                from_state=self.state,
                to_state=to_state,
                step=step,
                digest=digest,
                note=note,
            )
        )
        self.state = to_state
        self.updated_at_s = now_s

    # -- (de)serialisation ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["journal"] = [asdict(entry) for entry in self.journal]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobRecord":
        """Rebuild a record from :meth:`to_dict` output;
        :class:`MalformedInputError` when ``doc`` is not one."""
        if not isinstance(doc, dict):
            raise MalformedInputError("not a job record (not a JSON object)")
        try:
            data = dict(doc)
            data["journal"] = [JournalEntry(**e) for e in doc.get("journal", ())]
            return cls(**data)
        except TypeError as exc:  # missing, unknown or non-mapping fields
            raise MalformedInputError(f"not a job record ({exc})") from None


class JobStore:
    """Persistence interface; subclasses implement the raw doc I/O."""

    def save(self, record: JobRecord) -> None:
        self._write(record.job_id, record.to_dict())

    def load(self, job_id: str) -> Optional[JobRecord]:
        doc = self._read(job_id)
        return JobRecord.from_dict(doc) if doc is not None else None

    def get(self, job_id: str) -> JobRecord:
        record = self.load(job_id)
        if record is None:
            raise KeyError(f"no such job {job_id!r}")
        return record

    def load_all(self) -> List[JobRecord]:
        return [
            JobRecord.from_dict(doc)
            for _job_id, doc in sorted(self._read_all().items())
        ]

    def job_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._read_all()))

    def free_job_id(self, app: str, seq: int) -> Tuple[str, int]:
        """The first unused id ``{app}-{n:04d}`` with ``n >= seq``, and
        its ``n`` — the one job-id allocator (engine and CLI)."""
        while self.load(f"{app}-{seq:04d}") is not None:
            seq += 1
        return f"{app}-{seq:04d}", seq

    # -- backend hooks ------------------------------------------------------
    def _write(self, job_id: str, doc: Dict[str, Any]) -> None:
        raise NotImplementedError

    def _read(self, job_id: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def _read_all(self) -> Dict[str, Dict[str, Any]]:
        raise NotImplementedError


class MemoryJobStore(JobStore):
    """In-process dict backend (tests, throwaway engines)."""

    def __init__(self) -> None:
        self._docs: Dict[str, Dict[str, Any]] = {}

    def _write(self, job_id: str, doc: Dict[str, Any]) -> None:
        self._docs[job_id] = json.loads(json.dumps(doc))

    def _read(self, job_id: str) -> Optional[Dict[str, Any]]:
        doc = self._docs.get(job_id)
        return json.loads(json.dumps(doc)) if doc is not None else None

    def _read_all(self) -> Dict[str, Dict[str, Any]]:
        return {job_id: self._read(job_id) for job_id in self._docs}


class KVJobStore(JobStore):
    """Jobs persisted through the simulated distributed KV store.

    Every save/load is a metered KV access (and therefore subject to
    injected KV faults), exactly like workflow metadata — the service's
    own durability is part of the simulated system, not outside it.
    """

    TABLE = "service:jobs"

    def __init__(self, kv, region: str, table: str = TABLE):
        self._kv = kv
        self._region = region
        self._table = table

    def _write(self, job_id: str, doc: Dict[str, Any]) -> None:
        self._kv.put(
            self._table, job_id, doc,
            caller_region=self._region, workflow="service",
        )

    def _read(self, job_id: str) -> Optional[Dict[str, Any]]:
        doc, _latency = self._kv.get(
            self._table, job_id,
            caller_region=self._region, workflow="service",
        )
        return doc

    def _read_all(self) -> Dict[str, Dict[str, Any]]:
        docs, _latency = self._kv.scan(
            self._table, caller_region=self._region, workflow="service",
        )
        return docs


class LocalJobStore(JobStore):
    """JSON-file backend for real processes (atomic replace on save).

    ``caribou submit`` writes the record in one process; a later
    ``caribou serve`` in another process loads it and resumes — the
    cross-process durability story the simulated KV store cannot give.
    """

    def __init__(self, path: str):
        self._path = path

    def _load_file(self) -> Dict[str, Dict[str, Any]]:
        """The file's job documents.  The file is outside input, so it is
        checked, not trusted: :class:`MalformedInputError` naming the
        path when it is not a job store."""
        if not os.path.exists(self._path):
            return {}
        with open(self._path, "r", encoding="utf-8") as fh:
            try:
                docs = json.load(fh)
            except ValueError as exc:
                raise MalformedInputError(
                    f"{self._path}: not a job store (not JSON: {exc})"
                ) from None
        if not isinstance(docs, dict):
            raise MalformedInputError(
                f"{self._path}: not a job store (not a JSON object)"
            )
        for job_id, doc in docs.items():
            try:
                JobRecord.from_dict(doc)
            except MalformedInputError as exc:
                raise MalformedInputError(
                    f"{self._path}: job {job_id!r}: {exc}"
                ) from None
        return docs

    def _write(self, job_id: str, doc: Dict[str, Any]) -> None:
        docs = self._load_file()
        docs[job_id] = doc
        directory = os.path.dirname(os.path.abspath(self._path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(docs, fh, sort_keys=True, indent=2)
                fh.write("\n")
            os.replace(tmp, self._path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _read(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self._load_file().get(job_id)

    def _read_all(self) -> Dict[str, Dict[str, Any]]:
        return self._load_file()
