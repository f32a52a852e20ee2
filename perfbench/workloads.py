"""The four workloads: their seeded specs, requests, checks and work units.

Nothing here imports the program at module load: the set-up time a
workload reports starts before the first ``import repro``.
"""

from __future__ import annotations

import copy
import json
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import checks
from .measure import BenchmarkError, Request

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: The seed the committed reference records were generated at.
DEFAULT_SEED = 2015

#: Monte-Carlo samples per (option, overlay) point on mc_yield.  Stated
#: because the working set against L2 changes behaviour: 200k samples ran
#: super-linearly and noisily on a 2 MiB-L2 host.
MC_SAMPLES = 50_000

#: Service mix: one submission in this many computes a fresh spec (1/5 cold).
COLD_EVERY = 5
#: Client poll interval: fine enough that cold latency resolves compute.
POLL_S = 0.02
#: Client think time between submissions.  With none, run_s and throughput
#: spread ~20% over six seeds on a 2-CPU host; with 20 ms, under 10%.
THINK_S = 0.02
#: Fresh (cold) submissions checked against their own direct ``api.run``.
COLD_DIRECT_CHECKS = 3


def ops_spec(seed: int, solver: str = "batched", backend: str = "serial") -> Dict[str, Any]:
    """The operations DOE: 4 operations x 4 sizes x 3 options (64 items)."""
    execution: Dict[str, Any] = {"seed": seed, "solver": solver, "backend": backend}
    if backend == "process":
        execution["workers"] = 2
    return {
        "kind": "operations",
        "array": {"sizes": [16, 64, 256, 1024], "options": ["LELELE", "SADP", "EUV"]},
        "operation": {
            "operations": ["read", "write", "hold_snm", "read_snm"],
            "mc_sigma": False,
        },
        "execution": execution,
    }


def mc_specs(seed: int) -> List[Dict[str, Any]]:
    """Read sigma (Table IV / Fig. 5), then yield, then analytical yield_hs."""
    return [
        {"kind": kind, "operation": {"samples": MC_SAMPLES}, "execution": {"seed": seed}}
        for kind in ("monte_carlo", "yield", "yield_hs")
    ]


def service_bases(seed: int) -> List[Dict[str, Any]]:
    """The smoke-size specs the service mix resubmits (warm) or re-seeds (cold).

    One operation at one size and one option each (~45 ms of compute): a
    heavier fresh spec keeps the server computing nearly all the time, and
    warm latency then measures GIL hand-offs more than the warm path.
    """
    return [
        {
            "kind": "operations",
            "array": {"sizes": [16], "options": [option]},
            "operation": {"operations": [operation]},
            "execution": {"seed": seed},
        }
        for operation, option in (("read", "EUV"), ("write", "EUV"), ("read", "SADP"))
    ]


def with_seed(spec: Dict[str, Any], seed: int) -> Dict[str, Any]:
    fresh = copy.deepcopy(spec)
    fresh["execution"]["seed"] = seed
    return fresh


def program():
    """The program's public API (imported on first use)."""
    from repro import api

    return api


def solver_counts() -> Dict[str, int]:
    from repro.circuit.mna import solver_stats

    return solver_stats().as_dict()


# -- batch workloads ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One request's results and its work accounting."""

    results: List[Any]
    units: float
    attempted_units: int
    failed_units: int


class BatchWorkload:
    """Requests that run specs through ``repro.api.run`` in this process."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def specs(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def warmup_specs(self) -> List[Dict[str, Any]]:
        return self.specs()

    def run_specs(self, specs: Sequence[Dict[str, Any]]) -> List[Any]:
        api = program()
        return [api.run(spec) for spec in specs]

    def setup(self) -> None:
        """The untimed warm-up run, checked like any other."""
        self.check_warmup(self.run_specs(self.warmup_specs()))

    def after_setup(self) -> None:
        """Bookkeeping that must not count as set-up time or as a traced request."""

    def check_warmup(self, results: List[Any]) -> None:
        self.check(results)

    def check(self, results: List[Any]) -> None:
        raise NotImplementedError

    def attempted_units(self) -> int:
        """Items (ops) or ``api.run`` calls (mc_yield) one request attempts."""
        raise NotImplementedError

    def account(self, results: List[Any]) -> Outcome:
        raise NotImplementedError

    def after_window(self, last: Optional[Outcome]) -> None:
        """Checks that need one extra untimed run after the measured window."""

    def request(self) -> Tuple[Request, Outcome]:
        started = perf_counter()
        try:
            results = self.run_specs(self.specs())
        except Exception:  # a failed request counts as attempted, never as a latency
            attempted = self.attempted_units()
            return Request(perf_counter() - started, ok=False), Outcome([], 0.0, attempted, attempted)
        latency = perf_counter() - started
        self.check(results)
        outcome = self.account(results)
        return Request(latency, ok=outcome.failed_units == 0), outcome


class OpsWorkload(BatchWorkload):
    backend = "serial"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._items: Optional[int] = None

    def specs(self) -> List[Dict[str, Any]]:
        return [ops_spec(self.seed, backend=self.backend)]

    def check(self, results: List[Any]) -> None:
        (result,) = results
        records = checks.strip_volatile(r for r in result.records if r.get("record") != "failure")
        expected = checks.load_reference("ops")["records"]
        if result.failures:
            # A partial result is held to the reference rows it still has.
            present = {_ops_key(r) for r in records}
            expected = [r for r in expected if _ops_key(r) in present]
        checks.require_same(f"{self.name} records vs the scalar oracle", records, expected)

    def after_setup(self) -> None:
        """Count the campaign items one request attempts, from the work list."""
        from repro.core.campaign import SimulationCampaign
        from repro.core.spec import ExperimentSpec, scenario_spec_grid

        spec = ExperimentSpec.from_dict(self.specs()[0])
        spec = spec.with_scenarios(scenario_spec_grid(operations=spec.operation.operations))
        self._items = len(SimulationCampaign.from_spec(spec).work_items())

    def attempted_units(self) -> int:
        return self._items

    def account(self, results: List[Any]) -> Outcome:
        (result,) = results
        attempted = self._items
        failed = len(result.failures)
        return Outcome(results, float(attempted - failed), attempted, failed)


def _ops_key(record: Dict[str, Any]) -> Tuple[Any, ...]:
    return tuple(record.get(k) for k in ("record", "operation", "array_label", "option"))


class OpsSerial(OpsWorkload):
    name = "ops_serial"


class OpsPool(OpsWorkload):
    name = "ops_pool"
    backend = "process"

    def after_window(self, last: Optional[Outcome]) -> None:
        if last is None or last.failed_units:
            return
        (serial,) = self.run_specs([ops_spec(self.seed, backend="serial")])
        checks.require_same(
            "ops_pool records vs ops_serial (bit identity)",
            last.results[0].records,
            serial.records,
            rtol=0.0,
        )


class McYield(BatchWorkload):
    """MC sigma -> yield -> yield_hs; no circuit solve on this path."""

    name = "mc_yield"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._first: Optional[List[List[Dict[str, Any]]]] = None

    def specs(self) -> List[Dict[str, Any]]:
        return mc_specs(self.seed)

    def warmup_specs(self) -> List[Dict[str, Any]]:
        # The reference records exist at the default seed only, so the
        # warm-up runs there and is held to them exactly.
        return mc_specs(DEFAULT_SEED)

    def check_warmup(self, results: List[Any]) -> None:
        reference = checks.load_reference("mc_yield")["records"]
        checks.require_same(
            "mc_yield records vs the default-seed reference",
            [checks.strip_volatile(r.records) for r in results],
            reference,
        )

    def check(self, results: List[Any]) -> None:
        records = [checks.strip_volatile(r.records) for r in results]
        if self.seed == DEFAULT_SEED:
            self.check_warmup(results)
            return
        if self._first is None:
            reference = checks.load_reference("mc_yield")["records"]
            _check_mc_plausible(records, reference)
            self._first = records
        # One seed, one answer: every request repeats the first bit for bit.
        checks.require_same("mc_yield records across requests", records, self._first, rtol=0.0)

    def attempted_units(self) -> int:
        return len(self.specs())

    def account(self, results: List[Any]) -> Outcome:
        monte_carlo, compliance, _ = results
        samples = MC_SAMPLES * (len(monte_carlo.records) + len(compliance.records))
        return Outcome(results, float(samples), len(results), 0)


#: Fields that identify an mc_yield record (equal at every seed).
_MC_IDENTITY = ("record", "operation", "option", "array_label", "array", "model",
                "overlay_three_sigma_nm", "sigma_level", "budget_percent")


def _check_mc_plausible(records: List[List[Dict[str, Any]]],
                        reference: List[List[Dict[str, Any]]]) -> None:
    """Another seed draws other samples: same rows, sigma within 5 %."""
    for kind, (rows, expected_rows) in enumerate(zip(records, reference)):
        if len(rows) != len(expected_rows):
            raise BenchmarkError(f"mc_yield request {kind}: {len(rows)} records, expected {len(expected_rows)}")
        for row, expected in zip(rows, expected_rows):
            for key in _MC_IDENTITY:
                if row.get(key) != expected.get(key):
                    raise BenchmarkError(f"mc_yield record identity {key}: {row.get(key)!r} != {expected.get(key)!r}")
            if "sigma_percent" in expected:
                ratio = row["sigma_percent"] / expected["sigma_percent"]
                if not 0.95 <= ratio <= 1.05:
                    raise BenchmarkError(f"mc_yield sigma_percent off the reference by {ratio:.3f}x")


BATCH_WORKLOADS = {cls.name: cls for cls in (OpsSerial, OpsPool, McYield)}


# -- the service mix ---------------------------------------------------------------------------


class Server:
    """``repro serve`` in its own process, started through the launcher."""

    def __init__(self, workdir: Path, traced: bool) -> None:
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.stats_path = workdir / "server-stats.json" if traced else None
        self.log_path = workdir / "server.log"
        workdir.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(BENCH_DIR / "serve.py")]
        if self.stats_path is not None:
            command += ["--stats", str(self.stats_path)]
        command += ["--", "--port", "0", "--cache-dir", str(self.cache_dir)]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                            stderr=log, cwd=str(ROOT))
        self.url = self._wait_for_url()

    def _wait_for_url(self, timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        marker = "listening on "
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            if marker in text:
                return text.split(marker, 1)[1].split()[0]
            if self.process.poll() is not None:
                raise BenchmarkError(f"server exited early:\n{text}")
            time.sleep(0.01)
        raise BenchmarkError("server did not report its address")

    def wait_healthy(self, client) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if client.health().get("status") == "ok":
                    return
            except Exception:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.01)

    def stop(self) -> Optional[Dict[str, Any]]:
        """Stop gracefully (SIGINT drains the queue); the trace, if any."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.stats_path is None or not self.stats_path.exists():
            return None
        with open(self.stats_path, encoding="utf-8") as handle:
            return json.load(handle)


@dataclass
class Submission:
    request: Request
    base: int
    spec: Dict[str, Any]
    text: Optional[str] = None
    records: Optional[List[Dict[str, Any]]] = None


@dataclass
class Window:
    """What one measured window of the service mix produced."""

    submissions: List[Submission] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0


class ServiceMix:
    """One closed-loop client: cached resubmissions plus fresh specs.

    A second concurrent client made every latency swing by up to 2x from
    one run to the next (GIL hand-offs between its requests and the other
    client's computing job), far beyond any bound a regression gate could
    use, so the mix runs one client.
    """

    name = "service_mix"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.bases = service_bases(seed)
        self.cold_texts: List[str] = []
        self.server: Optional[Server] = None
        self._servers = 0

    def client(self):
        from repro.service import ExperimentClient

        return ExperimentClient(self.server.url, timeout_s=60.0)

    def setup(self, traced: bool = False) -> None:
        """Spawn a server until healthy, then seed the cache with the bases."""
        self._servers += 1
        self.server = Server(self.workdir / f"server-{self._servers}", traced)
        client = self.client()
        self.server.wait_healthy(client)
        self.cold_texts = [client.run(base, poll_s=POLL_S).to_json() for base in self.bases]

    def stop(self) -> Optional[Dict[str, Any]]:
        stats = self.server.stop() if self.server is not None else None
        self.server = None
        return stats

    def measure(self, seconds: float) -> Window:
        """The closed loop against the current server for ``seconds``."""
        # The seed picks the order, never the mix: each block of COLD_EVERY
        # submissions holds exactly one fresh spec, at a seeded position, and
        # fresh ones cycle through the bases, so run-to-run spread is not
        # sampling noise of the mix.
        rng = random.Random(f"{self.seed}/server{self._servers}")
        cold_order = rng.sample(range(len(self.bases)), len(self.bases))
        first_fresh_seed = (self.seed * 1_000 + self._servers) * 100_000
        client = self.client()
        window = Window(started=perf_counter())
        position = 0
        fresh = 0
        while perf_counter() < window.started + seconds:
            sent = len(window.submissions)
            if sent % COLD_EVERY == 0:
                position = rng.randrange(COLD_EVERY)
            cold = sent % COLD_EVERY == position
            if cold:
                base = cold_order[fresh % len(cold_order)]
                fresh += 1
                spec = with_seed(self.bases[base], first_fresh_seed + fresh)
            else:
                base = rng.randrange(len(self.bases))
                spec = self.bases[base]
            submission = Submission(Request(0.0, False, "cold" if cold else "warm"), base, spec)
            started = perf_counter()
            try:
                result = client.run(spec, poll_s=POLL_S)
            except Exception:  # counted as attempted and failed; never timed
                pass
            else:
                submission.request = Request(perf_counter() - started, True, submission.request.cls)
                if cold:
                    submission.records = checks.strip_volatile(result.records)
                else:
                    submission.text = result.to_json()
            window.submissions.append(submission)
            time.sleep(THINK_S)
        window.ended = perf_counter()
        return window

    def check(self, window: Window) -> None:
        """Warm responses equal their cold twin; records equal a direct run."""
        api = program()
        direct = [checks.strip_volatile(api.run(base).records) for base in self.bases]
        for base, text in enumerate(self.cold_texts):
            checks.require_same(f"service base {base} vs a direct api.run",
                                checks.strip_volatile(api.ResultSet.from_json(text).records),
                                direct[base])
        cold = [s for s in window.submissions if s.request.ok and s.records is not None]
        for submission in window.submissions:
            if not submission.request.ok:
                continue
            if submission.text is not None and submission.text != self.cold_texts[submission.base]:
                raise BenchmarkError(f"warm response of base {submission.base} differs "
                                     "from its cold response")
            if submission.records is not None:
                # Operations records do not depend on the execution seed, so
                # a re-seeded base must reproduce the base's direct run.
                checks.require_same(f"fresh submission of base {submission.base}",
                                    submission.records, direct[submission.base])
        for submission in random.Random(self.seed).sample(cold, min(COLD_DIRECT_CHECKS, len(cold))):
            checks.require_same("fresh submission vs its own direct api.run",
                                submission.records,
                                checks.strip_volatile(api.run(submission.spec).records))
