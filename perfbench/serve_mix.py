"""The serve harness: a fresh ``repro serve`` daemon per pass, driven
closed loop by one client with one job in flight.

Each key is submitted once cold (a cache miss that computes and inserts
into the daemon's ``SharedResultCache``), then resubmitted warm (cache
hits).  The submission order is a pure function of the seed
(:func:`job_order`).  A job's latency runs from just before its
``POST /jobs`` to the poll that first sees it terminal, scaled to the
reference host's speed (``calibrate.py``), as is the daemon's own job
time.  One job in flight leaves the daemon idle
between jobs, which is when the client calibrates; the daemon's two
resident workers still share each job's tasks.  Every job has
a deadline, so a wedged worker pool ends the pass as counted failures
instead of hanging the benchmark, and the daemon is always torn down.
"""

from __future__ import annotations

import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import calibrate
from answer_key import key_id

Key = Tuple[str, bool]

#: warm resubmissions per key after its cold submission
WARM_REPEATS = 3
#: daemon resident workers
DAEMON_JOBS = 2
#: a job not terminal this long after its POST fails the pass
JOB_DEADLINE_S = 30.0
#: spawn-to-ready limit
READY_DEADLINE_S = 60.0
#: how often the client polls the job listing
POLL_S = 0.005


def job_order(keys: Sequence[Key], seed: int,
              warm_repeats: int = WARM_REPEATS) -> List[Tuple[Key, bool]]:
    """``(key, cold)`` submissions: every key ``1 + warm_repeats``
    times, shuffled by ``seed``; a key's first submission is its cold
    one."""
    slots = [key for key in keys for _ in range(1 + warm_repeats)]
    random.Random(seed).shuffle(slots)
    seen = set()
    order = []
    for key in slots:
        order.append((key, key not in seen))
        seen.add(key)
    return order


@dataclass
class JobSample:
    key: Key
    cold: bool
    #: scaled, as is ``run_s``
    latency_s: float
    #: the daemon's own wall time for the job (``wall_s``)
    run_s: float
    snapshot: Dict


@dataclass
class PassResult:
    samples: List[JobSample] = field(default_factory=list)
    #: (key, reason) for jobs that failed, timed out or were never run
    failures: List[Tuple[Key, str]] = field(default_factory=list)


class Daemon:
    """A ``repro serve`` subprocess on a free port (``--port 0``)."""

    def __init__(self, root: str) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        started = time.perf_counter()
        # own session: teardown can reach the forked workers too
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(DAEMON_JOBS), "--no-history"],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            self.port = self._read_port()
            from repro.serve.client import ServeClient

            self.client = ServeClient(port=self.port, timeout=JOB_DEADLINE_S)
            self._wait_ready(started)
        except BaseException:
            self.close()
            raise

    def _read_port(self) -> int:
        line: List[str] = []
        reader = threading.Thread(
            target=lambda: line.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(READY_DEADLINE_S)
        text = line[0] if line else ""
        marker = "listening on http://"
        if marker not in text:
            raise RuntimeError(f"daemon did not announce a port: {text!r}")
        address = text.split(marker, 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def _wait_ready(self, started: float) -> None:
        while not self.client.readyz():
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}")
            if time.perf_counter() - started > READY_DEADLINE_S:
                raise RuntimeError("daemon not ready in time")
            time.sleep(0.01)

    def close(self) -> None:
        """SIGINT (clean pool shutdown), then SIGKILL to the session."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        # orphaned workers are not our children: wait until none is left
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)
        raise RuntimeError("daemon workers survived SIGKILL")


def run_pass(root: str, order: Sequence[Tuple[Key, bool]]) -> PassResult:
    """One pass: spawn, drive every job in ``order``, tear down."""
    result = PassResult()
    daemon = Daemon(root)
    try:
        _drive(daemon.client, order, result)
    finally:
        daemon.close()
    return result


def _drive(client, order: Sequence[Tuple[Key, bool]],
           result: PassResult) -> None:
    """Submit each job when the previous one is terminal, with a
    calibration point (see ``calibrate.py``) before the submission and
    after the result, while the daemon is idle."""
    for position, (key, cold) in enumerate(order):
        before = calibrate.sample()
        submitted = time.perf_counter()
        (job_id,) = client.submit({"case": key[0], "mutant": key[1]})
        while True:
            time.sleep(POLL_S)
            snap = client.job(job_id)
            now = time.perf_counter()
            if snap["state"] in ("done", "failed", "cancelled"):
                break
            if now - submitted > JOB_DEADLINE_S:
                # a wedged pool: fail this job and everything after it
                result.failures.append((key, "deadline exceeded"))
                result.failures.extend(
                    (k, "pass aborted") for k, _cold in order[position + 1:])
                return
        scale = calibrate.REFERENCE_S / math.sqrt(before * calibrate.sample())
        if snap["state"] != "done":
            result.failures.append(
                (key, f"{snap['state']}: {snap.get('error')}"))
            continue
        result.samples.append(JobSample(
            key, cold, (now - submitted) * scale,
            snap["wall_s"] * scale, snap))


def cache_hit_ratio(samples: Sequence[JobSample]) -> float:
    """Shared-cache hits over the lookups that reached the cache (a
    lookup a worker's own dedupe memo answers never does)."""
    hits = sum(s.snapshot["result"]["stats"]["cache_hits"] for s in samples)
    computed = sum(s.snapshot["result"]["stats"]["checks_performed"]
                   for s in samples)
    return hits / (hits + computed) if hits + computed else 0.0


def first_failure(result: PassResult) -> Optional[str]:
    if not result.failures:
        return None
    key, reason = result.failures[0]
    return f"{key_id(*key)}: {reason}"
