"""The repository benchmark: time to a correct verdict on the shipped
catalog, end to end, attributed to layers.

Run from the repository root::

    python3 perfbench/run.py --workload check-bound --seed 1 \\
        --seconds 30 --trace 0

Workloads (keys are ``(catalog case, mutant)`` verifications):

``check-bound``
    15 in-process verifications where checking each computation against
    many restrictions dominates (legality, EventIndex bind, restriction
    decision).
``explore-bound``
    6 in-process verifications with many interleavings and few distinct
    computations, where replay, computation build and the DFA monitor
    dominate; the tally-mesa mutant is where the DFA monitor cuts.

In-process verifications call ``verify_program`` with default flags and
``jobs=1``, in a fixed order.  A run makes at least two rounds, each
verification once per round, and more while another fits in
``--seconds``; a verification's figure is its median over the rounds.
The catalog is the workloads' whole input, so ``--seed`` only orders
the serve pass's jobs.

Every timing is scaled to the reference host's speed by a calibration
kernel timed next to it (``calibrate.py``): the shared host this runs
on drifts by up to 1.5x within a minute, which left raw timings of the
same code 10-30% apart from run to run.  Raw seconds and the kernel's time
are logged on standard error.

Every verdict is compared with ``answer_key.json`` (derived on the
reference path, not the fast paths timed here).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
traced and then one untraced round and prints the per-layer metrics:
each layer's self time and calls, the restriction-decision provenance
ledger, work counts, and the trace's coverage and overhead.  On
check-bound it then drives a fresh ``repro serve`` daemon through one
pass of the 16 sub-second keys (each once cold, then three times warm,
one job in flight; see ``serve_mix.py``) for the serve layers, with
every job's signature compared with the in-process signature of its
key.  ``LAYERS.md`` maps each layer metric to the end-to-end
metric and workload it should move.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Progress goes to standard
error.  Without the program sources next to this directory the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import calibrate
from answer_key import key_id, load, mismatches
from layers import (DECIDE, LAYERS, PROVENANCE, LayerTracer, covered_frac,
                    uncalled)
from serve_mix import cache_hit_ratio, first_failure, job_order, run_pass
from stats import geomean, median, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

Key = Tuple[str, bool]

#: In-process workloads run in this fixed order, light verifications
#: first: a heavy case leaves a large heap behind that slows whatever
#: follows it, so a shuffled order would add that to the spread.  Each
#: workload is light enough to run several rounds per run; the catalog's
#: four slowest verifications (monitor-tally-mesa, csp-readers-writers,
#: ada-readers-writers and its mutant, 7-20 s each) are left out, since
#: one sample of each per run made the figures too noisy to gate on.
CHECK_BOUND: Tuple[Key, ...] = (
    ("db_update", True), ("objects-lock", False),
    ("csp-bounded-buffer", False), ("objects-register", False),
    ("objects-register", True), ("objects-queue", False),
    ("objects-queue", True), ("objects-lock", True),
    ("objects-counter", False), ("db_update", False),
    ("monitor-bounded-buffer", True), ("monitor-one-slot-buffer", True),
    ("monitor-bounded-buffer", False), ("monitor-one-slot-buffer", False),
    ("monitor-readers-writers", False),
)
EXPLORE_BOUND: Tuple[Key, ...] = (
    ("csp-one-slot-buffer", False), ("ada-one-slot-buffer", False),
    ("monitor-readers-writers", True), ("ada-bounded-buffer", False),
    ("monitor-tally-mesa", True), ("csp-readers-writers", True),
)
#: the sub-second keys, run through a ``repro serve`` daemon in the
#: traced run of :data:`SERVE_MEASURED`
SERVE_KEYS: Tuple[Key, ...] = (
    ("monitor-one-slot-buffer", False), ("monitor-one-slot-buffer", True),
    ("csp-one-slot-buffer", False), ("ada-one-slot-buffer", False),
    ("monitor-bounded-buffer", False), ("monitor-bounded-buffer", True),
    ("csp-bounded-buffer", False),
    ("db_update", False), ("db_update", True),
    ("objects-register", False), ("objects-register", True),
    ("objects-queue", False), ("objects-queue", True),
    ("objects-lock", False), ("objects-lock", True),
    ("objects-counter", False),
)
WORKLOADS: Dict[str, Tuple[Key, ...]] = {
    "check-bound": CHECK_BOUND,
    "explore-bound": EXPLORE_BOUND,
}
#: workloads whose traced run must cover >= MIN_COVERED of wall
COVERAGE_CHECKED = ("check-bound", "explore-bound")
#: the workload whose traced run also measures the serve layers
SERVE_MEASURED = "check-bound"
MIN_COVERED = 0.9

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_SAMPLES = 5
#: in-process rounds per run, at least; more while another fits in
#: --seconds
MIN_ROUNDS = 2
#: an in-process verification still running after this counts as failed
VERIFY_DEADLINE_S = 120


class Deadline(Exception):
    """A verification overran :data:`VERIFY_DEADLINE_S`."""


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot vouch for its figures."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- set-up ----------------------------------------------------------------


def setup(keys: Sequence[Key]):
    """Import every ``repro`` module from this checkout and build every
    workload object through the catalog factories.

    The program imports most modules lazily, on first use; importing
    them all here keeps that one-off cost out of whichever verification
    happens to run first, and shows it in ``setup_s`` instead.

    Returns ``(catalog, verify_program)``."""
    sys.path.insert(0, SRC)
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    from repro.cli import case_catalog
    from repro.verify import verify_program

    catalog = case_catalog()
    for case, mutant in keys:
        catalog[case].factory(mutant)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported repro from {repro.__file__}, "
                             f"not from {SRC}")
    return catalog, verify_program


def setup_probe(workload: str) -> float:
    """One :func:`setup` in a fresh interpreter; returns its scaled
    seconds."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# -- in-process passes -------------------------------------------------------


def _alarm(signum, frame):
    raise Deadline(f"verification overran {VERIFY_DEADLINE_S}s")


class Verifier:
    """Runs and checks in-process verifications."""

    def __init__(self, catalog, verify_program, key_entries) -> None:
        self.catalog = catalog
        self.verify_program = verify_program
        self.key = key_entries
        self.attempted = 0
        self.failed = 0
        #: (raw seconds, kernel seconds) of every timed verification
        self.raw: List[Tuple[float, float]] = []

    def fail(self, key: Key, reason: str) -> None:
        self.failed += 1
        log(f"FAILED {key_id(*key)}: {reason}")

    def run_pass(self, keys: Sequence[Key], tracer=None):
        """Verify each key once on freshly built objects.  Returns
        ``(scaled seconds by key, reports by key)``; a verification that
        raises, overruns or disagrees with the key is counted failed and
        contributes no time.  Raw and kernel seconds go to
        :attr:`raw`."""
        objects = {key: self.catalog[key[0]].factory(key[1]) for key in keys}
        times: Dict[Key, float] = {}
        reports = {}
        for key in keys:
            program, spec, corr, pspec = objects[key]
            self.attempted += 1
            gc.collect()
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, VERIFY_DEADLINE_S)
            if tracer is None:
                def call():
                    return self.verify_program(
                        program, spec, corr, program_spec=pspec, jobs=1)
            else:
                def call():
                    return tracer.root(
                        self.verify_program, program, spec, corr,
                        program_spec=pspec, jobs=1)
            try:
                # no ticker under the tracer: its time would land in
                # whichever layer it interrupted
                report, seconds, raw, kernel_s = calibrate.timed(
                    call, tick=tracer is None)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.fail(key, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            problems = mismatches(self.key[key_id(*key)], report.ok,
                                  report.signature())
            if problems:
                self.fail(key, "; ".join(problems))
                continue
            times[key] = seconds
            reports[key] = report
            self.raw.append((raw, kernel_s))
        return times, reports


# -- metrics -----------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def latency_metrics(samples: Sequence[float]) -> Dict[str, Dict]:
    if not samples:
        raise BenchmarkError("no verification succeeded")
    return {
        "verdict_geomean_s": metric(geomean(samples), "s"),
        "verdict_p50_s": metric(percentile(samples, 50), "s"),
        "verdict_p90_s": metric(percentile(samples, 90), "s"),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(tracer, reports, traced_wall: float,
                  untraced_wall: float, workload: str) -> Dict[str, Dict]:
    """Per-layer figures of one traced pass, after checking the trace
    can vouch for them.  ``traced_wall`` and ``untraced_wall`` are
    scaled; layer seconds are scaled by the traced pass's own factor."""
    summary = tracer.summary()
    missing = uncalled(summary)
    if missing:
        raise BenchmarkError(
            f"{workload}: wrapped layers saw no call: {', '.join(missing)} "
            f"(a rebound name would report 0 s)")
    engine = [r.engine_stats for r in reports.values()]
    ledger = {
        "decide.slice": sum(s.slice_hits for s in engine),
        "decide.walk": sum(s.slice_fallbacks for s in engine),
        "decide.dfa+decide.dfa_early": sum(s.dfa_hits for s in engine),
    }
    measured = {
        "decide.slice": summary.get("decide.slice", (0, 0))[1],
        "decide.walk": summary.get("decide.walk", (0, 0))[1],
        "decide.dfa+decide.dfa_early": (
            summary.get("decide.dfa", (0, 0))[1]
            + summary.get("decide.dfa_early", (0, 0))[1]),
    }
    if measured != ledger:
        raise BenchmarkError(f"{workload}: decision ledger {measured} "
                             f"disagrees with engine stats {ledger}")
    buckets = sum(summary.get(b, (0, 0))[1] for b in PROVENANCE.values())
    if buckets != summary[DECIDE][1]:
        raise BenchmarkError(f"{workload}: decide.* calls sum to {buckets}, "
                             f"not {summary[DECIDE][1]}")
    covered = covered_frac(summary, tracer.root_wall())
    if workload in COVERAGE_CHECKED and covered < MIN_COVERED:
        raise BenchmarkError(f"{workload}: layers cover {covered:.1%} of "
                             f"wall, below {MIN_COVERED:.0%}")
    scale = traced_wall / tracer.root_wall()
    out: Dict[str, Dict] = {}
    for name in LAYERS + tuple(PROVENANCE.values()):
        seconds, calls = summary.get(name, (0.0, 0))
        out[f"{name}_s"] = metric(seconds * scale, "s")
        out[f"{name}_calls"] = metric(calls, "count")
    runs = sum(s.runs for s in engine)
    out.update({
        "sim.scheduler.replay_steps": metric(tracer.replay_steps, "count"),
        "core.automata.cuts": metric(sum(s.dfa_cuts for s in engine),
                                     "count"),
        "core.automata.accepts": metric(sum(s.dfa_accepts for s in engine),
                                        "count"),
        "engine.dedupe.ratio": metric(
            sum(s.distinct_computations for s in engine) / runs, "ratio"),
        "engine.por.pruned": metric(sum(s.por_pruned for s in engine),
                                    "count"),
        "trace.covered_frac": metric(covered, "ratio"),
        "trace.overhead_frac": metric(traced_wall / untraced_wall - 1,
                                      "ratio"),
    })
    return out


#: serve layers and their units; they read 0 on the workloads other than
#: SERVE_MEASURED
SERVE_LAYERS = {"serve.run_s": "s", "serve.overhead_s": "s",
                "engine.cache.hit_ratio": "ratio", "serve.cold_p50_s": "s",
                "serve.warm_p50_s": "s"}


def serve_layer_metrics(samples) -> Dict[str, Dict]:
    """Serve layers read from the daemon's public endpoints."""
    n = len(samples)
    cold = [s.latency_s for s in samples if s.cold]
    warm = [s.latency_s for s in samples if not s.cold]
    return {
        "serve.run_s": metric(sum(s.run_s for s in samples) / n, "s"),
        "serve.overhead_s": metric(
            sum(s.latency_s - s.run_s for s in samples) / n, "s"),
        "engine.cache.hit_ratio": metric(cache_hit_ratio(samples), "ratio"),
        "serve.cold_p50_s": metric(median(cold) if cold else 0.0, "s"),
        "serve.warm_p50_s": metric(median(warm) if warm else 0.0, "s"),
    }


# -- workloads ---------------------------------------------------------------


def run_inprocess(verifier: Verifier, order: Sequence[Key], seconds: float,
                  trace: bool, workload: str, seed: int):
    if trace:
        # traced round first, under the conditions of an untraced run
        tracer = LayerTracer()
        with tracer:
            traced, reports = verifier.run_pass(order, tracer=tracer)
        untraced, _ = verifier.run_pass(order)
        metrics = layer_metrics(tracer, reports, sum(traced.values()),
                                sum(untraced.values()), workload)
        if workload == SERVE_MEASURED:
            metrics.update(serve_layers(verifier, seed))
        else:
            metrics.update({name: metric(0.0, unit)
                            for name, unit in SERVE_LAYERS.items()})
        return metrics
    rounds: List[Dict[Key, float]] = []
    walls: List[float] = []
    last = 0.0
    started = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - started + last <= seconds):
        round_started = time.perf_counter()
        times, _reports = verifier.run_pass(order)
        last = time.perf_counter() - round_started
        walls.append(sum(times.values()))
        rounds.append(times)
    raw = sum(r for r, _k in verifier.raw)
    log(f"{workload}: {len(rounds)} rounds, scaled walls "
        f"{[round(w, 3) for w in walls]}; raw {raw:.3f} s in all, kernel "
        f"median {median([k for _r, k in verifier.raw]) * 1e3:.3f} ms")
    # each verification's median over the rounds it passed in
    samples = [median([r[key] for r in rounds if key in r])
               for key in order if any(key in r for r in rounds)]
    return {"wall_s": metric(median(walls), "s"), **latency_metrics(samples)}


def serve_layers(verifier: Verifier, seed: int) -> Dict[str, Dict]:
    """The serve layers, from one pass of the 16 sub-second keys through
    a fresh daemon (see ``serve_mix.py``), in the seed's order.  Each
    job's verdict is compared with the key and its signature with the
    in-process signature of the same key."""
    order = job_order(SERVE_KEYS, seed)
    verifier.attempted += len(order)
    try:
        result = run_pass(ROOT, order)
    except Exception as exc:  # noqa: BLE001 - the pass is lost, counted
        verifier.failed += len(order)
        raise BenchmarkError(
            f"serve pass failed: {type(exc).__name__}: {exc}") from exc
    verifier.failed += len(order) - len(result.samples)
    if result.failures:
        log(f"serve pass: {len(result.failures)} job(s) failed, first: "
            f"{first_failure(result)}")

    from repro.serve.protocol import signature_json

    _times, reference = verifier.run_pass(SERVE_KEYS)
    expected = {key: signature_json(r.signature())
                for key, r in reference.items()}
    samples = []
    for sample in result.samples:
        snap_result = sample.snapshot["result"]
        problems = mismatches(verifier.key[key_id(*sample.key)],
                              snap_result["ok"], snap_result["signature"])
        if sample.key not in expected:
            problems.append("no in-process reference")
        elif snap_result["signature"] != expected[sample.key]:
            problems.append("signature differs from in-process")
        if problems:
            verifier.fail(sample.key, "; ".join(problems))
            continue
        samples.append(sample)
    if not samples:
        raise BenchmarkError("no serve job succeeded")
    log(f"serve pass: {len(samples)} job(s), scaled wall "
        f"{sum(s.latency_s for s in samples):.3f} s")
    return serve_layer_metrics(samples)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"no program sources at {SRC}: run from a full checkout")
        return 2
    if args.setup_probe:
        keys = WORKLOADS[args.setup_probe]
        _objects, seconds, _raw, _kernel = calibrate.timed(
            lambda: setup(keys))
        print(repr(seconds))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = args.workload
    keys = WORKLOADS[workload]
    catalog, verify_program = setup(keys)
    verifier = Verifier(catalog, verify_program, load())

    metrics = run_inprocess(verifier, keys, args.seconds, bool(args.trace),
                            workload, args.seed)
    if not args.trace:
        metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MiB")
        setups = [setup_probe(workload) for _ in range(SETUP_SAMPLES)]
        metrics["setup_s"] = metric(median(setups), "s")
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        log(f"benchmark error: {exc}")
        sys.exit(1)
