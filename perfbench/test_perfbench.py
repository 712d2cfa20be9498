"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import answer_key  # noqa: E402
import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serve_mix  # noqa: E402
from stats import geomean, median, percentile  # noqa: E402


# -- statistics --------------------------------------------------------------


def test_percentile_interpolates_linearly():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(range(1, 12), 90) == 10
    assert percentile([1, 2], 90) == pytest.approx(1.9)
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 0) == 1
    assert percentile([3, 1, 2], 100) == 3
    assert median([5, 1, 3]) == 3


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_geomean_weighs_ratios_equally():
    assert geomean([1, 100]) == pytest.approx(10)
    assert geomean([2, 8]) == pytest.approx(4)
    # a 2x on the short case moves the mean as much as on the long one
    assert geomean([0.2, 20]) == pytest.approx(geomean([0.1, 40]))
    assert geomean([3.0]) == pytest.approx(3.0)


def test_geomean_rejects_bad_input():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


# -- calibration -------------------------------------------------------------


def _spin(cpu_seconds):
    end = time.process_time() + cpu_seconds
    while time.process_time() < end:
        pass
    return "done"


def test_ticker_takes_points_and_restores_the_handler(monkeypatch):
    monkeypatch.setattr(calibrate, "TICK_S", 0.02)
    previous = signal.getsignal(signal.SIGVTALRM)
    ticker = calibrate.Ticker()
    with ticker:
        _spin(0.2)
    assert len(ticker.points) >= 3
    assert all(point > 0 for point in ticker.points)
    assert ticker.spent >= sum(ticker.points)
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGVTALRM) is previous


def test_timed_scales_by_the_kernel_and_drops_the_ticker_time(monkeypatch):
    monkeypatch.setattr(calibrate, "TICK_S", 0.02)
    started = time.perf_counter()
    result, scaled, raw, kernel_s = calibrate.timed(lambda: _spin(0.2))
    elapsed = time.perf_counter() - started
    assert result == "done"
    # the ticker's kernel calls (CPU time the spin also counts) are not
    # part of the measurement
    assert 0.1 < raw < elapsed - 3 * kernel_s
    assert scaled == pytest.approx(raw * calibrate.REFERENCE_S / kernel_s)
    _result, _scaled, untimed, _k = calibrate.timed(lambda: _spin(0.05),
                                                    tick=False)
    assert untimed >= 0.05


# -- seeds -------------------------------------------------------------------


def test_serve_order_is_a_pure_function_of_the_seed():
    first = serve_mix.job_order(run.SERVE_KEYS, 7)
    assert first == serve_mix.job_order(run.SERVE_KEYS, 7)
    assert first != serve_mix.job_order(run.SERVE_KEYS, 8)
    assert len(first) == 64
    assert sum(cold for _key, cold in first) == 16
    seen = set()
    for key, cold in first:
        # a key's first submission, and only that one, is cold
        assert cold == (key not in seen)
        seen.add(key)
    assert seen == set(run.SERVE_KEYS)


def test_workloads_match_their_definition():
    from repro.cli import case_catalog

    keys = set(answer_key.catalog_keys(case_catalog()))
    assert len(keys) == 25
    assert len(set(run.CHECK_BOUND)) == len(run.CHECK_BOUND) == 15
    assert len(set(run.EXPLORE_BOUND)) == len(run.EXPLORE_BOUND) == 6
    assert len(set(run.SERVE_KEYS)) == len(run.SERVE_KEYS) == 16
    assert not set(run.CHECK_BOUND) & set(run.EXPLORE_BOUND)
    assert set(run.WORKLOADS) == {"check-bound", "explore-bound"}
    for workload in (*run.WORKLOADS.values(), run.SERVE_KEYS):
        assert set(workload) <= keys


# -- answer key --------------------------------------------------------------


def _committed():
    with open(answer_key.KEY_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_committed_key_loads_and_covers_every_verification():
    from repro.cli import case_catalog

    entries = answer_key.load()
    catalog = case_catalog()
    assert set(entries) == {answer_key.key_id(*k)
                            for k in answer_key.catalog_keys(catalog)}
    for case, entry in catalog.items():
        assert entries[case]["ok"] is True
        if entry.has_mutant:
            assert entries[f"{case} --mutant"]["ok"] is False


@pytest.mark.parametrize("tamper, message", [
    (lambda v: v["db_update --mutant"].update(
        ok=True, failed_restrictions=[]), "mutant must fail"),
    (lambda v: v["objects-queue"].update(
        ok=False, failed_restrictions=["linearizable-queue"]),
     "must verify"),
    (lambda v: v["db_update"].update(failed_restrictions=["x"]),
     "ok disagrees"),
    (lambda v: v["objects-lock"].pop("distinct_computations"), "fields"),
])
def test_loader_rejects_a_key_that_breaks_the_known_answers(
        tmp_path, tamper, message):
    data = _committed()
    tamper(data["verifications"])
    path = tmp_path / "key.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=message):
        answer_key.load(str(path))


def test_outcome_reads_a_signature_in_either_form():
    signature = ("P", True, 5, 0, 0, 3,
                 (("a", True, ()), ("b", False, (1, 4))), (), (2,))
    as_json = json.loads(json.dumps(signature))
    expected = {"ok": False, "failed_restrictions": ["b"],
                "legality_failures": 1, "program_spec_failures": 0,
                "distinct_computations": 3}
    assert answer_key.outcome(False, signature) == expected
    assert answer_key.outcome(False, as_json) == expected
    assert answer_key.mismatches(expected, False, signature) == []
    wrong = dict(expected, distinct_computations=4)
    assert answer_key.mismatches(wrong, False, as_json) == [
        "distinct_computations: expected 4, got 3"]


# -- wrapper bindings --------------------------------------------------------


def _verify(tracer, case="csp-one-slot-buffer"):
    from repro.cli import case_catalog
    from repro.verify import verify_program

    program, spec, corr, pspec = case_catalog()[case].factory(False)
    return tracer.root(verify_program, program, spec, corr,
                       program_spec=pspec, jobs=1)


def _binding(module, path):
    owner, attr = layers._resolve(module, path)
    return layers._lookup(owner, attr)


def test_install_wraps_every_binding_and_uninstall_restores_it():
    before = {(m, p): _binding(m, p) for _l, m, p, _h in layers.TARGETS}
    tracer = layers.LayerTracer()
    with tracer:
        for (module, path), original in before.items():
            wrapped = _binding(module, path)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        tracer.check_bindings()
    assert {(m, p): _binding(m, p)
            for _l, m, p, _h in layers.TARGETS} == before


def test_check_bindings_fails_loudly_on_a_rebound_name():
    import repro.engine.pool as pool

    tracer = layers.LayerTracer()
    with tracer:
        original = pool.project.__wrapped__
        pool.project = original
        with pytest.raises(layers.BindingError, match="project was rebound"):
            tracer.check_bindings()
        # and the layer it hides reads as uncalled, not as 0 s
        _verify(tracer)
        assert "verify.projection.project" in layers.uncalled(
            tracer.summary())
    assert pool.project is original


def test_install_refuses_a_binding_that_is_not_the_layer_function(
        monkeypatch):
    import repro.engine.pool as pool

    monkeypatch.setattr(pool, "project", lambda *a, **k: None)
    with pytest.raises(layers.BindingError, match="not to the"):
        layers.LayerTracer().install()


def test_traced_verification_attributes_its_wall():
    tracer = layers.LayerTracer()
    with tracer:
        report = _verify(tracer, "monitor-bounded-buffer")
    summary = tracer.summary()
    wall = tracer.root_wall()
    assert report.ok
    # self times partition the root's wall: layers plus the root's own
    total = sum(s for name, (s, _c) in summary.items()
                if name != layers.DECIDE)
    assert math.isclose(total, wall, rel_tol=1e-9)
    assert 0.5 < layers.covered_frac(summary, wall) <= 1.0
    # the provenance ledger: buckets sum to the decisions made
    buckets = sum(summary.get(b, (0, 0))[1]
                  for b in layers.PROVENANCE.values())
    assert buckets == summary[layers.DECIDE][1] > 0
    stats = report.engine_stats
    assert summary.get("decide.walk", (0, 0))[1] == stats.slice_fallbacks
    assert tracer.replay_steps > 0
    for layer in ("core.legality.check", "core.compile.bind",
                  "sim.scheduler.replay", "core.computation.build",
                  "verify.projection.project",
                  "engine.dedupe.fingerprint"):
        assert summary[layer][1] > 0, layer
