"""Unit tests for the simulation substrate (runtime + scheduler)."""

import pytest

from repro.core import ComputationBuilder
from repro.core.errors import VerificationError
from repro.problems.ring import RingProgram
from repro.sim import (
    Action,
    ExplorationResult,
    Run,
    SimpleState,
    explore,
    explore_or_sample,
    run_random,
    sample_runs,
)


class CounterState(SimpleState):
    """N processes, each taking `steps` independent steps."""

    def __init__(self, n_procs: int, steps: int, deadlock_after=None):
        super().__init__()
        self.remaining = {f"p{i}": steps for i in range(n_procs)}
        self.deadlock_after = deadlock_after
        self.total = 0

    def enabled(self):
        if self.deadlock_after is not None and self.total >= self.deadlock_after:
            return []
        return [
            Action(name, f"step({left})", ("step", name))
            for name, left in self.remaining.items() if left > 0
        ]

    def step(self, action):
        _kind, name = action.key
        self.emit(name, name, "Tick", {"k": self.remaining[name]})
        self.remaining[name] -= 1
        self.total += 1

    def is_final(self):
        return all(v == 0 for v in self.remaining.values())


class CounterProgram:
    def __init__(self, n_procs=2, steps=2, deadlock_after=None):
        self.n_procs = n_procs
        self.steps = steps
        self.deadlock_after = deadlock_after

    def initial_state(self):
        return CounterState(self.n_procs, self.steps, self.deadlock_after)


class TestSimpleState:
    def test_emit_chains_per_process(self):
        s = CounterState(1, 3)
        while s.enabled():
            s.step(s.enabled()[0])
        comp = s.computation()
        evs = comp.events_at("p0")
        assert comp.enables(evs[0].eid, evs[1].eid)
        assert comp.enables(evs[1].eid, evs[2].eid)

    def test_emit_extra_enables_and_no_chain(self):
        s = SimpleState()
        a = s.emit("P", "A", "X")
        b = s.emit("Q", "B", "Y", extra_enables=[a])
        c = s.emit("Q", "B", "Y", chain=False)
        comp = s.computation()
        assert comp.enables(a.eid, b.eid)
        assert not comp.enables(b.eid, c.eid)  # chain suppressed

    def test_last_event_of(self):
        s = SimpleState()
        assert s.last_event_of("P") is None
        ev = s.emit("P", "A", "X")
        assert s.last_event_of("P") == ev


class TestExplore:
    def test_counts_interleavings(self):
        # 2 procs x 2 steps: C(4,2) = 6 interleavings
        runs = list(explore(CounterProgram(2, 2)))
        assert len(runs) == 6
        assert all(r.completed for r in runs)
        assert all(len(r.computation) == 4 for r in runs)

    def test_all_runs_same_partial_order(self):
        # independent processes: all interleavings give the same order
        fps = {r.computation.fingerprint()
               for r in explore(CounterProgram(2, 2))}
        assert len(fps) == 1

    def test_deadlock_detected(self):
        runs = list(explore(CounterProgram(2, 2, deadlock_after=1)))
        assert runs
        assert all(r.deadlocked for r in runs)
        assert not any(r.completed for r in runs)

    def test_truncation_flagged(self):
        runs = list(explore(CounterProgram(1, 5), max_steps=2))
        assert all(r.truncated for r in runs)
        assert all(r.blocked for r in runs)

    def test_run_cap_raises(self):
        with pytest.raises(VerificationError, match="runs"):
            list(explore(CounterProgram(3, 3), max_runs=5))

    def test_zero_steps_rejected(self):
        with pytest.raises(VerificationError):
            list(explore(CounterProgram(), max_steps=0))

    def test_run_describe(self):
        (run,) = explore(CounterProgram(1, 1))
        assert "completed" in run.describe()
        assert "1 steps" in run.describe()

    def test_deep_run_does_not_recurse(self):
        # 2,000 steps is far past Python's recursion limit but well
        # inside DEFAULT_MAX_STEPS; the DFS keeps its path on a stack
        program = RingProgram(workers=1, rounds=2000)
        (run,) = explore(program)
        assert run.completed and len(run.choices) == 2000
        walk = run_random(program, seed=0)
        assert run.choices == walk.choices
        assert (run.computation.stable_fingerprint()
                == walk.computation.stable_fingerprint())

    def test_deep_run_truncates_at_max_steps(self):
        (run,) = explore(RingProgram(workers=1, rounds=2000),
                         max_steps=1500)
        assert run.truncated and len(run.choices) == 1500
        assert run.blocked


class TestRandomRuns:
    def test_deterministic_per_seed(self):
        a = run_random(CounterProgram(2, 3), seed=7)
        b = run_random(CounterProgram(2, 3), seed=7)
        assert a.choices == b.choices

    def test_different_seeds_vary(self):
        seeds = {run_random(CounterProgram(3, 3), seed=s).choices
                 for s in range(10)}
        assert len(seeds) > 1

    def test_sample_runs_count_and_seeding(self):
        runs = sample_runs(CounterProgram(2, 2), 5, seed=3)
        assert len(runs) == 5
        again = sample_runs(CounterProgram(2, 2), 5, seed=3)
        assert [r.choices for r in runs] == [r.choices for r in again]

    def test_random_deadlock_detected(self):
        run = run_random(CounterProgram(2, 2, deadlock_after=1), seed=0)
        assert run.deadlocked


class TestExploreOrSample:
    def test_exhaustive_within_cap(self):
        result = explore_or_sample(CounterProgram(2, 2), max_runs=100)
        assert result.exhaustive
        assert len(result.runs) == 6
        assert "exhaustive" in result.describe()

    def test_falls_back_to_sampling(self):
        result = explore_or_sample(CounterProgram(3, 3), max_runs=5,
                                   sample=7, seed=1)
        assert not result.exhaustive
        assert len(result.runs) == 7
        assert "sampled" in result.describe()

    def test_sampling_reports_seed_provenance(self):
        """Regression: the sampling fallback must say which seeds it used
        (sample_runs assigns seed..seed+n-1), so individual runs can be
        replayed with run_random(program, seed)."""
        result = explore_or_sample(CounterProgram(3, 3), max_runs=5,
                                   sample=7, seed=11)
        assert result.sample_seed == 11
        assert result.sample_count == 7
        assert "seeds 11..17" in result.describe()
        # the provenance is honest: seed 11 really is the first sampled run
        assert result.runs[0].choices == run_random(
            CounterProgram(3, 3), 11).choices

    def test_exhaustive_results_omit_seed_provenance(self):
        result = explore_or_sample(CounterProgram(2, 2), max_runs=100)
        assert result.sample_seed is None
        assert "seeds" not in result.describe()

    def test_partitions(self):
        result = ExplorationResult(runs=[
            Run(ComputationBuilder().freeze(), ()),
            Run(ComputationBuilder().freeze(), (), deadlocked=True),
            Run(ComputationBuilder().freeze(), (), truncated=True),
        ])
        assert len(result.completed_runs) == 1
        assert len(result.deadlocked_runs) == 1
        assert len(result.truncated_runs) == 1


# -- stateful exploration == the replay-every-node reference ---------------

#: left out of the tier-1 diff: without partial-order reduction, and
#: on the reference side, these take tens of seconds to minutes each
_HEAVY = ("monitor-readers-writers", "csp-readers-writers",
          "ada-readers-writers", "monitor-tally-mesa")


def _light_catalog_keys():
    from repro.cli import _NO_MUTANT, _build_cases

    return [(name, mutant) for name in sorted(_build_cases())
            if name not in _HEAVY
            for mutant in (False, True)
            if not (mutant and name in _NO_MUTANT)]


@pytest.mark.parametrize("name,mutant", _light_catalog_keys())
def test_explore_matches_reference_on_catalog(name, mutant):
    # same run sequence, field by field, with POR off, on, and the
    # automaton monitor on; every run replays to its own computation
    from repro.cli import _build_cases
    from repro.fuzz import check_explore_agrees, monitor_factory_for

    program, problem_spec, correspondence, _ = _build_cases()[name](mutant)
    assert check_explore_agrees(
        program, max_steps=10_000, max_runs=200_000,
        monitor_factory=monitor_factory_for(problem_spec,
                                            correspondence)) is None


def test_explore_bench_row_counts_saved_steps():
    # the gated bench row's work counts are deterministic: pin them
    from repro.bench import EXPLORE_GATE_MIN, run_explore_bench

    row = run_explore_bench()["explore:csp-rw-mutant"]
    assert (row["reference_steps"], row["stateful_steps"]) == (48246, 3960)
    assert row["runs"] == 132
    assert row["speedup"] >= EXPLORE_GATE_MIN
