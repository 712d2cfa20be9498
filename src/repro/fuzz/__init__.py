"""Generative differential testing for the GEM reproduction.

A standing adversary for the rest of the library: seeded random
computations, specifications, and programs (:mod:`.generators`,
:mod:`.programs`) are run against metamorphic and differential oracles
(:mod:`.oracles`) -- the strict-partial-order laws of ``⇒``, the
history-lattice laws of Section 7, fingerprint relabeling invariance,
composition/projection round-trips, lattice-vs-exact checker agreement,
compiled and slice-routed checker agreement, replay determinism
(stateful exploration against a replay-every-node reference), and
the engine's serial == parallel == cached contract.  Failures are greedily shrunk and rendered as runnable pytest
snippets (:mod:`.shrink`); :mod:`.runner` drives the loop behind the
``repro fuzz`` CLI subcommand.

See docs/FUZZING.md for the oracle catalog and replay instructions.
"""

from .generators import (
    ComputationRecipe,
    GroupRecipe,
    random_choices,
    random_computation,
    random_formula,
)
from .oracles import (
    CheckerArtifact,
    ComposeArtifact,
    Oracle,
    ReplayArtifact,
    check_compiled_agrees,
    check_compose_laws,
    check_dfa_agrees,
    check_engine_agreement,
    check_explore_agrees,
    check_fingerprint_laws,
    check_history_laws,
    check_modes_agree,
    check_order_laws,
    check_replay_determinism,
    check_slice_agrees,
    identity_correspondence,
    make_oracles,
    monitor_factory_for,
    oracle_names,
    reference_explore,
)
from .programs import (
    FORK_DROPS_ENABLES,
    FuzzProgram,
    FuzzProgramSpec,
    RecipeProgram,
    dfa_problem_spec,
    fuzz_correspondence,
    fuzz_problem_spec,
    random_program_spec,
)
from .runner import FuzzConfig, FuzzFailure, FuzzStats, run_fuzz, seed_token
from .shrink import repro_snippet, shrink_failure

__all__ = [
    "ComputationRecipe", "GroupRecipe", "random_computation",
    "random_formula", "random_choices",
    "Oracle", "make_oracles", "oracle_names",
    "CheckerArtifact", "ComposeArtifact", "ReplayArtifact",
    "check_order_laws", "check_history_laws", "check_fingerprint_laws",
    "check_compiled_agrees", "check_compose_laws", "check_modes_agree",
    "check_replay_determinism", "check_slice_agrees",
    "check_dfa_agrees", "check_explore_agrees", "reference_explore",
    "monitor_factory_for",
    "check_engine_agreement", "identity_correspondence",
    "FuzzProgram", "FuzzProgramSpec", "RecipeProgram",
    "FORK_DROPS_ENABLES", "fuzz_problem_spec", "fuzz_correspondence",
    "dfa_problem_spec",
    "random_program_spec",
    "FuzzConfig", "FuzzFailure", "FuzzStats", "run_fuzz", "seed_token",
    "shrink_failure", "repro_snippet",
]
