"""The benchmark's answer key: the expected outcome of every catalog
verification, derived once on the reference path.

The key is independent of the fast paths the benchmark times: it comes
from ``temporal_mode="lattice"`` (the reference interpreter, no
compiled kernels), ``slice=False`` and ``dfa=False``.  POR stays on,
because it preserves fingerprint sets and verdicts, and turning it off
would multiply the tally-mesa exploration.

Regenerate (slow: minutes) from the repository root with::

    python3 perfbench/answer_key.py --write

which rewrites ``perfbench/answer_key.json``.  :func:`load` rejects a
key that breaks the known answers: every correct variant verifies and
every negative control (``has_mutant``) fails.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

KEY_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "answer_key.json")

#: a verification is a (catalog case, mutant) pair
Key = Tuple[str, bool]

#: the fields a verdict is compared on
FIELDS = ("ok", "failed_restrictions", "legality_failures",
          "program_spec_failures", "distinct_computations")


def key_id(case: str, mutant: bool) -> str:
    return f"{case}{' --mutant' if mutant else ''}"


def catalog_keys(catalog) -> List[Key]:
    """All 25 verifications, in catalog order: each case, then its
    negative control when the case has one."""
    keys: List[Key] = []
    for name, entry in catalog.items():
        keys.append((name, False))
        if entry.has_mutant:
            keys.append((name, True))
    return keys


def outcome(ok: bool, signature) -> Dict[str, object]:
    """The comparable outcome of a verification: its ``ok`` flag and
    its report signature (``VerificationReport.signature()``, as a tuple
    or as the daemon's JSON lists)."""
    (_problem, _exhaustive, _runs, _deadlocks, _truncated, distinct,
     verdicts, program_spec_failures, legality_failures) = signature
    return {
        "ok": bool(ok),
        "failed_restrictions": sorted(
            name for name, holds, _failing in verdicts if not holds),
        "legality_failures": len(legality_failures),
        "program_spec_failures": len(program_spec_failures),
        "distinct_computations": int(distinct),
    }


def mismatches(expected: Dict[str, object], ok: bool,
               signature) -> List[str]:
    """Field-by-field differences between a verdict and its key entry."""
    got = outcome(ok, signature)
    return [f"{name}: expected {expected[name]!r}, got {got[name]!r}"
            for name in FIELDS if got[name] != expected[name]]


def load(path: str = KEY_PATH) -> Dict[str, Dict[str, object]]:
    """Read and validate the committed key.

    Raises ``ValueError`` on a malformed entry or when an entry breaks
    the known answers (correct variants verify, mutants fail).
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    entries = data.get("verifications")
    if not isinstance(entries, dict) or not entries:
        raise ValueError(f"{path}: no verifications")
    for ident, entry in entries.items():
        if set(entry) != set(FIELDS):
            raise ValueError(f"{path}: {ident}: fields {sorted(entry)}")
        mutant = ident.endswith(" --mutant")
        if entry["ok"] == mutant:
            raise ValueError(
                f"{path}: {ident}: ok={entry['ok']} contradicts the known "
                f"answer ({'mutant must fail' if mutant else 'must verify'})")
        if entry["ok"] != (not entry["failed_restrictions"]
                           and not entry["legality_failures"]
                           and not entry["program_spec_failures"]):
            raise ValueError(f"{path}: {ident}: ok disagrees with failures")
        if entry["distinct_computations"] < 1:
            raise ValueError(f"{path}: {ident}: no computations")
    return entries


def derive(catalog, verify_program) -> Dict[str, Dict[str, object]]:
    """Run every verification on the reference path."""
    entries = {}
    for case, mutant in catalog_keys(catalog):
        program, spec, corr, pspec = catalog[case].factory(mutant)
        report = verify_program(program, spec, corr, program_spec=pspec,
                                jobs=1, temporal_mode="lattice",
                                slice=False, dfa=False)
        entries[key_id(case, mutant)] = outcome(report.ok,
                                                report.signature())
        print(f"{key_id(case, mutant)}: {entries[key_id(case, mutant)]}",
              file=sys.stderr, flush=True)
    return entries


def main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print("usage: python3 perfbench/answer_key.py --write",
              file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.cli import case_catalog
    from repro.verify import verify_program

    entries = derive(case_catalog(), verify_program)
    with open(KEY_PATH, "w", encoding="utf-8") as handle:
        json.dump({"derived_with": {"temporal_mode": "lattice",
                                    "slice": False, "dfa": False,
                                    "por": True, "jobs": 1},
                   "verifications": entries}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    load()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
