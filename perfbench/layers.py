"""Per-layer attribution for the traced benchmark run.

:class:`LayerTracer` wraps the functions at each layer boundary of a
verification, at the binding its caller actually looks up (a name
imported into the calling module, a module global, or a method on the
class), and records one span per call: name, start, end and parent.
Spans stay in memory until the run ends; :meth:`LayerTracer.summary`
then derives each layer's exclusive self time (its duration minus the
part its child spans cover) and call count.

The benchmark's own ``verify`` root span encloses each verification, so
the root's self time is exactly the wall time no layer accounts for.
Nothing in ``src/`` is edited; :meth:`LayerTracer.uninstall` restores
every original binding.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Tuple

ROOT = "verify"

#: restriction-decision provenance (``RestrictionOutcome.provenance``)
#: -> the ledger bucket it is counted in; "" is a non-temporal verdict
#: decided at the complete computation
PROVENANCE = {
    "": "decide.static",
    "slice": "decide.slice",
    "walk": "decide.walk",
    "dfa": "decide.dfa",
    "dfa-early": "decide.dfa_early",
}
DECIDE = "core.checker.decide"

#: (layer, module owning the binding, attribute path, defining module)
#: -- the binding is what the caller resolves at call time; the
#: defining module is where the function lives, so install() can check
#: the binding still points at the real layer function
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.legality.check", "repro.core.checker", "check_legality",
     "repro.core.legality"),
    ("core.specification.label", "repro.core.specification",
     "Specification.label_threads", "repro.core.specification"),
    ("core.compile.bind", "repro.core.compile", "SpecPlan.bind",
     "repro.core.compile"),
    (DECIDE, "repro.core.checker", "check_restriction",
     "repro.core.checker"),
    ("core.checker.check", "repro.core.checker", "check_computation",
     "repro.core.checker"),
    ("sim.scheduler.replay", "repro.sim.scheduler", "replay_prefix",
     "repro.sim.scheduler"),
    ("sim.scheduler.replay", "repro.sim.scheduler", "replay_with_postponed",
     "repro.sim.scheduler"),
    ("sim.scheduler.replay", "repro.engine.shard", "replay_prefix",
     "repro.sim.scheduler"),
    ("sim.scheduler.replay", "repro.engine.shard", "replay_with_postponed",
     "repro.sim.scheduler"),
    ("engine.por.ample", "repro.engine.por", "AmpleSelector.ample",
     "repro.engine.por"),
    ("core.computation.build", "repro.core.computation",
     "Computation.__init__", "repro.core.computation"),
    ("core.automata.advance", "repro.core.automata",
     "AutomatonMonitor.advance", "repro.core.automata"),
    ("verify.projection.project", "repro.engine.pool", "project",
     "repro.verify.projection"),
    ("engine.dedupe.fingerprint", "repro.engine.pool", "run_fingerprint",
     "repro.engine.dedupe"),
)

#: every wrapped layer, in report order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

REPLAY = "sim.scheduler.replay"

#: the exploration-time DFA monitor builds, projects, labels and probes
#: prefixes through the same layer functions; its whole cost is its own
#: layer, and layers called inside it record nothing, so the decide
#: ledger counts exactly the checks the engine reports
OPAQUE = "core.automata.advance"


class BindingError(RuntimeError):
    """A wrapped binding is missing, foreign, or was rebound."""


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _lookup(owner: object, attr: str):
    # a class's own attribute, not one inherited from a base class
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


class LayerTracer:
    """Wraps the layer bindings and records spans while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.replay_steps = 0
        #: > 0 while inside an OPAQUE layer
        self._opaque = 0
        self._stack: List[int] = [-1]
        #: (owner, attr, original, wrapper) per installed binding
        self._installed: List[Tuple[object, str, Callable, Callable]] = []

    # -- bindings -----------------------------------------------------------

    def install(self) -> None:
        # resolve every binding before patching any: importing a caller
        # module after its callee was patched would capture a wrapper
        resolved = []
        for layer, module, path, home in TARGETS:
            owner, attr = _resolve(module, path)
            original = _lookup(owner, attr)
            if original is None or not callable(original):
                raise BindingError(f"{module}.{path}: no such function")
            if getattr(original, "__module__", None) != home:
                raise BindingError(
                    f"{module}.{path} resolves to "
                    f"{getattr(original, '__module__', None)}."
                    f"{getattr(original, '__qualname__', '?')}, not to the "
                    f"{layer} function in {home}")
            resolved.append((layer, owner, attr, original))
        # the same function imported under two bindings shares a wrapper
        wrappers: Dict[int, Callable] = {}
        for layer, owner, attr, original in resolved:
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = self._wrap(layer, original)
                wrappers[id(original)] = wrapper
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original, wrapper))
        self.check_bindings()

    def check_bindings(self) -> None:
        """Raise :class:`BindingError` unless every target still
        resolves to its wrapper."""
        for owner, attr, _original, wrapper in self._installed:
            if _lookup(owner, attr) is not wrapper:
                raise BindingError(
                    f"{getattr(owner, '__name__', owner)}.{attr} was "
                    f"rebound; its layer would read 0 s")

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        open_, close = self._open, self._close
        names = self.names
        tracer = self

        if layer == DECIDE:
            def wrapper(*args, **kwargs):
                if tracer._opaque:
                    return fn(*args, **kwargs)
                index = open_(DECIDE)
                try:
                    outcome = fn(*args, **kwargs)
                finally:
                    close(index)
                bucket = PROVENANCE.get(outcome.provenance)
                if bucket is None:
                    raise BindingError(
                        f"unknown decision provenance "
                        f"{outcome.provenance!r}: extend the ledger")
                names[index] = bucket
                return outcome
        elif layer == OPAQUE:
            def wrapper(*args, **kwargs):
                index = open_(layer)
                tracer._opaque += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._opaque -= 1
                    close(index)
        else:
            replay = layer == REPLAY

            def wrapper(*args, **kwargs):
                if tracer._opaque:
                    return fn(*args, **kwargs)
                if replay:
                    # (program, choices): the steps this replay re-executes
                    tracer.replay_steps += len(args[1])
                index = open_(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def root(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a ``verify`` root span."""
        index = self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    # -- summary ------------------------------------------------------------

    def summary(self) -> Dict[str, Tuple[float, int]]:
        """Layer (and ``decide.*`` bucket, and ``verify``) -> (self
        seconds, calls), derived from the recorded spans."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        self_s = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                self_s[parent] -= durations[index]
        out: Dict[str, Tuple[float, int]] = {}
        for name, seconds in zip(self.names, self_s):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + seconds, calls + 1)
        decided = [out[b] for b in PROVENANCE.values() if b in out]
        if decided:
            out[DECIDE] = (sum(s for s, _ in decided),
                           sum(c for _, c in decided))
        return out

    def root_wall(self) -> float:
        """Summed duration of the ``verify`` root spans."""
        return sum(end - start for name, start, end in zip(
            self.names, self.starts, self.ends) if name == ROOT)


def covered_frac(summary: Dict[str, Tuple[float, int]],
                 wall: float) -> float:
    """Share of ``wall`` spent in named layers (everything but the
    ``verify`` root's own self time)."""
    layered = sum(seconds for name, (seconds, _calls) in summary.items()
                  if name != ROOT and name != DECIDE)
    return layered / wall if wall > 0 else 0.0


def uncalled(summary: Dict[str, Tuple[float, int]]) -> List[str]:
    """Wrapped layers that saw no call (a rebound name reads 0 s)."""
    return [layer for layer in LAYERS
            if summary.get(layer, (0.0, 0))[1] == 0]
