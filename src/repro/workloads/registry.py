"""Named workload registry.

A single lookup point for every workload in the reproduction: the 26
SPEC CPU2000 models and the 12 MS-Loops microbenchmarks.  Experiments
refer to workloads by name (``"swim"``, ``"FMA-256KB"``); the registry is
validated once at construction.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import WorkloadError
from repro.workloads.base import Workload, validate_workloads
from repro.workloads.microbenchmarks import ms_loops, named_microbenchmark
from repro.workloads.spec import SPEC_FP, SPEC_INT, build_spec_suite


class WorkloadRegistry:
    """Immutable name -> :class:`Workload` mapping with group queries."""

    def __init__(self, workloads: tuple[Workload, ...]):
        validate_workloads(workloads)
        self._by_name = {w.name: w for w in workloads}

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self) -> Iterator[Workload]:
        return iter(self._by_name.values())

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> Workload:
        """Look up a workload by name, raising a helpful error if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise WorkloadError(
                f"unknown workload {name!r}; available: {sorted(self._by_name)}"
            ) from None

    @property
    def names(self) -> tuple[str, ...]:
        """All registered workload names, sorted."""
        return tuple(sorted(self._by_name))

    def spec_suite(self) -> tuple[Workload, ...]:
        """The 26 SPEC CPU2000 models, SPECint first, each in suite order."""
        return tuple(self.get(name) for name in (*SPEC_INT, *SPEC_FP))

    def microbenchmarks(self) -> tuple[Workload, ...]:
        """The 12 MS-Loops training workloads."""
        return tuple(
            w for w in self._by_name.values() if w.category == "microbenchmark"
        )

    def by_category(self, category: str) -> tuple[Workload, ...]:
        """All workloads tagged with ``category``."""
        return tuple(
            w for w in self._by_name.values() if w.category == category
        )


_default: WorkloadRegistry | None = None


def default_registry() -> WorkloadRegistry:
    """The process-wide registry (built lazily, then cached)."""
    global _default
    if _default is None:
        _default = WorkloadRegistry((*build_spec_suite(), *ms_loops()))
    return _default


def get_workload(name: str) -> Workload:
    """Convenience lookup into :func:`default_registry`; an MS-Loops name
    at a footprint it does not hold (``"MCOPY-64KB"``) is built."""
    registry = default_registry()
    if name in registry:
        return registry.get(name)
    return named_microbenchmark(name) or registry.get(name)


#: Spec prefixes :func:`resolve_workload_spec` understands beyond plain
#: registry names.
_SPEC_KINDS = ("trace", "corpus")


def is_workload_spec(spec: object) -> bool:
    """Whether ``spec`` is a ``trace:``/``corpus:`` workload spec string.

    Registry names never contain a colon, so the prefix is unambiguous.
    """
    return (
        isinstance(spec, str) and spec.partition(":")[0] in _SPEC_KINDS
    )


def resolve_workload_spec(spec: str) -> Workload:
    """Resolve a workload reference string into a :class:`Workload`.

    Three forms are accepted:

    * ``trace:PATH`` -- load the counter-trace CSV at ``PATH``, snap it
      into the platform envelope, and replay it
      (:func:`repro.workloads.traces.workload_from_trace`);
    * ``corpus:NAME`` or ``corpus:NAME@SEED`` -- generate the named
      scenario from the deterministic corpus
      (:func:`repro.traces.corpus.corpus_trace`), default seed 0;
    * anything else -- a plain registry name.

    This resolves from scratch every call; the execution engine routes
    through :func:`repro.exec.cache.spec_workload` so a sweep loads and
    inverts each trace once per process, like trained models.
    """
    kind, sep, rest = spec.partition(":")
    if not sep or kind not in _SPEC_KINDS:
        return default_registry().get(spec)
    if not rest:
        raise WorkloadError(
            f"workload spec {spec!r} is missing its argument "
            f"(expected trace:PATH or corpus:NAME[@SEED])"
        )
    # Deferred: repro.traces sits above this module in the layering.
    from repro.traces.calibrate import calibrate_trace
    from repro.workloads.traces import CounterTrace, workload_from_trace

    if kind == "trace":
        trace = CounterTrace.from_path(rest)
        calibrated, _report = calibrate_trace(trace)
        return workload_from_trace(calibrated)
    name, at, seed_text = rest.partition("@")
    seed = 0
    if at:
        try:
            seed = int(seed_text)
        except ValueError:
            raise WorkloadError(
                f"corpus spec {spec!r} has a non-integer seed "
                f"{seed_text!r}"
            ) from None
    from repro.traces.corpus import corpus_trace

    return workload_from_trace(corpus_trace(name, seed))
