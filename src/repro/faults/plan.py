"""Declarative, seeded fault plans.

A :class:`FaultPlan` describes *what can go wrong* during a run as a set
of per-subsystem fault models, each a frozen dataclass of probabilities
and magnitudes.  Plans are pure data: the :class:`~repro.faults.injector.
FaultInjector` owns the seeded RNG that turns a plan into a concrete,
reproducible fault sequence -- the same plan and seed always injects the
same faults at the same ticks.

Plans round-trip through plain dicts (:meth:`FaultPlan.from_dict` /
:meth:`FaultPlan.to_dict`) and load from JSON -- or YAML when PyYAML is
installed -- via :func:`load_fault_plan`, which backs the CLI's
``--faults SPEC`` flag.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from repro.errors import FaultPlanError


def _check_probability(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
        raise FaultPlanError(f"{name} must be a probability in [0, 1], got {value!r}")


def _check_non_negative(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or float(value) < 0.0:
        raise FaultPlanError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class SampleFaults:
    """Counter-sampling fault model (the paper's monitoring driver path).

    Each probability is evaluated independently per 10 ms sample; at
    most one fault fires per sample, in the declared priority order
    ``drop > duplicate > garble > overflow``.
    """

    #: The PMU read is lost; the wrapped sampler raises ``SampleDropped``.
    drop_prob: float = 0.0
    #: The previous sample is returned again (stale driver buffer).
    duplicate_prob: float = 0.0
    #: Rates are corrupted by a large random factor (bus glitch).
    garble_prob: float = 0.0
    #: Log10 span of the multiplicative garble factor.
    garble_magnitude: float = 3.0
    #: A 40-bit wraparound artifact inflates the rates absurdly.
    overflow_prob: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("sample.drop_prob", self.drop_prob)
        _check_probability("sample.duplicate_prob", self.duplicate_prob)
        _check_probability("sample.garble_prob", self.garble_prob)
        _check_probability("sample.overflow_prob", self.overflow_prob)
        _check_non_negative("sample.garble_magnitude", self.garble_magnitude)

    @property
    def any_enabled(self) -> bool:
        """True when any sampling fault can fire."""
        return (
            self.drop_prob > 0
            or self.duplicate_prob > 0
            or self.garble_prob > 0
            or self.overflow_prob > 0
        )


@dataclass(frozen=True)
class MeterFaults:
    """Power-meter fault model (the sense-resistor/DAQ rig path).

    Dropout and spikes are *transient* faults the resilience filter
    absorbs; gain drift is a *persistent* fault -- a sense-resistor /
    ADC calibration slowly walking away from truth -- that only online
    model adaptation can compensate.  Drift is deterministic (no
    randomness consumed), so enabling it never perturbs the dropout /
    spike sequences of an existing plan.
    """

    #: A 10 ms power sample reads zero (dead channel / dropped DAQ frame).
    dropout_prob: float = 0.0
    #: A sample is multiplied by a large spike factor (EMI burst).
    spike_prob: float = 0.0
    #: Upper bound of the uniform spike factor (lower bound is 2x).
    spike_factor: float = 6.0
    #: Fractional gain error added per simulated second once drift
    #: starts (0.01 = the meter reads 1% higher per second).
    drift_rate_per_s: float = 0.0
    #: Simulated time at which the gain starts drifting.
    drift_start_s: float = 0.0
    #: Cap on the total gain error (0.5 = readings at most 1.5x truth).
    drift_max_gain: float = 0.5

    def __post_init__(self) -> None:
        _check_probability("meter.dropout_prob", self.dropout_prob)
        _check_probability("meter.spike_prob", self.spike_prob)
        if self.spike_factor < 2.0:
            raise FaultPlanError(
                f"meter.spike_factor must be >= 2, got {self.spike_factor!r}"
            )
        _check_non_negative("meter.drift_rate_per_s", self.drift_rate_per_s)
        _check_non_negative("meter.drift_start_s", self.drift_start_s)
        _check_non_negative("meter.drift_max_gain", self.drift_max_gain)

    @property
    def any_enabled(self) -> bool:
        """True when any meter fault can fire."""
        return (
            self.dropout_prob > 0
            or self.spike_prob > 0
            or self.drift_enabled
        )

    @property
    def drift_enabled(self) -> bool:
        """True when the gain-drift model is active."""
        return self.drift_rate_per_s > 0 and self.drift_max_gain > 0

    def drift_gain(self, time_s: float) -> float:
        """The multiplicative gain error applied at ``time_s``."""
        if not self.drift_enabled or time_s <= self.drift_start_s:
            return 1.0
        excess = self.drift_rate_per_s * (time_s - self.drift_start_s)
        return 1.0 + min(excess, self.drift_max_gain)


@dataclass(frozen=True)
class TransitionFaults:
    """SpeedStep/DVFS actuation fault model."""

    #: A requested transition fails outright (``InjectedTransitionError``).
    fail_prob: float = 0.0
    #: A transition succeeds but stalls the core for ``stall_s`` extra.
    stall_prob: float = 0.0
    #: Extra dead time charged by a stalled transition.
    stall_s: float = 0.002

    def __post_init__(self) -> None:
        _check_probability("transition.fail_prob", self.fail_prob)
        _check_probability("transition.stall_prob", self.stall_prob)
        _check_non_negative("transition.stall_s", self.stall_s)

    @property
    def any_enabled(self) -> bool:
        """True when any actuation fault can fire."""
        return self.fail_prob > 0 or self.stall_prob > 0


@dataclass(frozen=True)
class ThermalFaults:
    """Thermal-sensor fault model: the reading freezes at its last value."""

    #: Per-observation probability a new stuck episode begins.
    stuck_prob: float = 0.0
    #: Length of a stuck episode in simulated seconds.
    stuck_duration_s: float = 0.5

    def __post_init__(self) -> None:
        _check_probability("thermal.stuck_prob", self.stuck_prob)
        _check_non_negative("thermal.stuck_duration_s", self.stuck_duration_s)

    @property
    def any_enabled(self) -> bool:
        """True when stuck-sensor episodes can fire."""
        return self.stuck_prob > 0


_SECTION_TYPES = {
    "sample": SampleFaults,
    "meter": MeterFaults,
    "transition": TransitionFaults,
    "thermal": ThermalFaults,
}


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of the faults a run may suffer.

    ``enabled=False`` turns the whole plan into a guaranteed no-op: the
    injector installs no wrappers and consumes no randomness, so a run
    with a disabled plan is bit-for-bit identical to a run with no plan
    at all (the property the acceptance tests pin down).
    """

    seed: int = 0
    enabled: bool = True
    sample: SampleFaults = field(default_factory=SampleFaults)
    meter: MeterFaults = field(default_factory=MeterFaults)
    transition: TransitionFaults = field(default_factory=TransitionFaults)
    thermal: ThermalFaults = field(default_factory=ThermalFaults)

    @property
    def active(self) -> bool:
        """True when the plan is enabled and at least one model can fire."""
        return self.enabled and (
            self.sample.any_enabled
            or self.meter.any_enabled
            or self.transition.any_enabled
            or self.thermal.any_enabled
        )

    def to_dict(self) -> dict:
        """JSON-safe dict form (the ``--faults`` file schema)."""
        out: dict = {"seed": self.seed, "enabled": self.enabled}
        for name, section_type in _SECTION_TYPES.items():
            section = getattr(self, name)
            if section != section_type():
                out[name] = dataclasses.asdict(section)
        return out

    @classmethod
    def from_dict(cls, data: object) -> "FaultPlan":
        """Build a plan from the ``--faults`` dict schema, validating keys."""
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be a mapping, got {type(data).__name__}"
            )
        known = {"seed", "enabled", *_SECTION_TYPES}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan keys: {', '.join(unknown)} "
                f"(expected some of: {', '.join(sorted(known))})"
            )
        kwargs: dict = {}
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FaultPlanError(f"seed must be an integer, got {seed!r}")
        kwargs["seed"] = seed
        enabled = data.get("enabled", True)
        if not isinstance(enabled, bool):
            raise FaultPlanError(f"enabled must be a boolean, got {enabled!r}")
        kwargs["enabled"] = enabled
        for name, section_type in _SECTION_TYPES.items():
            if name not in data:
                continue
            section = data[name]
            if not isinstance(section, dict):
                raise FaultPlanError(f"{name} section must be a mapping")
            valid = {f.name for f in dataclasses.fields(section_type)}
            bad = sorted(set(section) - valid)
            if bad:
                raise FaultPlanError(
                    f"unknown {name} fault keys: {', '.join(bad)} "
                    f"(expected some of: {', '.join(sorted(valid))})"
                )
            try:
                kwargs[name] = section_type(**section)
            except TypeError as error:
                raise FaultPlanError(f"bad {name} section: {error}") from None
        return cls(**kwargs)


def load_fault_plan(path: str | os.PathLike) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON (or YAML) spec file.

    YAML is accepted when PyYAML happens to be installed; JSON always
    works, so plans stay loadable on the minimal dependency set.
    """
    path = os.fspath(path)
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise FaultPlanError(f"cannot read fault spec {path}: {error}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as json_error:
        try:
            import yaml  # type: ignore[import-not-found]
        except ImportError:
            raise FaultPlanError(
                f"{path} is not valid JSON ({json_error}); install PyYAML "
                "for YAML fault specs"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as yaml_error:
            raise FaultPlanError(
                f"{path} is neither valid JSON nor YAML ({yaml_error})"
            ) from None
    return FaultPlan.from_dict(data)
