"""Exception hierarchy for the repro package.

All exceptions raised by this package derive from :class:`ReproError` so
that callers can catch package-level failures with a single except clause
while still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class PStateError(ReproError):
    """Raised for invalid p-state lookups or malformed p-state tables."""


class DriverError(ReproError):
    """Raised by the simulated low-level driver layer (MSR/PMU/SpeedStep)."""


class MSRError(DriverError):
    """Raised on access to an unmapped or read-only model-specific register."""


class PMUError(DriverError):
    """Raised on invalid performance-monitoring-unit configuration.

    The simulated Pentium M PMU has exactly two programmable counters;
    attempting to program a third, or selecting an unknown event, raises
    this error -- mirroring how a real driver would reject the request.
    """


class TransitionError(DriverError):
    """Raised when a DVFS p-state transition request is invalid or fails."""


class WorkloadError(ReproError):
    """Raised for malformed workload definitions (empty phases, bad rates)."""


class ModelError(ReproError):
    """Raised by the online power/performance models for invalid inputs."""


class TrainingError(ModelError):
    """Raised when model training is given an unusable training set."""


class GovernorError(ReproError):
    """Raised for invalid governor configuration (e.g. unachievable limits)."""


class AdaptationError(ReproError):
    """Raised by the online model-adaptation subsystem
    (:mod:`repro.adaptation`) for invalid estimator/detector/registry
    configuration or misuse (e.g. rolling back with no prior version)."""


class MeasurementError(ReproError):
    """Raised by the simulated power-measurement rig."""


class ExperimentError(ReproError):
    """Raised by experiment drivers for inconsistent configurations."""


class PlanError(ExperimentError):
    """Raised for a malformed :class:`repro.exec.plan.RunPlan` -- e.g. an
    unknown sweep axis, a non-positive thread count, or a cell that asks
    for features the multicore execution path does not support."""


class CampaignError(ExperimentError):
    """Raised by the resilient campaign engine (:mod:`repro.campaign`)
    for unusable result stores (foreign directories, format-version
    mismatches) or campaign configurations that cannot dispatch."""


class TelemetryError(ReproError):
    """Raised for invalid telemetry configuration (bad buckets, unknown
    metric types, malformed export directories)."""


class FaultError(ReproError):
    """Base class for the fault-injection subsystem (:mod:`repro.faults`).

    Subclasses are either *plan* errors (a malformed fault specification)
    or *injected-fault signals* -- exceptions the injector raises through
    a wrapped driver/sampler interface to emulate a hardware failure.
    Hardened consumers catch the signals; an unhardened consumer sees
    exactly what it would see on the real rig: a crash.
    """


class FaultPlanError(FaultError):
    """Raised for a malformed or inconsistent fault plan / ``--faults`` spec."""


class SensorFault(FaultError):
    """An injected sensor-path failure (counter or meter read failed)."""


class SampleDropped(SensorFault):
    """An injected dropped counter sample: the 10 ms PMU read was lost."""


class InjectedTransitionError(TransitionError, FaultError):
    """An injected p-state transition failure.

    Derives from :class:`TransitionError` so existing driver-level
    handling applies, and from :class:`FaultError` so tests and reports
    can tell injected failures from genuine ones.
    """


class RecoveryError(ReproError):
    """Base class for the fault-*tolerance* (recovery) layer."""


class ResilienceError(RecoveryError):
    """Raised for invalid resilience configuration (bad retry/watchdog knobs)."""


class WatchdogError(RecoveryError):
    """Raised when the sampler watchdog trips and degradation is disabled."""


class RecoveryExhaustedError(RecoveryError):
    """Raised when every recovery path (retries, then the fail-safe
    p-state) has been exhausted and the loop cannot continue safely."""


class CheckpointError(ReproError):
    """Raised by the durability layer (:mod:`repro.checkpoint`) for
    unusable record containers (bad magic, unsupported format versions)
    and checkpoint directories that cannot be resumed (a results journal
    of an older release, a store written by another command)."""


class SupervisionError(ReproError):
    """Raised by the supervisor (:mod:`repro.supervise`) for invalid
    retry policies or when a supervised call exhausts its attempts."""


class DeadlineExceeded(SupervisionError):
    """A supervised call ran past its wall-clock deadline."""
