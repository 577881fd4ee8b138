"""The AdaptationManager: shadow-scoring, recalibration, rollback.

Closes the loop the paper leaves open (§IV-A2's future-work sketch):
the control loop feeds the manager the scalars of each 10 ms tick --
the p-state's frequency, the DPC, the measured power and the time
(:meth:`AdaptationManager.observe`) -- and the manager

1. **shadow-scores** the active model: estimates power for the interval
   that just executed and tracks the residual stream;
2. **refines** a per-p-state recursive-least-squares fit from the same
   samples (no history stored);
3. **detects drift** with a Page-Hinkley test over the residuals (plus
   a performance-model misclassification monitor when the sampler
   carries IPC/DCU counters), distinguishing persistent bias from the
   transient noise the guardband already absorbs;
4. **recalibrates** when drift is confirmed: fits a fresh model from
   the RLS state, registers it in the :class:`~repro.adaptation.
   registry.ModelRegistry` with provenance, and hot-swaps the
   governor's model between control decisions;
5. **rolls back** a recalibration that fails probation (residuals did
   not improve), re-activating the registry version it replaced; and
6. optionally **widens the PM guardband** in proportion to the observed
   residual spread, so a noisier model is trusted less.

The manager is engaged per run via :meth:`engage`; a governor that does
not expose ``swap_model`` (anything outside the PM family) leaves the
manager inert and the run bit-for-bit identical to an unmanaged one.

Plain floats, no counter sample: a stock PerformanceMaximizer decides in
the tick kernel's table mode, which holds the tick's counters in locals
and never builds a :class:`~repro.core.sampling.CounterSample`.
:meth:`~AdaptationManager.observe` returns whether the governor changed
(a model swap, a rollback, a guardband move), so the kernel re-reads the
governor's projection table and budget only then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.adaptation.drift import (
    MisclassificationMonitor,
    PageHinkleyDetector,
    ResidualTracker,
)
from repro.adaptation.registry import ModelRegistry, ModelVersion
from repro.adaptation.rls import PowerModelRLS
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.errors import AdaptationError
from repro.telemetry.bus import (
    ModelDriftDetected,
    ModelRecalibrated,
    ModelRolledBack,
)
from repro.telemetry.metrics import PROJECTION_ERROR_BUCKETS_W

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.recorder import TelemetryRecorder


@dataclass(frozen=True)
class AdaptationConfig:
    """Knobs of the online-adaptation loop (validated on construction)."""

    #: RLS exponential forgetting factor (effective window ~1/(1-lambda)).
    forgetting_factor: float = 0.98
    #: Samples a p-state's RLS fit needs before it replaces the active
    #: coefficients in a recalibration.
    min_samples_per_state: int = 20
    #: Page-Hinkley per-sample tolerance (watts of residual ignored).
    ph_delta_w: float = 0.05
    #: Page-Hinkley confirmation threshold (cumulative excess watts).
    ph_threshold_w: float = 8.0
    #: Samples before the Page-Hinkley test may fire.
    ph_min_samples: int = 50
    #: Ticks between recalibrations (confirmation during cooldown is
    #: held, not dropped).
    cooldown_ticks: int = 150
    #: Ticks a freshly swapped model is on probation before it is
    #: judged against the model it replaced.
    probation_ticks: int = 100
    #: A probation model is rolled back when its mean |residual| exceeds
    #: this multiple of the pre-swap mean |residual|.
    rollback_tolerance: float = 1.25
    #: Widen the governor guardband with the observed residual spread.
    widen_guardband: bool = True
    #: Watts of extra guardband per watt of residual std.
    guardband_gain: float = 1.5
    #: Upper clamp on the widened guardband.
    max_guardband_w: float = 2.0
    #: EWMA weight of the residual tracker.
    residual_alpha: float = 0.02
    #: Sliding window of the performance-model misclassification monitor.
    misclass_window: int = 200
    #: Misclassification rate that counts as performance-model drift.
    misclass_rate: float = 0.5
    #: Transitions observed before the misclassification rate is trusted.
    misclass_min_observations: int = 25

    def __post_init__(self) -> None:
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise AdaptationError(
                "forgetting_factor must be in (0, 1], got "
                f"{self.forgetting_factor}"
            )
        if self.min_samples_per_state < 1:
            raise AdaptationError("min_samples_per_state must be >= 1")
        if self.cooldown_ticks < 0 or self.probation_ticks < 0:
            raise AdaptationError(
                "cooldown_ticks and probation_ticks must be non-negative"
            )
        if self.rollback_tolerance < 1.0:
            raise AdaptationError(
                f"rollback_tolerance must be >= 1, got "
                f"{self.rollback_tolerance}"
            )
        if self.guardband_gain < 0 or self.max_guardband_w < 0:
            raise AdaptationError(
                "guardband_gain and max_guardband_w must be non-negative"
            )


class AdaptationManager:
    """Per-run online adaptation driver (see module docstring)."""

    def __init__(
        self,
        config: AdaptationConfig | None = None,
        registry: ModelRegistry | None = None,
        performance_model: PerformanceModel | None = None,
    ):
        self.config = config if config is not None else AdaptationConfig()
        self.registry = registry if registry is not None else ModelRegistry()
        self._perf_model = (
            performance_model
            if performance_model is not None
            else PerformanceModel.paper_primary()
        )
        self._governor = None
        self._tel: "TelemetryRecorder | None" = None
        self._engaged = False
        self.drift_detections = 0
        self.recalibrations = 0
        self.rollbacks = 0
        self.perf_drift_detections = 0

    # -- lifecycle -------------------------------------------------------------

    @property
    def engaged(self) -> bool:
        """True when bound to a compatible governor for the current run."""
        return self._engaged

    def engage(
        self,
        governor,
        telemetry: "TelemetryRecorder | None" = None,
        now_s: float = 0.0,
    ) -> bool:
        """Bind to ``governor`` for one run; False leaves the manager inert.

        A compatible governor exposes ``model`` (a
        :class:`LinearPowerModel`) and ``swap_model``.  The baseline
        model is registered as the first version so every later
        recalibration has a rollback target.
        """
        model = getattr(governor, "model", None)
        if not hasattr(governor, "swap_model") or not isinstance(
            model, LinearPowerModel
        ):
            self._engaged = False
            return False
        cfg = self.config
        self._governor = governor
        self._tel = (
            telemetry
            if telemetry is not None and telemetry.enabled
            else None
        )
        self._active_model = model
        self._rls = PowerModelRLS(
            forgetting=cfg.forgetting_factor, initial_model=model
        )
        self._detector = PageHinkleyDetector(
            delta=cfg.ph_delta_w,
            threshold=cfg.ph_threshold_w,
            min_samples=cfg.ph_min_samples,
        )
        self._tracker = ResidualTracker(alpha=cfg.residual_alpha)
        self._misclass = MisclassificationMonitor(
            self._perf_model,
            window=cfg.misclass_window,
            rate_threshold=cfg.misclass_rate,
            min_observations=cfg.misclass_min_observations,
        )
        self._base_guardband = getattr(governor, "guardband_w", None)
        self._widening = (
            cfg.widen_guardband
            and self._base_guardband is not None
            and hasattr(governor, "set_guardband")
        )
        self._ticks = 0
        self._last_recalibration_tick: int | None = None
        self._drift_pending = False
        self._probation_left = 0
        self._probation_tracker = ResidualTracker(alpha=cfg.residual_alpha)
        self._preswap_abs_mean = 0.0
        self._previous_model: LinearPowerModel | None = None
        self._last_ipc: float | None = None
        self._last_freq: float | None = None
        if self.registry.active_version is None:
            self.registry.register(
                model,
                provenance={
                    "source": "offline_baseline",
                    "note": "model the governor started the run with",
                },
                created_at_s=now_s,
            )
        self._engaged = True
        return True

    # -- per-tick observation --------------------------------------------------

    def observe(
        self,
        freq_mhz: float,
        dpc: float,
        measured_w: float,
        now_s: float,
        ipc: float | None = None,
        dcu: float | None = None,
    ) -> bool:
        """Fold one executed interval into the adaptation state.

        The interval ran at ``freq_mhz`` with decode rate ``dpc`` and
        measured ``measured_w``; ``ipc`` and ``dcu`` (retired
        instructions and outstanding DCU misses per cycle), when the
        sampler counts both, feed the misclassification monitor.  Any
        model swap decided here takes effect at the *next* control
        decision.  Returns whether the governor changed: a model swap,
        a rollback or a guardband move.
        """
        if not self._engaged:
            return False
        cfg = self.config
        self._ticks += 1
        residual = measured_w - self._active_model.estimate(freq_mhz, dpc)

        self._rls.update(freq_mhz, dpc, measured_w)
        self._tracker.update(residual)
        confirmed = self._detector.update(residual)

        tel = self._tel
        if tel is not None:
            tel.metrics.histogram(
                "adaptation.residual_w", PROJECTION_ERROR_BUCKETS_W
            ).observe(residual)

        if ipc is not None and dcu is not None:
            self._observe_classification(ipc, dcu, freq_mhz, now_s)

        changed = False
        if self._probation_left > 0:
            self._probation_tracker.update(residual)
            self._probation_left -= 1
            if self._probation_left == 0:
                changed = self._judge_probation(now_s)

        if confirmed and not self._drift_pending:
            self._drift_pending = True
            self.drift_detections += 1
            # Page-Hinkley confirms within a few ticks of a step change,
            # when the RLS state is still dominated by pre-drift
            # samples; restart the fit so the recalibration is built
            # from post-drift evidence only (min_samples_per_state
            # gates how much must accumulate first).
            self._rls.reset()
            if tel is not None:
                tel.metrics.counter("adaptation.drift_detected").inc()
                tel.emit(
                    ModelDriftDetected(
                        time_s=now_s,
                        detector="page_hinkley",
                        statistic=self._detector.statistic,
                        threshold=self._detector.threshold,
                    )
                )

        if self._drift_pending and self._cooldown_elapsed():
            refit = self._rls.refit_frequencies(cfg.min_samples_per_state)
            if refit:
                self._recalibrate(refit, now_s)
                changed = True

        return self._widen_guardband(tel) or changed

    # -- internals -------------------------------------------------------------

    def _cooldown_elapsed(self) -> bool:
        if self._last_recalibration_tick is None:
            return True
        return (
            self._ticks - self._last_recalibration_tick
            >= self.config.cooldown_ticks
        )

    def _observe_classification(
        self, ipc: float, dcu: float, freq: float, now_s: float
    ) -> None:
        """Feed the misclassification monitor across p-state changes."""
        last_ipc, last_freq = self._last_ipc, self._last_freq
        self._last_ipc, self._last_freq = ipc, freq
        if (
            last_ipc is None
            or last_freq is None
            or last_freq == freq
            or last_ipc <= 0
            or ipc <= 0
        ):
            return
        fired = self._misclass.observe(
            dcu_per_ipc=dcu / ipc,
            from_mhz=last_freq,
            to_mhz=freq,
            observed_ipc_ratio=ipc / last_ipc,
        )
        if fired:
            self.perf_drift_detections += 1
            tel = self._tel
            if tel is not None:
                tel.metrics.counter(
                    "adaptation.perf_drift_detected"
                ).inc()
                tel.emit(
                    ModelDriftDetected(
                        time_s=now_s,
                        detector="misclassification",
                        statistic=self._misclass.misclassification_rate,
                        threshold=self._misclass.rate_threshold,
                    )
                )
            self._misclass.reset()

    def _recalibrate(self, refit: tuple[float, ...], now_s: float) -> None:
        cfg = self.config
        new_model = self._rls.fitted_model(
            self._active_model, min_samples=cfg.min_samples_per_state
        )
        provenance: dict[str, Any] = {
            "source": "rls_recalibration",
            "trigger": "page_hinkley",
            "tick": self._ticks,
            "time_s": now_s,
            "residual_mean_w": self._tracker.mean,
            "residual_std_w": self._tracker.std,
            "refit_mhz": list(refit),
            "rls": {
                str(freq): stats
                for freq, stats in self._rls.snapshot().items()
            },
        }
        version = self.registry.register(
            new_model, provenance=provenance, created_at_s=now_s
        )
        self._previous_model = self._active_model
        self._preswap_abs_mean = self._tracker.abs_mean
        self._active_model = new_model
        self._governor.swap_model(new_model)
        self.recalibrations += 1
        self._drift_pending = False
        self._last_recalibration_tick = self._ticks
        self._detector.reset()
        self._tracker.reset()
        self._probation_tracker.reset()
        self._probation_left = cfg.probation_ticks
        tel = self._tel
        if tel is not None:
            tel.metrics.counter("adaptation.recalibrations").inc()
            tel.metrics.gauge("adaptation.active_version").set(
                version.version
            )
            tel.emit(
                ModelRecalibrated(
                    time_s=now_s,
                    version=version.version,
                    refit_mhz=tuple(refit),
                    residual_mean_w=float(
                        provenance["residual_mean_w"]
                    ),
                    residual_std_w=float(provenance["residual_std_w"]),
                )
            )

    def _judge_probation(self, now_s: float) -> bool:
        """End-of-probation verdict: keep the new model or roll back.

        Returns whether it rolled back.
        """
        if self._previous_model is None:
            return False
        threshold = self.config.rollback_tolerance * max(
            self._preswap_abs_mean, 1e-9
        )
        if self._probation_tracker.abs_mean <= threshold:
            self._previous_model = None  # model confirmed; keep it
            return False
        from_version = self.registry.active_version
        restored = self.registry.rollback()
        self._active_model = restored.load()
        self._governor.swap_model(self._active_model)
        self._previous_model = None
        self.rollbacks += 1
        self._detector.reset()
        self._tracker.reset()
        # The rollback says the *refit* was bad, not that the drift went
        # away: leave the confirmation pending so the next cooldown
        # expiry retries with the extra evidence gathered since.
        self._drift_pending = True
        tel = self._tel
        if tel is not None:
            tel.metrics.counter("adaptation.rollbacks").inc()
            tel.metrics.gauge("adaptation.active_version").set(
                restored.version
            )
            tel.emit(
                ModelRolledBack(
                    time_s=now_s,
                    from_version=from_version,
                    to_version=restored.version,
                    reason=(
                        "probation residuals worse than pre-swap "
                        f"({self._probation_tracker.abs_mean:.3f} W vs "
                        f"{self._preswap_abs_mean:.3f} W)"
                    ),
                )
            )
        return True

    def _widen_guardband(self, tel) -> bool:
        """Track the residual spread; returns whether the guardband
        moved."""
        if not self._widening:
            return False
        cfg = self.config
        target = min(
            self._base_guardband + cfg.guardband_gain * self._tracker.std,
            cfg.max_guardband_w,
        )
        target = max(target, self._base_guardband)
        if abs(target - self._governor.guardband_w) > 1e-3:
            self._governor.set_guardband(target)
            if tel is not None:
                tel.metrics.gauge("adaptation.guardband_w").set(target)
            return True
        return False

    # -- reporting -------------------------------------------------------------

    @property
    def active_version(self) -> ModelVersion | None:
        """The registry's active model version."""
        return self.registry.active

    def summary(self) -> Mapping[str, Any]:
        """JSON-safe digest for CLI output and tests."""
        return {
            "engaged": self._engaged,
            "drift_detections": self.drift_detections,
            "perf_drift_detections": self.perf_drift_detections,
            "recalibrations": self.recalibrations,
            "rollbacks": self.rollbacks,
            "registered_versions": len(self.registry),
            "active_version": self.registry.active_version,
            "residual_mean_w": (
                self._tracker.mean if self._engaged else 0.0
            ),
            "residual_std_w": (
                self._tracker.std if self._engaged else 0.0
            ),
        }
