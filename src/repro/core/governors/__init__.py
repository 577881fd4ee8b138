"""Control phase: p-state governors.

The paper's two new solutions plus the baselines they are compared to:

* :class:`PerformanceMaximizer` -- best performance within a power limit
  (paper §IV-A),
* :class:`PowerSave` -- energy savings above a performance floor
  (paper §IV-B),
* :class:`StaticClocking` -- the conventional worst-case-provisioned
  fixed frequency (paper Tables III/IV, the PM comparison baseline),
* :class:`FixedFrequency` -- unconstrained max/min frequency anchors
  (and :class:`EventProbe`, a pinned p-state for characterization),
* :class:`DemandBasedSwitching` -- the utilization-driven policy PS is
  positioned against (related work, §II/§IV-B),
* :class:`AdaptivePerformanceMaximizer` -- the measured-power-feedback
  extension the paper sketches for galgel-like workloads (§IV-A2).
"""

from repro.core.governors.base import Governor
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.governors.static import StaticClocking, static_frequency_for_limit
from repro.core.governors.unconstrained import EventProbe, FixedFrequency
from repro.core.governors.demand_based import DemandBasedSwitching
from repro.core.governors.adaptive_pm import AdaptivePerformanceMaximizer
from repro.core.governors.thermal_guard import ThermalGuard
from repro.core.governors.throttling_pm import ThrottlingMaximizer
from repro.core.governors.component_pm import ComponentPerformanceMaximizer
from repro.core.governors.energy_efficiency import EnergyDelayOptimizer
from repro.core.governors.energy_optimal import ConfigProjection, EnergyOptimalSearch

__all__ = [
    "Governor",
    "PerformanceMaximizer",
    "PowerSave",
    "StaticClocking",
    "static_frequency_for_limit",
    "FixedFrequency",
    "EventProbe",
    "DemandBasedSwitching",
    "AdaptivePerformanceMaximizer",
    "ThermalGuard",
    "ThrottlingMaximizer",
    "ComponentPerformanceMaximizer",
    "EnergyDelayOptimizer",
    "ConfigProjection",
    "EnergyOptimalSearch",
]
