"""Execution engine: declarative run plans, serial or parallel.

Public surface:

* :class:`~repro.exec.plan.RunPlan` / :class:`~repro.exec.plan.RunCell`
  / :class:`~repro.exec.plan.GovernorSpec` -- experiments as data;
* :func:`~repro.exec.session.open_session` -- the single composable
  entry point (telemetry, result store, workers, and a faults /
  adaptation stamp for its cells); the session it opens is the only
  ambient state, and
  :func:`~repro.exec.session.current_session` returns it;
* :func:`~repro.exec.core.execute_cell` -- the one code path every
  cell runs through, in every process.
"""

from repro.exec.core import PreparedCell, execute_cell, prepare_cell
from repro.exec.cache import (
    clear_caches,
    export_caches,
    install_caches,
    prime_for_plan,
    trained_power_model,
    worst_case_power_table,
)
from repro.exec.plan import (
    GOVERNOR_KINDS,
    PLAN_FORMAT_VERSION,
    VALID_SWEEP_AXES,
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
)
from repro.exec.session import (
    ExecSession,
    current_session,
    open_session,
    set_session,
)

__all__ = [
    "GOVERNOR_KINDS",
    "PLAN_FORMAT_VERSION",
    "VALID_SWEEP_AXES",
    "ExecSession",
    "ExperimentConfig",
    "GovernorSpec",
    "PreparedCell",
    "RunCell",
    "RunPlan",
    "clear_caches",
    "current_session",
    "execute_cell",
    "export_caches",
    "install_caches",
    "open_session",
    "prepare_cell",
    "prime_for_plan",
    "set_session",
    "trained_power_model",
    "worst_case_power_table",
]
