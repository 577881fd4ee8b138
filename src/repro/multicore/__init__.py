"""Multicore platform: N pipeline models behind shared-resource contention.

The paper's machine model (and Eq. 2-4) is single-core.  This package
extends it to N cores:

- :mod:`repro.multicore.contention` -- a shared L2/DRAM contention
  model: per-tick bandwidth pressure from each core's memory-bound
  demand inflates every *other* core's effective miss latency and
  shrinks its bandwidth share (self-excluding, so one core alone is
  bit-identical to the single-core :class:`~repro.platform.machine.
  Machine`).
- :mod:`repro.multicore.workload` -- splits an existing workload across
  threads with a configurable serial fraction and synchronisation
  overhead (Amdahl-style).
- :mod:`repro.multicore.machine` -- :class:`MulticoreMachine`, composing
  N per-core :class:`~repro.platform.machine.Machine` instances in one
  package p-state domain behind a
  :class:`~repro.drivers.speedstep.DomainSpeedStepDriver`.

There is no multicore loop: a
:class:`~repro.core.controller.PowerManagementController` runs a
``MulticoreMachine`` as one lane per core of the one tick kernel
(:func:`repro.core.blockloop.run_fast`), so multicore runs take every
hook a single-core run takes.
"""

from repro.multicore.contention import ContentionModel
from repro.multicore.machine import MulticoreConfig, MulticoreMachine
from repro.multicore.workload import split_workload

__all__ = [
    "ContentionModel",
    "MulticoreConfig",
    "MulticoreMachine",
    "split_workload",
]
