"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.acpi.pstates import PStateTable, pentium_m_755_table
from repro.platform.machine import Machine, MachineConfig
from repro.workloads.base import Phase, Workload

#: A short, perfectly stable core-bound workload.
TINY_CORE = Workload(
    "tiny-core",
    (Phase(
        name="tiny-core",
        instructions=5e7,
        cpi_core=0.8,
        decode_ratio=1.4,
        activity_jitter=0.0,
    ),),
    5e7,
    category="core",
)

#: A looping two-phase workload (compute then memory, three repeats).
TWO_PHASE = Workload.from_phases(
    "two-phase",
    (
        Phase(
            name="compute",
            instructions=8e7,
            cpi_core=0.7,
            decode_ratio=1.4,
            activity_jitter=0.0,
        ),
        Phase(
            name="memory",
            instructions=3e7,
            cpi_core=0.9,
            decode_ratio=1.15,
            l1_mpi=0.04,
            l2_mpi=0.03,
            mlp=2.5,
            activity_jitter=0.0,
        ),
    ),
    repeats=3,
    category="mixed",
)

#: A core-bound workload with AR(1) activity jitter.
JITTERY = Workload(
    "jit",
    (Phase(
        name="j", instructions=5e7, cpi_core=0.8, decode_ratio=1.3,
        activity_jitter=0.1, jitter_corr=0.8,
    ),),
    5e7,
)


@pytest.fixture()
def table() -> PStateTable:
    """The Pentium M 755 p-state table."""
    return pentium_m_755_table()


@pytest.fixture()
def machine() -> Machine:
    """A fresh seeded machine."""
    return Machine(MachineConfig(seed=42))


@pytest.fixture()
def tiny_core_workload() -> Workload:
    """A short, perfectly stable core-bound workload."""
    return TINY_CORE


@pytest.fixture()
def tiny_memory_workload() -> Workload:
    """A short, perfectly stable DRAM-bound workload."""
    phase = Phase(
        name="tiny-mem",
        instructions=2e7,
        cpi_core=0.9,
        decode_ratio=1.2,
        l1_mpi=0.04,
        l2_mpi=0.03,
        mlp=2.0,
        activity_jitter=0.0,
    )
    return Workload("tiny-mem", (phase,), 2e7, category="memory")


@pytest.fixture()
def two_phase_workload() -> Workload:
    """A looping two-phase workload (compute then memory)."""
    return TWO_PHASE
