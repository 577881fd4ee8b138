"""API-contract tests: the public surface stays importable and documented."""

import importlib

import pytest

import repro

PUBLIC_MODULES = (
    "repro",
    "repro.acpi",
    "repro.drivers",
    "repro.platform",
    "repro.platform.machine",
    "repro.platform.thermal",
    "repro.platform.throttling",
    "repro.platform.calibration",
    "repro.measurement",
    "repro.workloads",
    "repro.workloads.traces",
    "repro.core",
    "repro.core.models",
    "repro.core.models.persistence",
    "repro.core.governors",
    "repro.experiments",
    "repro.experiments.ablations",
    "repro.analysis",
    "repro.fleet",
    "repro.fleet.budget",
    "repro.fleet.hierarchy",
    "repro.fleet.store",
    "repro.fleet.scenario",
    "repro.fleet.cluster",
    "repro.experiments.fleet_capping",
    "repro.experiments.multicore_scaling",
    "repro.multicore",
    "repro.multicore.contention",
    "repro.multicore.controller",
    "repro.multicore.machine",
    "repro.multicore.workload",
    "repro.core.governors.energy_optimal",
    "repro.core.governors.threads_freq",
    "repro.cli",
    "repro.telemetry",
    "repro.telemetry.bus",
    "repro.telemetry.metrics",
    "repro.telemetry.spans",
    "repro.telemetry.exporters",
    "repro.telemetry.report",
    "repro.errors",
    "repro.core.resilience",
    "repro.faults",
    "repro.faults.plan",
    "repro.faults.injector",
    "repro.faults.report",
    "repro.exec",
    "repro.exec.plan",
    "repro.exec.core",
    "repro.exec.cache",
    "repro.exec.session",
    "repro.telemetry.merge",
    "repro.traces",
    "repro.traces.ingest",
    "repro.traces.calibrate",
    "repro.traces.corpus",
    "repro.traces.characterize",
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_every_all_entry_is_documented():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) or isinstance(obj, type):
            assert obj.__doc__, f"repro.{name} lacks a docstring"


def test_every_error_class_is_exported():
    """Every ReproError subclass is part of the top-level public API.

    Callers hardening against this package need the whole hierarchy
    importable from ``repro`` directly, not scattered per-module.
    """
    from repro import errors

    classes = {
        name: obj
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ReproError)
    }
    assert "FaultError" in classes and "RecoveryError" in classes
    for name, obj in classes.items():
        assert name in repro.__all__, f"{name} missing from repro.__all__"
        assert getattr(repro, name) is obj


def test_fault_api_is_exported():
    for name in ("FaultPlan", "FaultInjector", "load_fault_plan",
                 "ResilienceConfig"):
        assert name in repro.__all__
        assert hasattr(repro, name)


def test_multicore_api_is_exported():
    """The multicore subsystem is reachable from the top level."""
    for name in ("MulticoreMachine", "MulticoreConfig",
                 "MulticoreController", "MulticoreRunResult",
                 "ContentionModel", "split_workload",
                 "EnergyOptimalSearch", "ThreadsFreqGovernor"):
        assert name in repro.__all__, name
        assert hasattr(repro, name)


def test_subpackage_all_exports_resolve():
    for module_name in ("repro.core", "repro.core.governors",
                        "repro.core.models", "repro.fleet",
                        "repro.workloads", "repro.measurement",
                        "repro.telemetry", "repro.faults",
                        "repro.multicore"):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"


def test_version_string():
    assert repro.__version__ == "1.0.0"
