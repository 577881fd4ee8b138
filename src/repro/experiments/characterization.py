"""Suite characterization table: the data behind the paper's §IV-A2
explanations.

The paper explains each benchmark's PM/PS behaviour from its counter
signature (DCU miss-outstanding rates, decode rates, frequency
sensitivity).  This experiment tabulates those signatures for the whole
suite so every qualitative claim in the text has a number behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.report import TextTable
from repro.exec.plan import ExperimentConfig
from repro.experiments.runner import no_cells
from repro.platform.calibration import (
    WorkloadSignature,
    ps_choice_for_signature,
    suite_signatures,
)


@dataclass(frozen=True)
class CharacterizationResult:
    """Per-workload signatures plus the PS decisions they imply."""

    signatures: Mapping[str, WorkloadSignature]

    def memory_class(self) -> tuple[str, ...]:
        """Workloads Eq. 3 classifies as memory-bound at 2 GHz."""
        return tuple(
            sorted(
                name
                for name, s in self.signatures.items()
                if s.classified_memory_bound
            )
        )

    def frequency_sensitivity_order(self) -> tuple[str, ...]:
        """Names sorted by 1800->2000 sensitivity (the Fig. 7 x-axis)."""
        return tuple(
            sorted(
                self.signatures,
                key=lambda n: self.signatures[n].scaling[1800.0],
                reverse=True,
            )
        )


#: No cells: the signatures are analytic.
plan = no_cells


def summarize(config: ExperimentConfig, results) -> CharacterizationResult:
    """Compute analytic signatures for the SPEC suite."""
    return CharacterizationResult(signatures=suite_signatures())


def render(result: CharacterizationResult) -> str:
    """The characterization table, Fig. 7-ordered."""
    table = TextTable(
        ["benchmark", "DPC", "IPC", "DCU/IPC", "class", "P@2G W",
         "perf@1800", "perf@800", "PS@80%"]
    )
    for name in result.frequency_sensitivity_order():
        s = result.signatures[name]
        table.add_row(
            name, s.dpc, s.ipc, s.dcu_per_ipc,
            "mem" if s.classified_memory_bound else "core",
            s.mean_power_w,
            s.scaling[1800.0], s.scaling[800.0],
            f"{ps_choice_for_signature(s, 0.8):.0f}",
        )
    memory = ", ".join(result.memory_class())
    return (
        "SPEC CPU2000 characterization on the simulated Pentium M 755\n"
        + table.render()
        + f"\nEq. 3 memory class at 2 GHz: {memory}"
    )
