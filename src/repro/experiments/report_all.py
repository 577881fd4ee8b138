"""One-shot reproduction report: every table/figure in a single document.

``repro-power report`` (or :func:`generate`) runs all twelve paper
artifacts plus the accuracy/characterization extensions and renders them
into one markdown document -- the machine-generated companion to the
hand-written EXPERIMENTS.md.  The sections' plans run as one
(:func:`~repro.experiments.runner.execute_plans`): Figs. 9-11 share
their cells, as do Figs. 6 and 7.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Sequence

from repro.exec.plan import ExperimentConfig
from repro.experiments.runner import execute_plans

#: (section title, experiment module, scale override or None)
_SECTIONS: tuple[tuple[str, str, float | None], ...] = (
    ("Table II -- power model refit", "table2_power_model", None),
    ("Table III -- worst-case power", "table3_worst_case", 3.0),
    ("Table IV -- static frequencies", "table4_static_freq", None),
    ("Fig. 1 -- power variation", "fig1_power_variation", 1.0),
    ("Fig. 2 -- p-state impact", "fig2_pstate_impact", None),
    ("Fig. 5 -- PM trace (ammp)", "fig5_pm_trace", 1.0),
    ("Fig. 6 -- performance vs limit", "fig6_perf_vs_limit", None),
    ("Fig. 7 -- PM speedup @ 17.5 W", "fig7_pm_speedup", None),
    ("Fig. 8 -- PS trace (ammp)", "fig8_ps_trace", 1.0),
    ("Fig. 9 -- PS suite trade-off", "fig9_ps_suite", None),
    ("Fig. 10 -- PS energy savings", "fig10_ps_energy", None),
    ("Fig. 11 -- PS performance reduction", "fig11_ps_perf", None),
    ("Per-sample model accuracy", "model_accuracy", None),
    ("Suite characterization", "characterization", None),
    ("Memory-hierarchy probe", "hierarchy_probe", None),
)


@dataclass(frozen=True)
class ReportSection:
    """One rendered experiment with its wall-clock cost: the cells no
    earlier section ran, its summary and its rendering."""

    title: str
    body: str
    elapsed_s: float


def generate(
    default_scale: float = 0.5,
    seed: int = 0,
    sections: Sequence[str] | None = None,
) -> str:
    """Run all experiments and return the markdown report text.

    ``sections`` optionally restricts to module-name substrings (e.g.
    ``["fig7", "table4"]``).
    """
    selected = []
    for title, module_name, scale in _SECTIONS:
        if sections and not any(s in module_name for s in sections):
            continue
        module = importlib.import_module(
            f"repro.experiments.{module_name}"
        )
        plan = module.plan(ExperimentConfig(
            scale=scale if scale is not None else default_scale,
            seed=seed,
            keep_trace=module_name.startswith(("fig5", "fig8")),
        ))
        selected.append((title, module, plan))

    rendered: list[ReportSection] = []
    all_results = execute_plans([plan for _, _, plan in selected])
    for (title, module, plan), results in zip(selected, all_results):
        started = time.perf_counter()
        body = module.render(module.summarize(plan.config, results))
        rendered.append(
            ReportSection(
                title=title,
                body=body,
                elapsed_s=time.perf_counter() - started,
            )
        )

    lines = [
        "# Reproduction report -- Application-Aware Power Management",
        "",
        f"Generated by `repro-power report` (seed {seed}, "
        f"default scale {default_scale}).",
        "",
    ]
    for section in rendered:
        lines.append(f"## {section.title}")
        lines.append("")
        lines.append("```")
        lines.append(section.body)
        lines.append("```")
        lines.append(f"_{section.elapsed_s:.1f} s_")
        lines.append("")
    return "\n".join(lines)
