"""Corpus characterization: the scenario traces on the paper's map.

Companion to :mod:`repro.experiments.characterization`: where that
module tabulates the 26 SPEC models, this one runs the trace corpus
(bursty web serving, batch ETL, inference serving, idle-heavy desktop)
through the same Eq. 3 classifier and frequency-sensitivity analysis,
so governor results on realistic scenario shapes can be read against
the same axes as the paper's workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.plan import ExperimentConfig
from repro.experiments.runner import no_cells
from repro.traces.characterize import (
    TraceCharacterization,
    characterize_traces,
    render_characterization,
)
from repro.traces.corpus import CORPUS_FAMILIES, generate_corpus


@dataclass(frozen=True)
class CorpusCharacterizationResult:
    """Characterizations for every corpus scenario, Fig. 7-ordered."""

    rows: tuple[TraceCharacterization, ...]

    def by_family(self, family: str) -> tuple[TraceCharacterization, ...]:
        return tuple(c for c in self.rows if c.family == family)

    def memory_class(self) -> tuple[str, ...]:
        return tuple(sorted(c.name for c in self.rows if c.memory_bound))


#: No cells: the characterization is analytic.
plan = no_cells


def summarize(
    config: ExperimentConfig, results
) -> CorpusCharacterizationResult:
    """Characterize the corpus generated at the experiment seed."""
    corpus = generate_corpus(seed=config.seed)
    return CorpusCharacterizationResult(
        rows=characterize_traces(corpus.values())
    )


def render(result: CorpusCharacterizationResult) -> str:
    """The corpus characterization table plus a family summary."""
    families = ", ".join(
        f"{family} ({len(names)})"
        for family, names in sorted(CORPUS_FAMILIES.items())
    )
    return (
        render_characterization(result.rows)
        + f"\nfamilies: {families}"
    )
