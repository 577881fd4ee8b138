"""Tests for the trace characterization report."""

import json

import pytest

from repro.traces import (
    characterization_json,
    characterize_trace,
    characterize_traces,
    corpus_trace,
    generate_corpus,
    render_characterization,
)
from repro.workloads.traces import CounterTrace, TraceInterval


class TestClassifier:
    def test_memory_bound_trace_classified_memory(self):
        trace = CounterTrace(
            "mem", [TraceInterval(0.1, 2000.0, 0.35, 0.4, 3.0)] * 10
        )
        row = characterize_trace(trace)
        assert row.memory_bound
        assert row.memory_time_fraction == pytest.approx(1.0)
        assert row.dcu_per_ipc > 1.21

    def test_core_bound_trace_classified_core(self):
        trace = CounterTrace(
            "core", [TraceInterval(0.1, 2000.0, 1.8, 2.2, 0.1)] * 10
        )
        row = characterize_trace(trace)
        assert not row.memory_bound
        assert row.memory_time_fraction == pytest.approx(0.0)

    def test_scan_heavy_etl_is_memory_bound(self):
        row = characterize_trace(corpus_trace("etl-scan-heavy"))
        assert row.memory_bound
        assert row.family == "etl"

    def test_idle_desktop_is_core_bound_and_frequency_sensitive(self):
        row = characterize_trace(corpus_trace("desktop-editing"))
        assert not row.memory_bound
        # Core-bound workloads scale ~linearly: big loss at low f.
        assert row.signature.scaling[800.0] < 0.5

    def test_memory_bound_scales_sublinearly(self):
        mem = characterize_trace(corpus_trace("etl-scan-heavy"))
        core = characterize_trace(corpus_trace("etl-transform"))
        assert mem.signature.scaling[800.0] > core.signature.scaling[800.0]


class TestBatch:
    def test_ordered_by_frequency_sensitivity(self):
        rows = characterize_traces(generate_corpus().values())
        sensitivities = [r.signature.scaling[1800.0] for r in rows]
        assert sensitivities == sorted(sensitivities, reverse=True)

    def test_render_contains_every_trace_and_the_threshold_classes(self):
        rows = characterize_traces(generate_corpus().values())
        text = render_characterization(rows)
        for name in generate_corpus():
            assert name in text
        assert "Eq. 3 memory class:" in text
        assert "mem" in text and "core" in text

    def test_json_document_is_deterministic_and_complete(self):
        rows = characterize_traces(generate_corpus().values())
        doc = json.loads(characterization_json(rows))
        assert doc["threshold_dcu_per_ipc"] == pytest.approx(1.21)
        assert len(doc["traces"]) == len(generate_corpus())
        entry = doc["traces"][0]
        for key in ("name", "family", "memory_bound", "scaling",
                    "ps_choice_mhz_at_80pct"):
            assert key in entry
        assert characterization_json(rows) == characterization_json(rows)


class TestExperiment:
    def test_corpus_experiment_renders(self):
        from repro.experiments import corpus_characterization, run_section

        result = run_section(corpus_characterization)
        assert len(result.rows) >= 12
        assert len(result.by_family("web")) >= 3
        text = corpus_characterization.render(result)
        assert "families:" in text
        assert result.memory_class()  # at least one memory-bound scenario
