"""Tests for the repro-power command-line interface."""

import csv

import pytest

from repro.cli import main
from repro.telemetry.exporters import render_trace_csv
from repro.telemetry.report import load_events


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "swim" in out
    assert "FMA-256KB" in out


def test_run_fixed(capsys):
    code = main(
        ["run", "gzip", "--governor", "fixed", "--frequency", "1200",
         "--scale", "0.05"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1200 MHz" in out
    assert "mean power" in out


def test_run_pm_with_paper_model(capsys):
    code = main(
        ["run", "ammp", "--governor", "pm", "--limit", "14.5",
         "--scale", "0.05", "--use-paper-model"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "violations" in out


def test_run_ps(capsys):
    code = main(
        ["run", "swim", "--governor", "ps", "--floor", "0.8",
         "--scale", "0.05"]
    )
    assert code == 0
    assert "PowerSave" in capsys.readouterr().out


def test_run_unknown_workload_fails(capsys):
    code = main(["run", "nonexistent", "--scale", "0.05"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_trace_export(tmp_path, capsys):
    trace_file = tmp_path / "trace.csv"
    code = main(
        ["run", "gcc", "--governor", "fixed", "--scale", "0.05",
         "--trace", str(trace_file)]
    )
    assert code == 0
    with open(trace_file) as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    assert {"time_s", "frequency_mhz", "measured_power_w"} <= set(rows[0])


def test_trace_and_telemetry_share_one_csv_layout(tmp_path, capsys):
    # --trace and the trace rendered from the bundle's tick columns use
    # the same row format: identical headers and per-tick rows.
    trace_file = tmp_path / "trace.csv"
    telemetry_dir = tmp_path / "telemetry"
    code = main(
        ["run", "gcc", "--governor", "fixed", "--scale", "0.05",
         "--trace", str(trace_file), "--telemetry", str(telemetry_dir)]
    )
    assert code == 0
    with open(trace_file, newline="") as handle:
        ad_hoc = handle.read()
    events, _, _ = load_events(telemetry_dir / "events.jsonl")
    assert ad_hoc == render_trace_csv(events)
    assert not (telemetry_dir / "trace.csv").exists()


def test_run_with_telemetry_writes_bundle(tmp_path, capsys):
    directory = tmp_path / "t"
    code = main(
        ["run", "ammp", "--governor", "pm", "--scale", "0.05",
         "--use-paper-model", "--telemetry", str(directory)]
    )
    assert code == 0
    assert "telemetry written to" in capsys.readouterr().out
    assert sorted(path.name for path in directory.iterdir()) == [
        "events.f64", "events.jsonl", "metrics.json", "summary.txt",
    ]


def test_experiment_with_telemetry(tmp_path, capsys):
    directory = tmp_path / "exp"
    code = main(
        ["experiment", "fig2", "--scale", "0.05",
         "--telemetry", str(directory)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sixtrack" in out
    assert (directory / "events.jsonl").exists()
    # Every run of the experiment is wrapped in one root span, and no
    # span is opened per tick.
    import json

    with open(directory / "metrics.json") as handle:
        spans = json.load(handle)["spans"]
    with open(directory / "events.jsonl") as handle:
        cells = sum(
            1 for line in handle if json.loads(line)["kind"] == "run_started"
        )
    assert cells > 0
    assert list(spans) == ["run"]
    assert spans["run"]["count"] == cells


def test_telemetry_report_round_trip(tmp_path, capsys):
    directory = tmp_path / "t"
    assert main(
        ["run", "gzip", "--governor", "pm", "--scale", "0.05",
         "--use-paper-model", "--telemetry", str(directory)]
    ) == 0
    capsys.readouterr()
    assert main(["telemetry-report", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "gzip under PerformanceMaximizer" in out
    assert "events" in out


def test_experiment_table4(capsys):
    assert main(["experiment", "table4"]) == 0
    out = capsys.readouterr().out
    assert "1800" in out and "crossovers" in out


def test_experiment_fig2(capsys):
    assert main(["experiment", "fig2", "--scale", "0.05"]) == 0
    assert "sixtrack" in capsys.readouterr().out


def test_invalid_experiment_id_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


class TestUpFrontValidation:
    """--telemetry and --faults fail fast, before any simulation."""

    def test_missing_faults_spec_rejected(self, tmp_path, capsys):
        code = main(
            ["run", "gzip", "--scale", "0.05",
             "--faults", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "cannot read fault spec" in capsys.readouterr().err

    def test_unknown_fault_plan_key_rejected(self, tmp_path, capsys):
        spec = tmp_path / "plan.json"
        spec.write_text('{"sampler": {"drop_prob": 0.1}}')
        code = main(
            ["run", "gzip", "--scale", "0.05", "--faults", str(spec)]
        )
        assert code == 1
        assert "unknown fault plan keys" in capsys.readouterr().err

    def test_bad_telemetry_parent_rejected(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir"
        code = main(
            ["run", "gzip", "--scale", "0.05", "--telemetry", str(target)]
        )
        assert code == 1
        assert "parent directory does not exist" in capsys.readouterr().err

    def test_telemetry_target_must_not_be_a_file(self, tmp_path, capsys):
        target = tmp_path / "occupied"
        target.write_text("")
        code = main(
            ["run", "gzip", "--scale", "0.05", "--telemetry", str(target)]
        )
        assert code == 1
        assert "not a directory" in capsys.readouterr().err

    def test_experiment_validates_faults_too(self, tmp_path, capsys):
        code = main(
            ["experiment", "fig2", "--scale", "0.05",
             "--faults", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "cannot read fault spec" in capsys.readouterr().err


def test_run_with_faults_prints_summary(tmp_path, capsys):
    import json

    spec = tmp_path / "plan.json"
    spec.write_text(json.dumps(
        {"seed": 0, "sample": {"drop_prob": 0.08},
         "transition": {"fail_prob": 0.6}}
    ))
    code = main(
        ["run", "gzip", "--governor", "pm", "--limit", "14.5",
         "--scale", "0.5", "--use-paper-model", "--faults", str(spec)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "injected" in out
    assert "recoveries" in out


def test_faults_report_round_trip(tmp_path, capsys):
    import json

    spec = tmp_path / "plan.json"
    spec.write_text(json.dumps(
        {"seed": 0, "sample": {"drop_prob": 0.08},
         "transition": {"fail_prob": 0.6}}
    ))
    directory = tmp_path / "t"
    assert main(
        ["run", "gzip", "--governor", "pm", "--limit", "14.5",
         "--scale", "0.5", "--use-paper-model",
         "--faults", str(spec), "--telemetry", str(directory)]
    ) == 0
    capsys.readouterr()
    assert main(["faults-report", str(directory)]) == 0
    out = capsys.readouterr().out
    assert "injected" in out
    assert "sampler" in out


def test_faults_report_on_missing_directory_fails(tmp_path, capsys):
    code = main(["faults-report", str(tmp_path / "nope")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


class TestAdaptationCLI:
    DRIFT_SPEC = {
        "seed": 0,
        "meter": {
            "drift_rate_per_s": 0.04,
            "drift_start_s": 1.0,
            "drift_max_gain": 0.35,
        },
    }

    def _write_drift(self, tmp_path):
        import json

        spec = tmp_path / "drift.json"
        spec.write_text(json.dumps(self.DRIFT_SPEC))
        return spec

    def test_adapt_prints_summary(self, tmp_path, capsys):
        spec = self._write_drift(tmp_path)
        code = main(
            ["run", "FMA-256KB", "--governor", "pm", "--limit", "13.5",
             "--scale", "32", "--use-paper-model", "--adapt",
             "--faults", str(spec)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptation   :" in out
        assert "drift detections" in out

    def test_adapt_is_inert_on_governors_without_a_model(self, capsys):
        code = main(
            ["run", "gzip", "--governor", "dbs", "--scale", "0.05",
             "--adapt"]
        )
        assert code == 0
        assert "not engaged" in capsys.readouterr().out

    def test_registry_requires_adapt(self, tmp_path, capsys):
        code = main(
            ["run", "gzip", "--scale", "0.05",
             "--registry", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "--registry requires --adapt" in capsys.readouterr().err

    def test_registry_saved_and_loadable(self, tmp_path, capsys):
        from repro.adaptation import ModelRegistry

        registry_path = tmp_path / "registry.json"
        code = main(
            ["run", "gzip", "--governor", "pm", "--limit", "14.5",
             "--scale", "0.05", "--use-paper-model", "--adapt",
             "--registry", str(registry_path)]
        )
        assert code == 0
        assert "model registry saved" in capsys.readouterr().out
        registry = ModelRegistry.load(registry_path)
        assert len(registry) >= 1
        assert registry.get(1).provenance["source"] == "offline_baseline"

    def test_adaptation_report_round_trip(self, tmp_path, capsys):
        spec = self._write_drift(tmp_path)
        directory = tmp_path / "tel"
        assert main(
            ["run", "FMA-256KB", "--governor", "pm", "--limit", "13.5",
             "--scale", "32", "--use-paper-model", "--adapt",
             "--faults", str(spec), "--telemetry", str(directory)]
        ) == 0
        capsys.readouterr()
        assert main(["adaptation-report", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "drift detections" in out
        assert "recalibrations" in out

    def test_adaptation_report_without_activity(self, tmp_path, capsys):
        directory = tmp_path / "tel"
        assert main(
            ["run", "gzip", "--scale", "0.05", "--telemetry",
             str(directory)]
        ) == 0
        capsys.readouterr()
        assert main(["adaptation-report", str(directory)]) == 0
        assert "no model-adaptation activity" in capsys.readouterr().out

    def test_adaptation_report_on_missing_directory_fails(
        self, tmp_path, capsys
    ):
        code = main(["adaptation-report", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_experiment_drift(self, capsys):
        assert main(["experiment", "drift"]) == 0
        out = capsys.readouterr().out
        assert "frozen" in out and "adaptive" in out
        assert "verdict:" in out


class TestTraceSubcommands:
    WATTWATCHER = (
        "timestamp,instructions,cycles,l1d_pend_miss.pending\n"
        "0.5,1200000000,1000000000,500000000\n"
        "1.0,1100000000,1000000000,600000000\n"
        "1.5,300000000,1000000000,2400000000\n"
    )

    def test_generate_and_characterize(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["trace", "generate", "--out", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "12 traces in 4 families" in out
        json_path = tmp_path / "char.json"
        assert main(
            ["trace", "characterize", str(corpus), "--json", str(json_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Eq. 3 memory class:" in out
        assert "etl-scan-heavy" in out
        import json as json_module

        document = json_module.loads(json_path.read_text())
        assert len(document["traces"]) == 12

    def test_ingest_writes_calibrated_trace(self, tmp_path, capsys):
        log = tmp_path / "counters.csv"
        log.write_text(self.WATTWATCHER)
        out_csv = tmp_path / "out.trace.csv"
        assert main(
            ["trace", "ingest", str(log), "--out", str(out_csv)]
        ) == 0
        out = capsys.readouterr().out
        assert "format=wattwatcher" in out
        assert "trace written to" in out
        from repro.workloads.traces import CounterTrace

        trace = CounterTrace.from_path(str(out_csv))
        assert len(trace) == 3

    def test_ingest_missing_log_fails(self, tmp_path, capsys):
        code = main(
            ["trace", "ingest", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "out.csv")]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_characterize_empty_directory_fails(self, tmp_path, capsys):
        code = main(["trace", "characterize", str(tmp_path)])
        assert code == 1
        assert "no trace CSVs" in capsys.readouterr().err

    def test_run_corpus_spec(self, capsys):
        assert main(
            ["run", "corpus:desktop-media", "--governor", "dbs",
             "--scale", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "desktop-media" in out

    def test_run_workload_flag_with_trace_spec(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["trace", "generate", "--out", str(corpus)]) == 0
        capsys.readouterr()
        trace_path = corpus / "web-api-mixed.trace.csv"
        assert main(
            ["run", "--workload", f"trace:{trace_path}",
             "--governor", "fixed", "--frequency", "1200",
             "--scale", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "web-api-mixed" in out
        assert "1200 MHz" in out

    def test_run_rejects_two_workloads(self, capsys):
        code = main(
            ["run", "swim", "--workload", "corpus:web-diurnal",
             "--scale", "0.05"]
        )
        assert code == 1
        assert "pass one" in capsys.readouterr().err

    def test_run_bad_trace_spec_fails_fast(self, capsys):
        code = main(["run", "trace:/does/not/exist.csv"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_experiment_corpus(self, capsys):
        assert main(["experiment", "corpus"]) == 0
        out = capsys.readouterr().out
        assert "families:" in out
        assert "Eq. 3 memory class:" in out


def test_run_resume_reruns_from_the_recorded_options(tmp_path, capsys):
    """``run --checkpoint`` records the options; ``--resume`` reruns them."""
    digest = tmp_path / "digest.json"
    checkpoint = tmp_path / "ck"
    assert main(
        ["run", "gzip", "--governor", "pm", "--limit", "13.5",
         "--scale", "0.05", "--use-paper-model",
         "--checkpoint", str(checkpoint), "--result-json", str(digest)]
    ) == 0
    fresh_out = capsys.readouterr().out
    fresh_digest = digest.read_text()
    digest.unlink()

    assert main(
        ["run", "--resume", str(checkpoint), "--result-json", str(digest)]
    ) == 0
    assert capsys.readouterr().out == fresh_out
    assert digest.read_text() == fresh_digest
    assert sorted(p.name for p in checkpoint.iterdir()) == ["manifest.json"]
