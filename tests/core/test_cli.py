"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_build_defaults(self):
        args = build_parser().parse_args(["build"])
        assert args.scale == 0.1
        assert args.output == "rsd15k.jsonl"

    def test_evaluate_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--model", "nope"])

    def test_bench_choices(self):
        args = build_parser().parse_args(["bench", "table1"])
        assert args.experiment == "table1"
        assert args.profile is False
        assert args.profile_output == "perf_profile.json"

    def test_bench_profile_flags(self):
        args = build_parser().parse_args(
            ["bench", "table1", "--profile", "--profile-output", "out.json"]
        )
        assert args.profile is True
        assert args.profile_output == "out.json"

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.format == "prometheus"
        assert args.scale == 0.05
        assert args.requests == 96
        assert args.input is None

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.format == "table"
        assert args.limit == 10
        assert args.slow_log is None


class TestCommands:
    def test_build_stats_datacard(self, tmp_path, capsys):
        out = tmp_path / "ds.jsonl"
        code = main(["build", "--scale", "0.02", "--output", str(out)])
        assert code == 0
        assert out.exists()
        code = main(["stats", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "posts:" in printed
        assert "Ideation" in printed
        card_path = tmp_path / "DATASHEET.md"
        code = main(["datacard", str(out), "--output", str(card_path)])
        assert code == 0
        assert "Dataset card" in card_path.read_text()

    def test_datacard_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "ds.jsonl"
        main(["build", "--scale", "0.02", "--output", str(out)])
        capsys.readouterr()
        assert main(["datacard", str(out)]) == 0
        assert "## Composition" in capsys.readouterr().out

    def test_bench_profile_writes_report(self, tmp_path, capsys, monkeypatch):
        import json

        from repro import perf
        from repro.experiments import table1_distribution

        def fake_main():
            with perf.span("fake-experiment"):
                pass

        monkeypatch.setattr(table1_distribution, "main", fake_main)
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "table1", "--profile", "--profile-output", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "perf profile" in printed
        assert "fake-experiment" in printed
        payload = json.loads(out.read_text())
        assert "fake-experiment" in payload["perf_report"]
        assert payload["experiment"] == "table1"

    def test_perf_env_prints_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PERF", "1")
        out = tmp_path / "ds.jsonl"
        assert main(["build", "--scale", "0.02", "--output", str(out)]) == 0
        assert "perf profile" in capsys.readouterr().out

    def test_perf_report_printed_on_error_path(self, capsys, monkeypatch):
        """A failing command must still print the REPRO_PERF report —
        failed runs are exactly the ones that need debugging."""
        from repro import perf
        from repro.experiments import table1_distribution

        monkeypatch.setenv("REPRO_PERF", "1")

        def exploding_main():
            with perf.span("doomed-experiment"):
                pass
            raise RuntimeError("mid-command failure")

        monkeypatch.setattr(table1_distribution, "main", exploding_main)
        with pytest.raises(RuntimeError, match="mid-command failure"):
            main(["bench", "table1"])
        printed = capsys.readouterr().out
        assert "perf profile" in printed
        assert "doomed-experiment" in printed


class TestTelemetryCommands:
    def test_metrics_prometheus_covers_serve_metrics(self, tmp_path, capsys):
        from repro.perf import validate_prometheus

        out = tmp_path / "metrics.prom"
        code = main([
            "metrics", "--scale", "0.02", "--requests", "16",
            "--batch-size", "8", "--output", str(out),
        ])
        assert code == 0
        text = out.read_text()
        families = validate_prometheus(text)
        # serve counters, gauges and histograms all exported
        assert "repro_serve_requests_total" in families
        assert "repro_serve_queue_depth" in families
        assert "repro_serve_batch_seconds" in families
        assert "repro_serve_request_latency_seconds" in families

    def test_metrics_json_then_input_rerender(self, tmp_path, capsys):
        from repro.perf import validate_prometheus

        snap_path = tmp_path / "snapshot.json"
        code = main([
            "metrics", "--scale", "0.02", "--requests", "16",
            "--format", "json", "--output", str(snap_path),
        ])
        assert code == 0
        import json

        snap = json.loads(snap_path.read_text())
        assert "perf" in snap
        assert snap["traces"]["stats"]["finished"] == 16
        capsys.readouterr()
        # Re-render the saved snapshot to Prometheus without a rebuild.
        assert main(["metrics", "--input", str(snap_path)]) == 0
        text = capsys.readouterr().out
        assert "repro_serve_requests_total" in text
        validate_prometheus(text)

    def test_trace_table_output(self, capsys):
        code = main([
            "trace", "--scale", "0.02", "--requests", "8",
            "--batch-size", "4", "--limit", "3",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "req-" in printed
        assert "enqueue@" in printed
        assert "complete@" in printed
