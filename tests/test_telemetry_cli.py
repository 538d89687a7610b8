"""CLI and exporter tests for the observability surface.

``python -m repro.telemetry`` exit codes and artifact schemas
(--ledger / --prometheus / report), plus unit coverage of the
Prometheus text-exposition renderer.
"""

import json

import pytest

from repro.telemetry.cli import main as telemetry_main
from repro.telemetry.ledger import (RUN_RECORD_SCHEMA, RunRecord,
                                    read_ledger)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import (PROMETHEUS_CONTENT_TYPE,
                                        to_prometheus, write_prometheus)


class TestExitCodes:
    def test_report_without_path_is_usage_error(self, capsys):
        assert telemetry_main(["report"]) == 2
        assert "requires a ledger" in capsys.readouterr().err

    def test_report_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = telemetry_main(["report", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "cannot read ledger" in capsys.readouterr().err

    def test_report_garbage_ledger_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert telemetry_main(["report", str(bad)]) == 2
        assert "bad ledger row" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["[1, 2]", '{"run_id": "r", '
                                     '"kind": "host.call", "bulk": [1]}'],
                             ids=["not-an-object", "bulk-list"])
    def test_report_wrongly_shaped_row_is_usage_error(self, tmp_path, capsys,
                                                      row):
        """A row of the wrong shape is one line on stderr, not a
        traceback."""
        bad = tmp_path / "bad.jsonl"
        bad.write_text(row + "\n")
        assert telemetry_main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read ledger ")
        assert "bad.jsonl:1: bad ledger row" in err
        assert "Traceback" not in err

    def test_stray_path_rejected_outside_report(self, capsys):
        rc = telemetry_main(["atax", "ledger.jsonl"])
        assert rc == 2
        assert "only applies to 'report'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["drift", "--engine-mode", "certified"],
        ["axpydot", "--engine-mode", "certified"],
    ], ids=["drift", "axpydot"])
    def test_refused_design_is_one_typed_line(self, argv, capsys):
        """Certified mode refuses the width-16 AXPYDOT (FB402) before
        cycle 0: exit 1 and one typed line on stderr, for the drift
        sweep as for the app."""
        assert telemetry_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("AnalysisError: ") and "FB402" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["atax", "--width", "0"], ["atax", "--n", "0"],
        ["bicg", "--n", "-3"], ["gemver", "--tile", "0"],
        ["atax", "--tile", "-2"],
    ], ids=["width-zero", "n-zero", "n-negative", "tile-zero",
            "tile-negative"])
    def test_nonpositive_size_is_a_usage_error(self, argv, capsys):
        """Sizes are positive ints: no silent default, no traceback."""
        with pytest.raises(SystemExit) as exc:
            telemetry_main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}: expected a positive integer" in \
            capsys.readouterr().err


class TestUnwritableOutputs:
    """An output path the CLI cannot write is one line on stderr and exit
    2, before anything is simulated (nothing on stdout)."""

    @pytest.mark.parametrize("flag", ["--trace", "--metrics",
                                      "--prometheus", "--ledger"])
    def test_missing_directory(self, flag, tmp_path, capsys):
        path = tmp_path / "absent" / "out"
        assert telemetry_main(["atax", flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"cannot write {path}: No such file or directory\n"

    def test_directory_as_output(self, tmp_path, capsys):
        assert telemetry_main(["atax", "--trace", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"cannot write {tmp_path}: Is a directory\n"


class TestLedgerArtifacts:
    def test_ledger_and_prometheus_written(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        prom = tmp_path / "metrics.prom"
        rc = telemetry_main(["atax", "--n", "16", "--tile", "4",
                             "--width", "4",
                             "--ledger", str(ledger),
                             "--prometheus", str(prom)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ledger written to" in out
        assert "prometheus metrics written to" in out

        records = read_ledger(str(ledger))
        assert records, "expected at least one run record"
        # the apps run through execute_plan: one execute_plan record
        # per stage, its engine run a child of it
        assert {r.kind for r in records} == {"engine.run", "execute_plan"}
        # every row is schema-tagged and losslessly re-serializable
        for line in ledger.read_text().splitlines():
            doc = json.loads(line)
            assert doc["schema"] == RUN_RECORD_SCHEMA
            assert RunRecord.from_dict(doc).to_dict() == doc

        text = prom.read_text()
        assert "repro_sim_cycles" in text
        assert "# TYPE" in text

    def test_metrics_runs_carry_run_ids(self, tmp_path):
        metrics = tmp_path / "m.json"
        ledger = tmp_path / "l.jsonl"
        rc = telemetry_main(["atax", "--n", "16", "--tile", "4",
                             "--width", "4",
                             "--metrics", str(metrics),
                             "--ledger", str(ledger)])
        assert rc == 0
        mdoc = json.loads(metrics.read_text())
        run_ids = {r["run_id"] for r in mdoc["runs"]}
        ledger_ids = {r.run_id for r in read_ledger(str(ledger))}
        assert run_ids and run_ids <= ledger_ids


class TestReportSubcommand:
    def _write(self, path, records):
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r.to_dict()) + "\n")

    def test_clean_ledger_reports_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.jsonl"
        self._write(path, [
            RunRecord(run_id="r-1", kind="engine.run", plan_key="pk",
                      cycles=90, predicted_cycles=(10, 100), in_band=True),
        ])
        assert telemetry_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run ledger: 1 records" in out
        assert "0 band regressions" in out

    def test_regression_flips_the_exit_code(self, tmp_path, capsys):
        path = tmp_path / "slow.jsonl"
        self._write(path, [
            RunRecord(run_id="r-1", kind="engine.run", plan_key="pk",
                      cycles=200, predicted_cycles=(10, 100)),
        ])
        assert telemetry_main(["report", str(path)]) == 1
        assert "+100%!" in capsys.readouterr().out

    def test_drift_threshold_is_configurable(self, tmp_path, capsys):
        path = tmp_path / "edge.jsonl"
        self._write(path, [
            RunRecord(run_id="r-1", kind="engine.run", plan_key="pk",
                      cycles=120, predicted_cycles=(10, 100)),
        ])
        # 20% over the band: flagged at a 10% threshold...
        assert telemetry_main(["report", str(path),
                               "--drift-threshold", "0.1"]) == 1
        capsys.readouterr()
        # ... tolerated at 50%
        assert telemetry_main(["report", str(path),
                               "--drift-threshold", "0.5"]) == 0


class TestPrometheusExport:
    def test_counter_gets_total_suffix(self):
        reg = MetricsRegistry()
        reg.counter("plan_cache.requests", "lookups").inc(
            2, cache="host.plan", result="hit")
        text = to_prometheus(reg)
        assert "# TYPE repro_plan_cache_requests_total counter" in text
        assert ('repro_plan_cache_requests_total'
                '{cache="host.plan",result="hit"} 2') in text

    def test_gauge_and_help_lines(self):
        reg = MetricsRegistry()
        reg.gauge("channels.occupancy", "live occupancy").set(
            7.5, channel="A2")
        text = to_prometheus(reg)
        assert "# HELP repro_channels_occupancy live occupancy" in text
        assert "# TYPE repro_channels_occupancy gauge" in text
        assert 'repro_channels_occupancy{channel="A2"} 7.5' in text

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("kernel.work", "work", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v, kernel="dot")
        text = to_prometheus(reg)
        assert 'repro_kernel_work_bucket{kernel="dot",le="1"} 1' in text
        assert 'repro_kernel_work_bucket{kernel="dot",le="10"} 2' in text
        assert 'repro_kernel_work_bucket{kernel="dot",le="100"} 3' in text
        assert 'repro_kernel_work_bucket{kernel="dot",le="+Inf"} 4' in text
        assert 'repro_kernel_work_sum{kernel="dot"} 555.5' in text
        assert 'repro_kernel_work_count{kernel="dot"} 4' in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("events", "e").inc(1, what='say "hi"\nback\\slash')
        text = to_prometheus(reg)
        assert r'what="say \"hi\"\nback\\slash"' in text

    def test_name_sanitization(self):
        reg = MetricsRegistry()
        reg.gauge("weird-name.with/chars", "g").set(1)
        assert "repro_weird_name_with_chars 1" in to_prometheus(reg)

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_write_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c", "help").inc(3)
        path = tmp_path / "m.prom"
        text = write_prometheus(reg, str(path))
        assert path.read_text() == text
        assert "repro_c_total 3" in text

    def test_content_type_constant(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestSampleCommandStability:
    @pytest.mark.parametrize("mode", ["event", "bulk"])
    def test_atax_modes_share_ledger_schema(self, tmp_path, mode):
        ledger = tmp_path / f"{mode}.jsonl"
        rc = telemetry_main(["atax", "--n", "16", "--tile", "4",
                             "--width", "4", "--engine-mode", mode,
                             "--ledger", str(ledger)])
        assert rc == 0
        records = read_ledger(str(ledger))
        assert all(r.engine_mode == mode for r in records
                   if r.kind == "engine.run")

    def test_certified_axpydot_bands_populated(self, tmp_path):
        # atax's tiled readers carry no static pattern, so axpydot is
        # the CLI's certified-capable composition.
        ledger = tmp_path / "certified.jsonl"
        rc = telemetry_main(["axpydot", "--n", "64", "--width", "4",
                             "--engine-mode", "certified",
                             "--ledger", str(ledger)])
        assert rc == 0
        ok = [r for r in read_ledger(str(ledger))
              if r.kind == "engine.run" and r.outcome == "ok"]
        assert ok and all(r.predicted_cycles is not None for r in ok)
        assert all(r.in_band for r in ok)
        assert all(r.bulk is not None for r in ok)
