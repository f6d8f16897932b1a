"""Smoke tests for the Figure 9 experiment drivers (tiny workloads, shape checks).

The full-size runs live under ``benchmarks/``; here we only verify that every
driver produces the series its figure plots, with the expected columns and
the qualitative relationships the paper reports where they are cheap to check.
"""

import pytest

from repro.bench.config import quick_config
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    fig9a_cnf_vs_dnf_constants,
    fig9b_cnf_vs_dnf_mixed,
    fig9c_qc_vs_qv,
    fig9d_tabsz_scaling,
    fig9e_numconsts_scaling,
    fig9f_noise_scaling,
    merged_vs_separate,
)
from repro.bench.reporting import format_table


@pytest.fixture(scope="module")
def config():
    return quick_config()


class TestDrivers:
    def test_fig9a_columns(self, config):
        rows = fig9a_cnf_vs_dnf_constants(config)
        assert len(rows) == len(config.sz_sweep())
        assert set(rows[0]) == {
            "SZ", "cnf_seconds", "dnf_seconds", "dnf_speedup", "peak_rss_mb",
        }

    def test_fig9b_columns(self, config):
        rows = fig9b_cnf_vs_dnf_mixed(config)
        assert all(row["cnf_seconds"] > 0 and row["dnf_seconds"] > 0 for row in rows)

    def test_fig9c_columns(self, config):
        rows = fig9c_qc_vs_qv(config)
        assert set(rows[0]) == {"SZ", "qc_seconds", "qv_seconds", "peak_rss_mb"}

    def test_fig9d_columns(self, config):
        rows = fig9d_tabsz_scaling(config)
        assert set(rows[0]) == {
            "TABSZ", "numattrs3_seconds", "numattrs4_seconds", "peak_rss_mb",
        }
        assert [row["TABSZ"] for row in rows] == config.tabsz_sweep()

    def test_fig9e_columns(self, config):
        rows = fig9e_numconsts_scaling(config)
        assert [row["NUMCONSTs"] for row in rows] == list(config.numconsts_sweep)

    def test_fig9f_columns_and_violation_monotonicity(self, config):
        rows = fig9f_noise_scaling(config)
        assert [row["NOISE"] for row in rows] == list(config.noise_sweep)
        assert rows[0]["violations"] <= rows[-1]["violations"]

    def test_merged_vs_separate_columns(self, config):
        rows = merged_vs_separate(config, num_cfds=2)
        assert set(rows[0]) == {
            "SZ", "num_cfds", "separate_seconds", "merged_seconds", "peak_rss_mb",
        }

    def test_registry_contains_every_figure(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f", "merged",
        }

    def test_verbose_mode_prints_a_table(self, config, capsys):
        fig9c_qc_vs_qv(config, verbose=True)
        captured = capsys.readouterr()
        assert "Figure 9(c)" in captured.out


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"SZ": 1000, "seconds": 0.123456}, {"SZ": 20000, "seconds": 1.5}]
        table = format_table(rows, title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "SZ" in lines[1] and "seconds" in lines[1]
        assert "0.1235" in table

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_cli_entry_point(self, capsys, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        exit_code = main(["fig9c"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 9(c)" in captured.out

    def test_cli_rejects_unknown_experiment(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_write_json_artifact(self, tmp_path):
        from repro.bench.reporting import write_json

        rows = [{"SZ": 1000, "seconds": 0.5}]
        path = write_json(tmp_path, "demo", rows, metadata={"scale": 0.1})
        assert path.name == "BENCH_demo.json"
        import json

        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["experiment"] == "demo"
        assert payload["rows"] == rows
        assert payload["metadata"]["scale"] == 0.1
        assert payload["generated_at"].endswith("Z")

    def test_cli_json_dir_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        exit_code = main(["fig9c", "--json-dir", str(tmp_path)])
        assert exit_code == 0
        assert (tmp_path / "BENCH_fig9c.json").exists()
