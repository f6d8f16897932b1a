"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import load_cfds, load_relation_csv, main
from repro.datagen.cust import cust_cfds, cust_relation
from repro.io.json_format import write_cfd_json
from repro.io.text_format import write_cfd_file


@pytest.fixture
def workspace(tmp_path):
    """A CSV of the cust instance plus the Figure 2 CFDs in both rule formats."""
    data_path = tmp_path / "cust.csv"
    cust_relation().to_csv(data_path)
    rules_path = tmp_path / "rules.cfd"
    write_cfd_file(rules_path, cust_cfds())
    json_rules_path = tmp_path / "rules.json"
    write_cfd_json(json_rules_path, cust_cfds())
    return {
        "dir": tmp_path,
        "data": str(data_path),
        "rules": str(rules_path),
        "json_rules": str(json_rules_path),
    }


class TestLoaders:
    def test_load_relation_csv(self, workspace):
        relation = load_relation_csv(workspace["data"])
        assert len(relation) == 6
        assert relation.schema.names == cust_relation().schema.names

    def test_load_relation_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_relation_csv(str(tmp_path / "nope.csv"))

    def test_load_cfds_text_and_json(self, workspace):
        assert load_cfds(workspace["rules"]) == cust_cfds()
        assert load_cfds(workspace["json_rules"]) == cust_cfds()


class TestDetectCommand:
    def test_detect_finds_violations_and_returns_1(self, workspace, capsys):
        code = main(["detect", "--data", workspace["data"], "--cfds", workspace["rules"]])
        output = capsys.readouterr().out
        assert code == 1
        assert "violations" in output

    def test_detect_writes_json_report(self, workspace, capsys):
        report_path = workspace["dir"] / "report.json"
        main([
            "detect", "--data", workspace["data"], "--cfds", workspace["rules"],
            "--output", str(report_path), "--quiet",
        ])
        payload = json.loads(report_path.read_text())
        assert sorted(payload["violating_tuples"]) == [0, 1, 2, 3]

    def test_detect_inmemory_method(self, workspace):
        code = main([
            "detect", "--data", workspace["data"], "--cfds", workspace["rules"],
            "--method", "inmemory", "--quiet",
        ])
        assert code == 1

    def test_detect_indexed_method(self, workspace, tmp_path):
        report_path = tmp_path / "indexed.json"
        code = main([
            "detect", "--data", workspace["data"], "--cfds", workspace["rules"],
            "--method", "indexed", "--output", str(report_path), "--quiet",
        ])
        assert code == 1
        payload = json.loads(report_path.read_text())
        assert sorted(payload["violating_tuples"]) == [0, 1, 2, 3]

    def test_detect_clean_data_returns_0(self, workspace, tmp_path, capsys):
        clean_rules = tmp_path / "clean.cfd"
        clean_rules.write_text("cfd phi1 on cust: [CC = 44, ZIP] -> [STR]\n")
        code = main(["detect", "--data", workspace["data"], "--cfds", str(clean_rules)])
        assert code == 0

    def test_detect_missing_file_returns_2(self, workspace, capsys):
        code = main(["detect", "--data", "missing.csv", "--cfds", workspace["rules"]])
        assert code == 2

    def test_spill_dir_under_a_regular_file_returns_2(self, workspace, capsys):
        # Exit 1 means "not clean"; an I/O failure is a usage/IO error (2)
        # reported on one line, not a traceback.
        blocker = workspace["dir"] / "blocker"
        blocker.write_text("")
        code = main([
            "clean", "--data", workspace["data"], "--cfds", workspace["rules"],
            "--storage", "mmap", "--spill-dir", str(blocker / "spill"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRepairCommand:
    def test_repair_writes_clean_csv(self, workspace, capsys):
        output_path = workspace["dir"] / "repaired.csv"
        code = main([
            "repair", "--data", workspace["data"], "--cfds", workspace["rules"],
            "--output", str(output_path), "--changes",
        ])
        assert code == 0
        assert output_path.exists()
        # the repaired file passes detection
        code = main(["detect", "--data", str(output_path), "--cfds", workspace["rules"], "--quiet"])
        assert code == 0


class TestCleanCommand:
    def test_clean_writes_verified_csv_and_audit(self, workspace, capsys):
        output_path = workspace["dir"] / "clean.csv"
        audit_path = workspace["dir"] / "audit.json"
        code = main([
            "clean", "--data", workspace["data"], "--cfds", workspace["rules"],
            "--output", str(output_path), "--audit", str(audit_path),
        ])
        assert code == 0
        assert "backends" in capsys.readouterr().out
        # the cleaned file passes detection
        assert main(["detect", "--data", str(output_path), "--cfds", workspace["rules"], "--quiet"]) == 0
        audit = json.loads(audit_path.read_text())
        assert audit["clean"] is True
        assert audit["initial_violations"] == 4
        assert audit["final_violations"] == 0
        assert audit["cell_changes"]
        assert audit["pass_violation_counts"][0] == 4

    def test_clean_with_pinned_backends(self, workspace, tmp_path):
        output_path = tmp_path / "clean.csv"
        code = main([
            "clean", "--data", workspace["data"], "--cfds", workspace["rules"],
            "--output", str(output_path),
            "--detect-method", "indexed", "--repair-method", "incremental",
        ])
        assert code == 0

    def test_clean_with_parallel_backends_and_workers(self, workspace, tmp_path, capsys):
        output_path = tmp_path / "clean.csv"
        code = main([
            "clean", "--data", workspace["data"], "--cfds", workspace["rules"],
            "--output", str(output_path),
            "--detect-method", "parallel", "--repair-method", "parallel",
            "--workers", "2", "--shard-count", "3",
        ])
        assert code == 0
        assert "repair=parallel" in capsys.readouterr().out
        assert main(["detect", "--data", str(output_path), "--cfds", workspace["rules"], "--quiet"]) == 0

    def test_workers_with_serial_backend_is_a_config_error(self, workspace, tmp_path, capsys):
        code = main([
            "clean", "--data", workspace["data"], "--cfds", workspace["rules"],
            "--output", str(tmp_path / "clean.csv"),
            "--detect-method", "indexed", "--repair-method", "incremental",
            "--workers", "2",
        ])
        assert code == 2
        assert "parallel backend" in capsys.readouterr().err

    def test_clean_from_sqlite(self, workspace, tmp_path, capsys):
        import sqlite3

        from repro.datagen.cust import cust_relation

        relation = cust_relation()
        db_path = tmp_path / "cust.db"
        connection = sqlite3.connect(db_path)
        columns = ", ".join(f'"{name}" TEXT' for name in relation.schema.names)
        connection.execute(f"CREATE TABLE cust ({columns})")
        connection.executemany(
            f"INSERT INTO cust VALUES ({', '.join('?' * len(relation.schema))})",
            list(relation.rows),
        )
        connection.commit()
        connection.close()
        output_path = tmp_path / "clean.csv"
        code = main([
            "clean", "--sqlite", str(db_path), "--table", "cust",
            "--cfds", workspace["rules"], "--output", str(output_path),
        ])
        assert code == 0
        assert main(["detect", "--data", str(output_path), "--cfds", workspace["rules"], "--quiet"]) == 0

    def test_clean_without_data_is_a_usage_error(self, workspace, capsys):
        code = main(["clean", "--cfds", workspace["rules"]])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_data_and_sqlite_together_rejected(self, workspace, tmp_path, capsys):
        code = main([
            "clean", "--data", workspace["data"], "--sqlite", str(tmp_path / "x.db"),
            "--cfds", workspace["rules"],
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestGenerateCommand:
    def test_generate_cust_with_rules(self, tmp_path, capsys):
        data_path = tmp_path / "cust.csv"
        rules_path = tmp_path / "rules.cfd"
        code = main([
            "generate", "--dataset", "cust",
            "--output", str(data_path), "--rules", str(rules_path),
        ])
        assert code == 0
        assert len(load_relation_csv(str(data_path))) == 6
        assert len(load_cfds(str(rules_path))) == 3

    def test_generate_tax_then_clean_roundtrip(self, tmp_path):
        data_path = tmp_path / "tax.csv"
        rules_path = tmp_path / "tax.cfd"
        clean_path = tmp_path / "clean.csv"
        assert main([
            "generate", "--dataset", "tax", "--size", "300", "--noise", "0.05",
            "--seed", "7", "--output", str(data_path), "--rules", str(rules_path),
        ]) == 0
        assert len(load_relation_csv(str(data_path))) == 300
        assert main([
            "clean", "--data", str(data_path), "--cfds", str(rules_path),
            "--output", str(clean_path),
        ]) == 0
        assert main(["detect", "--data", str(clean_path), "--cfds", str(rules_path),
                     "--method", "inmemory", "--quiet"]) == 0


class TestBenchCommand:
    # The bench runs the paper's Section 5 series only; the ablations live
    # under benchmarks/ and are not bench experiments.
    @pytest.mark.parametrize("name", ["does-not-exist", "kernels", "outofcore"])
    def test_bench_rejects_unknown_experiments(self, name, capsys):
        with pytest.raises(SystemExit):
            main(["bench", name])


class TestCheckAndShowCommands:
    def test_check_consistent_rules(self, workspace, capsys):
        code = main(["check", "--cfds", workspace["rules"], "--mincover"])
        output = capsys.readouterr().out
        assert code == 0
        assert "consistent: True" in output

    def test_check_inconsistent_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfd"
        bad.write_text("[A] -> [B = b]\n[A] -> [B = c]\n")
        code = main(["check", "--cfds", str(bad)])
        assert code == 1

    def test_show_text(self, workspace, capsys):
        code = main(["show", "--cfds", workspace["rules"]])
        output = capsys.readouterr().out
        assert code == 0
        assert "phi2" in output

    def test_show_json(self, workspace, capsys):
        code = main(["show", "--cfds", workspace["json_rules"], "--json"])
        output = capsys.readouterr().out
        assert code == 0
        assert json.loads(output)["cfds"]


class TestLintCommand:
    @pytest.fixture
    def bad_rules(self, tmp_path):
        bad = tmp_path / "bad.cfd"
        bad.write_text("[A] -> [B = b]\n[A] -> [B = c]\n")
        return str(bad)

    def test_lint_clean_rules_exit_0(self, workspace, capsys):
        code = main(["lint", "--cfds", workspace["rules"]])
        output = capsys.readouterr().out
        assert code == 0
        assert "0 error(s)" in output

    def test_lint_inconsistent_rules_exit_1(self, bad_rules, capsys):
        code = main(["lint", "--cfds", bad_rules])
        output = capsys.readouterr().out
        assert code == 1
        assert "CFD001" in output

    def test_lint_json_payload(self, bad_rules, capsys):
        code = main(["lint", "--cfds", bad_rules, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert "CFD001" in payload["summary"]["codes"]
        witness = next(
            d for d in payload["diagnostics"] if d["code"] == "CFD001"
        )["witness"]
        assert witness["core_size"] == 2

    def test_lint_fast_skips_deep_checks(self, workspace, capsys):
        code = main(["lint", "--cfds", workspace["rules"], "--fast"])
        output = capsys.readouterr().out
        assert code == 0
        assert "(deep implication checks skipped)" in output

    def test_lint_with_data_enables_schema_checks(self, workspace, tmp_path, capsys):
        ghost = tmp_path / "ghost.cfd"
        ghost.write_text("cfd ghost on cust: [NOPE] -> [STR]\n")
        code = main(["lint", "--cfds", str(ghost), "--data", workspace["data"]])
        output = capsys.readouterr().out
        assert code == 1
        assert "CFD007" in output

    def test_lint_optimize_writes_an_equivalent_cover(self, tmp_path, capsys):
        from repro.core.cfd import CFD
        from repro.reasoning.implication import equivalent

        dup = tmp_path / "dup.cfd"
        write_cfd_file(dup, [
            CFD.build(["ZIP"], ["ST"], [["_", "_"]], name="twin1"),
            CFD.build(["ZIP"], ["ST"], [["_", "_"]], name="twin2"),
        ])
        out = tmp_path / "minimal.cfd"
        code = main(["lint", "--cfds", str(dup), "--optimize", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "Wrote minimal cover" in stdout
        cover = load_cfds(str(out))
        assert equivalent(cover, load_cfds(str(dup)))

    def test_lint_optimize_refuses_inconsistent_rules(self, bad_rules, tmp_path, capsys):
        out = tmp_path / "minimal.cfd"
        code = main(["lint", "--cfds", bad_rules, "--optimize", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert not out.exists()
        assert "cannot optimize" in captured.err

    def test_lint_json_stdout_stays_parseable_with_optimize(
        self, workspace, tmp_path, capsys
    ):
        out = tmp_path / "minimal.cfd"
        code = main([
            "lint", "--cfds", workspace["rules"], "--optimize", str(out), "--json",
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)  # status line went to stderr
        assert payload["optimized_cfds"] >= 1
        assert "Wrote minimal cover" in captured.err

    def test_lint_parallel_method_escalates_hazards(self, tmp_path, capsys):
        from repro.core.cfd import CFD

        rules = tmp_path / "chain.cfd"
        write_cfd_file(rules, [
            CFD.build(["A"], ["B"], [["_", "b"]], name="phi1"),
            CFD.build(["B"], ["C"], [["_", "c"]], name="phi2"),
        ])
        main(["lint", "--cfds", str(rules), "--fast", "--json"])
        default = json.loads(capsys.readouterr().out)
        main([
            "lint", "--cfds", str(rules), "--fast", "--json",
            "--repair-method", "parallel",
        ])
        parallel = json.loads(capsys.readouterr().out)
        assert default["summary"]["warnings"] == 0
        assert parallel["summary"]["warnings"] >= 1
