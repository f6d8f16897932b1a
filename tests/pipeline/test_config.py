"""DetectionConfig / RepairConfig: validation and defaults."""

import dataclasses
import inspect
import warnings

import pytest

from repro.config import AUTO, STORAGES, DetectionConfig, RepairConfig
from repro.datagen.cust import cust_cfds, cust_relation
from repro.errors import ConfigError
from repro.pipeline import Cleaner
from repro.repair.cost import CostModel


class TestDetectionConfig:
    def test_defaults(self):
        config = DetectionConfig()
        assert config.method == AUTO
        assert config.strategy is None
        assert config.effective_strategy == "per_cfd"
        assert config.effective_form == "dnf"

    def test_sql_knobs_accepted_for_sql(self):
        config = DetectionConfig(method="sql", strategy="merged", form="cnf")
        assert config.effective_strategy == "merged"
        assert config.effective_form == "cnf"

    def test_sql_knobs_rejected_for_other_backends(self):
        with pytest.raises(ConfigError):
            DetectionConfig(method="indexed", strategy="merged")
        with pytest.raises(ConfigError):
            DetectionConfig(method="inmemory", form="cnf")

    def test_sql_knobs_rejected_with_auto(self):
        # "auto" never resolves to the SQL backend, so latent SQL knobs would
        # be a guaranteed delayed crash — reject them up front.
        with pytest.raises(ConfigError):
            DetectionConfig(strategy="merged")
        with pytest.raises(ConfigError):
            DetectionConfig(form="cnf")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            DetectionConfig(method="sql", strategy="telepathy")

    def test_unknown_form_rejected(self):
        with pytest.raises(ConfigError):
            DetectionConfig(method="sql", form="xnf")

    def test_with_method_pins_auto(self):
        config = DetectionConfig()
        pinned = config.with_method("indexed")
        assert pinned.method == "indexed"
        assert config.method == AUTO  # frozen: original untouched
        assert pinned.with_method("indexed") is pinned

    def test_frozen(self):
        with pytest.raises(Exception):
            DetectionConfig().method = "sql"

    def test_summary_is_json_friendly(self):
        import json

        assert json.dumps(DetectionConfig(method="sql", form="cnf").summary())


class TestRepairConfig:
    def test_defaults(self):
        config = RepairConfig()
        assert config.method == AUTO
        assert config.max_passes == 25
        assert config.check_consistency is True
        assert config.cost_model is None

    def test_max_passes_must_be_positive(self):
        with pytest.raises(ConfigError):
            RepairConfig(max_passes=0)

    def test_cost_model_carried(self):
        model = CostModel(tuple_weights={0: 2.0})
        assert RepairConfig(cost_model=model).cost_model is model

    def test_with_method_pins_auto(self):
        config = RepairConfig()
        assert config.with_method("scan").method == "scan"
        assert config.method == AUTO


class TestRowsStorageAlias:
    """The retired ``storage="rows"`` alias is an unknown storage name."""

    def test_storages_and_unknown_names(self):
        assert STORAGES == ("columnar", "mmap")
        with pytest.raises(ConfigError):
            DetectionConfig(storage="bogus")

    def test_explicit_alias_is_rejected(self):
        for config_class in (DetectionConfig, RepairConfig):
            with pytest.raises(ConfigError, match="unknown storage 'rows'"):
                config_class(storage="rows")

    def test_environment_alias_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "rows")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert DetectionConfig().storage == RepairConfig().storage == "columnar"


class TestConfigSurface:
    """Each engine knob is set one way: a keyword on one of these three."""

    SHARED = ["method", "workers", "shard_count", "storage", "kernel", "spill_dir"]

    def test_knobs_are_pinned(self):
        def names(config_class):
            return [field.name for field in dataclasses.fields(config_class)]

        assert names(DetectionConfig) == self.SHARED + [
            "strategy",
            "form",
            "expand_variable_violations",
        ]
        assert names(RepairConfig) == self.SHARED + [
            "max_passes",
            "check_consistency",
            "cost_model",
        ]
        assert list(inspect.signature(Cleaner.__init__).parameters) == [
            "self",
            "detection",
            "repair",
            "verify_method",
            "max_rounds",
            "analysis",
        ]

    def test_engine_environment_variables_change_nothing(self, monkeypatch):
        def run():
            result = Cleaner().clean(cust_relation(), cust_cfds())
            report = result.analysis_report
            return result.backends, result.clean, report.to_dict()["diagnostics"]

        unset = run()
        monkeypatch.setenv("REPRO_STORAGE", "mmap")
        monkeypatch.setenv("REPRO_KERNEL", "python")
        monkeypatch.setenv("REPRO_ANALYSIS", "strict")
        assert run() == unset
