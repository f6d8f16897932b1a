"""DetectionConfig / RepairConfig: validation and defaults."""

import warnings

import pytest

from repro.config import AUTO, STORAGES, DetectionConfig, RepairConfig
from repro.datagen.cfd_catalog import zip_state_cfd
from repro.datagen.generator import TaxRecordGenerator
from repro.errors import ConfigError
from repro.pipeline import clean
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
    """``storage="rows"`` is a deprecated alias of ``"columnar"``."""

    def test_storages_and_unknown_names(self):
        assert STORAGES == ("columnar", "mmap")
        with pytest.raises(ConfigError):
            DetectionConfig(storage="bogus")

    def test_explicit_alias_warns_and_resolves(self):
        for config_class in (DetectionConfig, RepairConfig):
            with pytest.warns(DeprecationWarning, match="rows"):
                config = config_class(storage="rows")
            assert config.storage == "columnar"

    def test_environment_alias_warns_and_resolves(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "rows")
        with pytest.warns(DeprecationWarning, match="rows"):
            assert DetectionConfig().effective_storage == "columnar"

    @pytest.mark.parametrize("via", ["config", "environment"])
    def test_alias_warns_once_and_cleans_like_columnar(self, via, monkeypatch):
        relation = TaxRecordGenerator(size=300, noise=0.05, seed=3).generate_relation()
        cfds = [zip_state_cfd()]
        expected = clean(relation, cfds)
        configs = {}
        if via == "environment":
            monkeypatch.setenv("REPRO_STORAGE", "rows")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            if via == "config":
                configs = {
                    "detection": DetectionConfig(storage="rows"),
                    "repair": RepairConfig(storage="rows"),
                }
            result = clean(relation, cfds, **configs)
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert result.relation.rows == expected.relation.rows
        assert result.changes == expected.changes
        assert result.total_cost == expected.total_cost
        assert result.backends == expected.backends
