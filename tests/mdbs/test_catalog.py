"""Unit tests for the global catalog."""

import pytest

from repro.core.fitting import fit_qualitative
from repro.core.model import MultiStateCostModel
from repro.core.partition import uniform_partition
from repro.mdbs.catalog import GlobalCatalog, GlobalCatalogError, TableFacts
from repro.mdbs.registry import CostModelRegistryError

from ..core.synthetic import stepped_sample


def make_model(label="G1"):
    X, y, probing = stepped_sample(true_states=2, n=100, seed=1)
    fit = fit_qualitative(X, y, probing, uniform_partition(0, 1, 2), ("x",))
    return MultiStateCostModel.from_fit(fit, label, "unary", "iupma")


def make_facts(site="s1", name="t1"):
    return TableFacts(
        site=site,
        name=name,
        cardinality=100,
        tuple_length=24,
        column_widths={"a": 8, "b": 8, "c": 8},
        column_stats={"a": (0, 99, 50)},
        indexed_columns={"a": "nonclustered"},
    )


@pytest.fixture
def catalog():
    cat = GlobalCatalog()
    cat.register_site("s1")
    cat.register_site("s2")
    return cat


class TestSites:
    def test_registration_idempotent(self, catalog):
        catalog.register_site("s1")
        assert catalog.sites == ("s1", "s2")

    def test_unknown_site_rejected(self, catalog):
        with pytest.raises(GlobalCatalogError):
            catalog.register_table(make_facts(site="s9"))


class TestTables:
    def test_register_and_lookup(self, catalog):
        catalog.register_table(make_facts())
        assert catalog.table("s1", "t1").cardinality == 100

    def test_missing_table_rejected(self, catalog):
        with pytest.raises(GlobalCatalogError):
            catalog.table("s1", "nope")

    def test_locate_across_sites(self, catalog):
        catalog.register_table(make_facts("s1", "t1"))
        catalog.register_table(make_facts("s2", "t1"))
        catalog.register_table(make_facts("s2", "t2"))
        assert catalog.locate("t1") == ["s1", "s2"]
        assert catalog.locate("t2") == ["s2"]
        assert catalog.locate("t9") == []

    def test_tables_at_site(self, catalog):
        catalog.register_table(make_facts("s1", "t1"))
        catalog.register_table(make_facts("s1", "t2"))
        assert [f.name for f in catalog.tables_at("s1")] == ["t1", "t2"]
        assert catalog.tables_at("s2") == []


class TestCostModels:
    def test_store_and_fetch(self, catalog):
        model = make_model()
        catalog.registry.publish("s1", model)
        assert catalog.registry.active_model("s1", "G1") is model
        assert catalog.registry.has_model("s1", "G1")
        assert not catalog.registry.has_model("s2", "G1")

    def test_missing_model_rejected(self, catalog):
        with pytest.raises(CostModelRegistryError):
            catalog.registry.active_model("s1", "G1")

    def test_models_at_site(self, catalog):
        catalog.registry.publish("s1", make_model("G1"))
        catalog.registry.publish("s1", make_model("G3"))
        labels = [m.class_label for m in catalog.registry.active_models_at("s1")]
        assert labels == ["G1", "G3"]

    def test_export_import_round_trip(self, catalog):
        model = make_model()
        catalog.registry.publish("s1", model)
        payload = catalog.export_models()
        fresh = GlobalCatalog()
        fresh.import_models(payload)
        restored = fresh.registry.active_model("s1", "G1")
        assert restored.predict({"x": 10.0}, 0.5) == pytest.approx(
            model.predict({"x": 10.0}, 0.5)
        )

    def test_export_is_json_compatible(self, catalog):
        import json

        catalog.registry.publish("s1", make_model())
        json.dumps(catalog.export_models())


class TestFilePersistence:
    def test_save_load_round_trip(self, catalog, tmp_path):
        model = make_model()
        catalog.registry.publish("s1", model)
        path = tmp_path / "models.json"
        catalog.save_models(path)

        fresh = GlobalCatalog()
        assert fresh.load_models(path) == 1
        restored = fresh.registry.active_model("s1", "G1")
        assert restored.predict({"x": 4.0}, 0.3) == pytest.approx(
            model.predict({"x": 4.0}, 0.3)
        )
        # Prediction intervals survive the file round trip too.
        assert restored.predict_with_interval({"x": 4.0}, 0.3) == pytest.approx(
            model.predict_with_interval({"x": 4.0}, 0.3)
        )

    def test_saved_file_is_readable_json(self, catalog, tmp_path):
        import json

        catalog.registry.publish("s2", make_model("G3"))
        path = tmp_path / "models.json"
        catalog.save_models(path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 3
        assert "s2/G3" in payload["models"]

    def test_legacy_flat_payload_still_loads(self, catalog, tmp_path):
        import json

        model = make_model("G1")
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"s1/G1": model.to_dict()}))
        fresh = GlobalCatalog()
        assert fresh.load_models(path) == 1
        assert fresh.registry.active_model("s1", "G1").class_label == "G1"

    def test_unknown_schema_version_rejected(self, catalog, tmp_path):
        import json

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 99, "models": {}}))
        fresh = GlobalCatalog()
        with pytest.raises(GlobalCatalogError, match="schema_version"):
            fresh.load_models(path)

    def test_versions_round_trip_with_provenance(self, catalog, tmp_path):
        from repro.mdbs.registry import ModelProvenance

        v1 = catalog.registry.publish(
            "s1",
            make_model("G1"),
            ModelProvenance(
                derived_at=120.0,
                algorithm="iupma",
                sample_size=100,
                r_squared=0.99,
                standard_error=0.01,
                config_hash="abc123",
            ),
        )
        v2 = catalog.registry.publish("s1", make_model("G1"))
        assert (v1.version, v2.version) == (1, 2)
        path = tmp_path / "versions.json"
        catalog.save_models(path)

        fresh = GlobalCatalog()
        assert fresh.load_models(path) == 1
        history = fresh.registry.history("s1", "G1")
        assert [v.version for v in history] == [1, 2]
        assert history[0].provenance.derived_at == 120.0
        assert history[0].provenance.config_hash == "abc123"
        assert history[0].provenance.sample_size == 100
        # The active pointer round-trips: v2 is served.
        assert fresh.registry.active_version("s1", "G1").version == 2
        # Rollback after a reload still finds the earlier version.
        fresh.registry.rollback("s1", "G1")
        assert fresh.registry.active_version("s1", "G1").version == 1


class TestImportAtomicity:
    """A corrupt payload is rejected whole: no site, version, active
    pointer, or subscriber event is left behind."""

    @staticmethod
    def payload_with(corrupt):
        source = GlobalCatalog()
        source.register_site("s1")
        source.register_site("s2")
        source.registry.publish("s1", make_model("G1"))
        source.registry.publish("s2", make_model("G3"))
        payload = source.export_models()
        corrupt(payload["models"]["s2/G3"])
        return payload

    def assert_rejected_untouched(self, payload):
        target = GlobalCatalog()
        target.register_site("s0")
        original = make_model("G1")
        target.registry.publish("s0", original)
        before = target.export_models()
        events = []
        target.registry.subscribe(lambda *event: events.append(event))

        with pytest.raises(CostModelRegistryError):
            target.import_models(payload)

        assert target.sites == ("s0",)
        assert target.export_models() == before
        assert target.registry.keys() == [("s0", "G1")]
        assert target.registry.active_model("s0", "G1") is original
        assert events == []

    def test_second_record_missing_model(self):
        def drop_model(record):
            del record["versions"][0]["model"]

        self.assert_rejected_untouched(self.payload_with(drop_model))

    def test_dangling_active_version(self):
        def dangle(record):
            record["active"] = 99

        self.assert_rejected_untouched(self.payload_with(dangle))
