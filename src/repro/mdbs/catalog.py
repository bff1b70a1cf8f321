"""The MDBS global catalog.

"The cost model parameters are kept in the MDBS catalog and utilized
during query optimization" (§1).  The global catalog stores, per local
site: the globally visible schema facts (table cardinalities, tuple
lengths, column statistics, index definitions) and the derived
multi-states cost models, keyed by query class.

Cost models live in one versioned
:class:`~repro.mdbs.registry.CostModelRegistry`, exposed as
``catalog.registry``: callers publish, resolve, and roll back models
there directly.  The catalog itself only adds the persistence format
around it (:meth:`GlobalCatalog.export_models` /
:meth:`GlobalCatalog.import_models` and their file wrappers), which
also registers the sites an imported payload names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..core.model import MultiStateCostModel
from .registry import CostModelRegistry

#: Version of the on-disk cost-model payload this code writes.
#: v3 adds the model-form strategy and its online-update log to each
#: version's provenance (:class:`~repro.mdbs.registry.ModelProvenance`).
MODEL_SCHEMA_VERSION = 3

#: Payload versions :meth:`GlobalCatalog.import_models` can read.  v2
#: predates pluggable model forms; its provenance fields default to the
#: paper's batch OLS on load.  The legacy flat format is implicit v1.
SUPPORTED_MODEL_SCHEMA_VERSIONS = (2, 3)


class GlobalCatalogError(KeyError):
    """A requested site or table is not in the catalog, or a payload's
    schema version is unsupported."""


@dataclass
class TableFacts:
    """Globally visible facts about one local table."""

    site: str
    name: str
    cardinality: int
    tuple_length: int
    column_widths: dict[str, int]
    #: column -> (min, max, distinct_count); None values when unanalyzed.
    column_stats: dict[str, tuple] = field(default_factory=dict)
    indexed_columns: dict[str, str] = field(default_factory=dict)  # column -> kind
    clustered_on: str | None = None


class GlobalCatalog:
    """Site registry + schema facts + the versioned cost-model registry."""

    def __init__(self) -> None:
        self._sites: list[str] = []
        self._tables: dict[tuple[str, str], TableFacts] = {}
        self.registry = CostModelRegistry()

    # -- sites ---------------------------------------------------------

    def register_site(self, site: str) -> None:
        if site not in self._sites:
            self._sites.append(site)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._sites)

    def _require_site(self, site: str) -> None:
        if site not in self._sites:
            raise GlobalCatalogError(f"unknown site {site!r}")

    # -- schema facts ------------------------------------------------------

    def register_table(self, facts: TableFacts) -> None:
        self._require_site(facts.site)
        self._tables[(facts.site, facts.name)] = facts

    def table(self, site: str, name: str) -> TableFacts:
        try:
            return self._tables[(site, name)]
        except KeyError:
            raise GlobalCatalogError(f"no table {name!r} at site {site!r}") from None

    def tables_at(self, site: str) -> list[TableFacts]:
        self._require_site(site)
        return [f for (s, _), f in sorted(self._tables.items()) if s == site]

    def locate(self, table_name: str) -> list[str]:
        """Sites hosting a table with this name."""
        return sorted(s for (s, t) in self._tables if t == table_name)

    # -- persistence ---------------------------------------------------------

    def export_models(self) -> dict:
        """Serializable snapshot of every stored cost-model version."""
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "models": self.registry.export(),
        }

    def import_models(self, payload: dict) -> int:
        """Load an :meth:`export_models` payload; returns models loaded.

        Accepts the current versioned format (``schema_version`` 3), the
        previous versioned format (2, read with form defaults), and the
        legacy flat ``{"site/label": model_dict}`` format (implicit
        version 1).  Unknown schema versions are rejected — silently
        misreading a future payload as models would corrupt the serving
        path.  The import is all or nothing: every record is decoded
        before any model is installed or any site registered, so a
        corrupt payload raises and leaves the catalog as it was.
        """
        if "schema_version" not in payload:
            # Legacy flat v1 payload: one model per key.
            models = [
                (key.partition("/")[0], MultiStateCostModel.from_dict(model_dict))
                for key, model_dict in payload.items()
            ]
            for site, model in models:
                self.register_site(site)
                self.registry.publish(site, model)
            return len(models)
        version = payload["schema_version"]
        if version not in SUPPORTED_MODEL_SCHEMA_VERSIONS:
            supported = ", ".join(str(v) for v in SUPPORTED_MODEL_SCHEMA_VERSIONS)
            raise GlobalCatalogError(
                f"unsupported cost-model schema_version {version!r} "
                f"(this build reads {supported} and the legacy flat format)"
            )
        records = payload["models"]
        loaded = self.registry.import_payload(records)
        for key in records:
            self.register_site(key.partition("/")[0])
        return loaded

    def save_models(self, path) -> None:
        """Persist every stored cost-model version as JSON at *path*.

        The derived models are the expensive artifact of the whole
        method — a production MDBS derives them offline and reloads them
        at server start, exactly like the paper's "kept in the MDBS
        catalog and utilized during query optimization".
        """
        Path(path).write_text(json.dumps(self.export_models(), indent=2))

    def load_models(self, path) -> int:
        """Load cost models previously saved with :meth:`save_models`.

        Returns the number of (site, class) models loaded.  Sites named
        in the file are registered as needed.
        """
        payload = json.loads(Path(path).read_text())
        return self.import_models(payload)
