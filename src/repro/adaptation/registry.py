"""The versioned model registry: snapshots, provenance, rollback.

Every model the control loop ever trusts -- the offline baseline fit
and each online recalibration -- is registered as an immutable
:class:`ModelVersion`: a monotonically numbered snapshot of the
serialized coefficients (persistence format v2) plus provenance
metadata (what triggered the fit, residual statistics, per-p-state
sample counts).  Exactly one version is *active* at a time; activation
history is retained so a recalibration that fails probation can be
rolled back to precisely the model it replaced.

Registries persist to disk as a single JSON document and reload with
validation, so a deployment can ship a registry file the way the paper
shipped Table II -- but with the full adaptation lineage attached.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.models.persistence import (
    FORMAT_VERSION,
    SUPPORTED_FORMATS,
    model_from_json,
    power_model_to_json,
)
from repro.core.models.power import LinearPowerModel
from repro.errors import AdaptationError

#: ``kind`` tag of a serialized registry document.
REGISTRY_KIND = "model_registry"


@dataclass(frozen=True)
class ModelVersion:
    """One immutable registered snapshot.

    ``document`` is the model's own serialized JSON (persistence v2,
    provenance embedded); ``provenance`` is the same metadata as a
    dict for direct inspection.
    """

    version: int
    kind: str
    created_at_s: float
    provenance: Mapping[str, Any]
    document: str

    def load(self):
        """Deserialize this version's model object."""
        return model_from_json(self.document)


class ModelRegistry:
    """Append-only model version store with activate/rollback."""

    def __init__(self):
        self._versions: dict[int, ModelVersion] = {}
        self._next_version = 1
        self._activation_history: list[int] = []

    # -- registration ----------------------------------------------------------

    def register(
        self,
        model: LinearPowerModel | object,
        provenance: Mapping[str, Any] | None = None,
        created_at_s: float = 0.0,
        activate: bool = True,
    ) -> ModelVersion:
        """Snapshot ``model`` as the next version (optionally activating).

        Currently the registry serializes :class:`LinearPowerModel`
        snapshots (the model the adaptation loop refits); any object
        already carrying a ``to_json``-style document can be registered
        by passing its serialized form through ``provenance``-free
        custom code.
        """
        provenance = dict(provenance or {})
        if isinstance(model, LinearPowerModel):
            document = power_model_to_json(model, provenance=provenance)
            kind = "linear_power_model"
        else:
            raise AdaptationError(
                f"cannot register a {type(model).__name__}; the registry "
                "stores linear power models"
            )
        version = ModelVersion(
            version=self._next_version,
            kind=kind,
            created_at_s=created_at_s,
            provenance=provenance,
            document=document,
        )
        self._versions[version.version] = version
        self._next_version += 1
        if activate:
            self.activate(version.version)
        return version

    # -- lookup ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._versions)

    @property
    def versions(self) -> tuple[ModelVersion, ...]:
        """All registered versions, ascending."""
        return tuple(
            self._versions[v] for v in sorted(self._versions)
        )

    def get(self, version: int) -> ModelVersion:
        """One version by number; unknown numbers raise."""
        try:
            return self._versions[version]
        except KeyError:
            raise AdaptationError(
                f"no registered model version {version}; "
                f"registry holds {sorted(self._versions)}"
            ) from None

    @property
    def active_version(self) -> int | None:
        """The active version number (None for an empty registry)."""
        return (
            self._activation_history[-1]
            if self._activation_history
            else None
        )

    @property
    def active(self) -> ModelVersion | None:
        """The active :class:`ModelVersion` (None for an empty registry)."""
        number = self.active_version
        return self._versions[number] if number is not None else None

    def active_model(self):
        """Deserialize and return the active model object."""
        active = self.active
        if active is None:
            raise AdaptationError("registry has no active model")
        return active.load()

    # -- activation ------------------------------------------------------------

    def activate(self, version: int) -> ModelVersion:
        """Make ``version`` the active model (appends to history)."""
        target = self.get(version)
        if self.active_version != version:
            self._activation_history.append(version)
        return target

    def rollback(self) -> ModelVersion:
        """Re-activate the version the current one replaced.

        Pops the activation history; raises when there is no prior
        activation to return to.
        """
        if len(self._activation_history) < 2:
            raise AdaptationError(
                "nothing to roll back to: fewer than two activations"
            )
        self._activation_history.pop()
        return self._versions[self._activation_history[-1]]

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the whole registry (format v2)."""
        doc = {
            "format": FORMAT_VERSION,
            "kind": REGISTRY_KIND,
            "activation_history": list(self._activation_history),
            "versions": [
                {
                    "version": v.version,
                    "kind": v.kind,
                    "created_at_s": v.created_at_s,
                    "provenance": dict(v.provenance),
                    "model": json.loads(v.document),
                }
                for v in self.versions
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelRegistry":
        """Reload a registry document with validation."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as error:
            raise AdaptationError(
                f"not valid registry JSON: {error}"
            ) from None
        if not isinstance(doc, dict):
            raise AdaptationError("registry document must be a JSON object")
        if doc.get("format") not in SUPPORTED_FORMATS:
            raise AdaptationError(
                f"unsupported registry format {doc.get('format')!r}"
            )
        if doc.get("kind") != REGISTRY_KIND:
            raise AdaptationError(
                f"expected a {REGISTRY_KIND}, found {doc.get('kind')!r}"
            )
        registry = cls()
        entries = doc.get("versions", [])
        if not isinstance(entries, list):
            raise AdaptationError("registry versions must be a list")
        for entry in entries:
            if not isinstance(entry, dict):
                raise AdaptationError("registry version must be an object")
            try:
                number = int(entry["version"])
                document = json.dumps(entry["model"])
                version = ModelVersion(
                    version=number,
                    kind=str(entry["kind"]),
                    created_at_s=float(entry.get("created_at_s", 0.0)),
                    provenance=dict(entry.get("provenance", {})),
                    document=document,
                )
            except (KeyError, TypeError, ValueError) as error:
                raise AdaptationError(
                    f"malformed registry version entry: {error}"
                ) from None
            model_from_json(document)  # validate the payload eagerly
            registry._versions[number] = version
            registry._next_version = max(registry._next_version, number + 1)
        history = doc.get("activation_history", [])
        if not isinstance(history, list):
            raise AdaptationError("activation_history must be a list")
        for number in history:
            if number not in registry._versions:
                raise AdaptationError(
                    f"activation history references unknown version {number}"
                )
        registry._activation_history = [int(n) for n in history]
        return registry

    def save(self, path: str | os.PathLike) -> None:
        """Write the registry document to ``path`` atomically.

        A crash mid-save must never leave a half-written document: the
        registry is the run's audit trail.
        """
        from repro.ioutils import atomic_write_text

        atomic_write_text(os.fspath(path), self.to_json())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ModelRegistry":
        """Reload a registry document from ``path``."""
        path = os.fspath(path)
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as error:
            raise AdaptationError(
                f"cannot read registry {path}: {error}"
            ) from None
        return cls.from_json(text)
