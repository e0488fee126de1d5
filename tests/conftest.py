"""Shared fixtures: small hand-built datasets used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import FeatureKind, FeatureSet, FeatureSpec
from repro.data.actions import Action, ActionLog
from repro.data.items import Item, ItemCatalog


@pytest.fixture
def tiny_catalog() -> ItemCatalog:
    """Twelve items with one feature of each supported kind."""
    items = []
    for k in range(12):
        items.append(
            Item(
                id=f"i{k}",
                features={
                    "color": ["red", "green", "blue"][k % 3],
                    "steps": k % 4,
                    "weight": 0.5 + k,
                },
                metadata={"difficulty": 1.0 + (k % 3)},
            )
        )
    return ItemCatalog(items)


@pytest.fixture
def tiny_feature_set() -> FeatureSet:
    return FeatureSet(
        [
            FeatureSpec("color", FeatureKind.CATEGORICAL),
            FeatureSpec("steps", FeatureKind.COUNT),
            FeatureSpec("weight", FeatureKind.POSITIVE),
        ]
    )


@pytest.fixture
def tiny_log() -> ActionLog:
    """Three users with deterministic, progression-flavoured sequences.

    Early actions use low-index items, later ones high-index items, so a
    skill model has a real (if small) signal to latch onto.
    """
    rng = np.random.default_rng(42)
    actions = []
    for u in range(3):
        length = 10 + 2 * u
        for t in range(length):
            tier = min(2, (3 * t) // length)  # 0, 1, 2 as the sequence advances
            item = f"i{int(rng.integers(4 * tier, 4 * tier + 4))}"
            actions.append(Action(time=float(t), user=f"u{u}", item=item))
    return ActionLog.from_actions(actions)


@pytest.fixture
def fitted_tiny_model(tiny_log, tiny_catalog, tiny_feature_set):
    from repro.core.training import fit_skill_model

    return fit_skill_model(
        tiny_log,
        tiny_catalog,
        tiny_feature_set.with_id_feature(),
        num_levels=3,
        init_min_actions=5,
        max_iterations=20,
    )


def _save_v1_artifact(model, prefix, **save_kwargs):
    """Write ``model`` as a format-version-1 pair: per-user NPZ members
    ``assign_{k}``/``times_{k}`` in place of the flat columnar arrays."""
    import hashlib
    import io
    import json

    from repro.core.serialize import save_model

    json_path, npz_path = save_model(model, prefix, **save_kwargs)
    structure = json.loads(json_path.read_text(encoding="utf-8"))
    with np.load(npz_path) as npz:
        arrays = {
            name: npz[name]
            for name in npz.files
            if name not in ("levels", "times", "offsets")
        }
    for k, user in enumerate(structure["users"]):
        arrays[f"assign_{k}"] = np.asarray(model.assignments[user], dtype=np.int64)
        arrays[f"times_{k}"] = np.asarray(model._assignment_times[user], dtype=np.float64)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    npz_path.write_bytes(buffer.getvalue())
    structure["format_version"] = 1
    structure["checksums"]["npz"] = hashlib.sha256(buffer.getvalue()).hexdigest()
    json_path.write_text(json.dumps(structure, ensure_ascii=False), encoding="utf-8")
    return json_path, npz_path


@pytest.fixture
def save_v1_artifact():
    """``save(model, prefix, **save_model_kwargs)`` writing a legacy
    format-version-1 pair."""
    return _save_v1_artifact
