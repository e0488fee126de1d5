"""Child process of the ``train`` workload: one out-of-core store fit.

Runs in a fresh interpreter so the peak RSS it reports belongs to the
store fit alone, not to the parent that holds the in-RAM twin.

    python3 perfbench/fit_store.py WORK_DIR '{"levels": 5, "max_iterations": 10, ...}'

Prints one JSON object: fit seconds, peak RSS bytes, the fit's stage
seconds and a digest of its LL trace and assignments.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from common import digest_fit, require_source, stop_resource_tracker


def main(argv: list[str]) -> int:
    require_source()
    from repro.core.features import FeatureSet
    from repro.core.training import fit_skill_model
    from repro.data.io import load_catalog
    from repro.data.store import ActionStore

    work = Path(argv[0])
    params = json.loads(argv[1])
    levels = params.pop("levels")
    store = ActionStore(work / "corpus.store")
    catalog = load_catalog(work / "catalog.jsonl")
    feature_set = FeatureSet.from_json(json.loads((work / "schema.json").read_text()))
    start = time.perf_counter()
    model = fit_skill_model(store, catalog, feature_set, levels, **params)
    fit_s = time.perf_counter() - start
    peak = model.telemetry.resources.get("peak_rss_bytes") if model.telemetry else None
    if not peak:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(
        json.dumps(
            {
                "fit_s": fit_s,
                "peak_rss_bytes": float(peak),
                "stage_seconds": dict(model.telemetry.stage_seconds),
                "digest": digest_fit(model),
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        stop_resource_tracker()
    sys.exit(code)
