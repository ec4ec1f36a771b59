"""Shared benchmark infrastructure: cached dataset and cross-validation.

The full archive (17 designs x 176 recipe sets = 2,992 flow runs) and the
4-fold cross-validation (4 aligned models + 85 recommendation flow runs) are
expensive; both are built once and cached under ``benchmarks/_cache/`` so
every table/figure bench can reuse them.  Delete the cache directory to
regenerate from scratch.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import Dict, Optional

from repro.core.alignment import AlignmentConfig
from repro.core.crossval import CrossValResult, cross_validate
from repro.core.dataset import OfflineDataset, build_offline_dataset
from repro.core.qor import QoRIntention
from repro.runtime.session import RuntimeConfig

CACHE_DIR = Path(__file__).resolve().parent / "_cache"
DATASET_PATH = CACHE_DIR / "offline_dataset.pkl"
CROSSVAL_PATH = CACHE_DIR / "crossval.pkl"

SEED = 0
SETS_PER_DESIGN = 176          # 17 x 176 = 2,992 ~ the paper's 3,000 points
CV_CONFIG = AlignmentConfig(
    epochs=14, pairs_per_design=160, batch_size=192, seed=SEED
)


def ensure_cache_dir() -> Path:
    """Create ``benchmarks/_cache/`` (untracked) on demand and return it."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    return CACHE_DIR


def get_dataset() -> OfflineDataset:
    """The full offline archive (cached)."""
    ensure_cache_dir()
    return build_offline_dataset(
        sets_per_design=SETS_PER_DESIGN,
        seed=SEED,
        cache_path=DATASET_PATH,
        runtime=RuntimeConfig(workers=1),
    )


def get_crossval(intention: QoRIntention = QoRIntention()) -> CrossValResult:
    """The Table IV cross-validation run (cached, ~10 minutes cold)."""
    if CROSSVAL_PATH.exists():
        with open(CROSSVAL_PATH, "rb") as handle:
            return pickle.load(handle)
    result = cross_validate(
        get_dataset(),
        k=4,
        intention=intention,
        config=CV_CONFIG,
        beam_width=5,
        seed=SEED,
    )
    ensure_cache_dir()
    with open(CROSSVAL_PATH, "wb") as handle:
        pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return result


def fold_model_for(result: CrossValResult, design: str):
    """The model whose training fold held ``design`` out."""
    for fold_index, held_out in enumerate(result.folds):
        if design in held_out:
            return result.models[fold_index]
    raise KeyError(f"design {design} not found in any fold")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# --- machine-readable gate summaries -----------------------------------
#
# ``pytest benchmarks/... --json DIR`` (see conftest.py), or the
# ``REPRO_BENCH_JSON=DIR`` environment variable, makes each wired bench
# emit ``DIR/BENCH_<name>.json``: the gates it asserted (with thresholds
# and measured values), its headline medians/timings, and the
# configuration it ran at — so CI can archive and diff runs without
# scraping stdout.

_JSON_TARGET: Optional[str] = None


def set_bench_json_target(directory: Optional[str]) -> None:
    """Route :func:`record_bench` output into ``directory`` (conftest
    calls this when ``--json`` is passed)."""
    global _JSON_TARGET
    _JSON_TARGET = directory


def record_bench(
    name: str,
    *,
    gates: Optional[Dict[str, object]] = None,
    medians: Optional[Dict[str, float]] = None,
    config: Optional[Dict[str, object]] = None,
    ungated: Optional[Dict[str, Dict[str, object]]] = None,
) -> Optional[Path]:
    """Write ``BENCH_<name>.json`` if a JSON target is configured.

    ``ungated`` holds named measurement rows reported next to the gates
    but not asserted.  Returns the written path, or ``None`` when emission
    is off (no ``--json`` flag and no ``REPRO_BENCH_JSON`` env var) —
    benches call this unconditionally.
    """
    target = _JSON_TARGET or os.environ.get("REPRO_BENCH_JSON") or None
    if not target:
        return None
    directory = Path(target)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    payload = {
        "name": name,
        "gates": gates or {},
        "medians": medians or {},
        "config": config or {},
    }
    if ungated:
        payload["ungated"] = ungated
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path
