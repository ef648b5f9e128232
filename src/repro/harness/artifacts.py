"""Experiment artifacts: JSON results with a reproducibility manifest.

CSV files carry the series; this module adds the *provenance*: which
experiment, which preset parameters, which seeds, which package version,
when — everything needed to regenerate a figure byte-for-byte.  The
``mvcom`` CLI writes one artifact per experiment next to the CSVs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from typing import Callable, Optional

import numpy as np

from repro.harness.presets import FigurePreset
from repro.harness import report


class _ArtifactEncoder(json.JSONEncoder):
    """JSON encoder handling numpy scalars/arrays and dataclasses."""

    def default(self, value):
        """Encode numpy/dataclass/set values JSON cannot natively."""
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return dataclasses.asdict(value)
        if isinstance(value, (set, frozenset)):
            return sorted(value)
        return super().default(value)


#: Injectable wall-clock used for the ``written_at_unix`` stamp.  Tests (and
#: anyone needing byte-stable artifacts under a fixed seed) pass a
#: deterministic callable; ``None`` means the real clock.
Clock = Callable[[], float]


def build_manifest(
    preset: Optional[FigurePreset] = None,
    clock: Optional[Clock] = None,
    **extra,
) -> dict:
    """Provenance block attached to every artifact.

    ``clock`` overrides the timestamp source so artifact files can be
    byte-for-byte reproducible; the default is the real wall clock (this is
    provenance metadata, deliberately outside the simulation's virtual
    time).
    """
    from repro import __version__

    now = time.time if clock is None else clock
    manifest = {
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "written_at_unix": int(now()),
    }
    if preset is not None:
        manifest["preset"] = dataclasses.asdict(preset)
    manifest.update(extra)
    return manifest


def write_artifact(
    name: str,
    result: dict,
    preset: Optional[FigurePreset] = None,
    results_dir: Optional[str] = None,
    clock: Optional[Clock] = None,
) -> str:
    """Persist ``result`` + manifest as ``results/<name>.json``; returns the path."""
    directory = results_dir or report.RESULTS_DIR
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    payload = {"experiment": name, "manifest": build_manifest(preset, clock=clock), "result": result}
    with open(path, "w") as handle:
        json.dump(payload, handle, cls=_ArtifactEncoder, indent=2)
    return path


def read_artifact(path: str) -> dict:
    """Load an artifact back (plain dicts/lists; arrays come back as lists)."""
    with open(path) as handle:
        payload = json.load(handle)
    for key in ("experiment", "manifest", "result"):
        if key not in payload:
            raise ValueError(f"not an artifact file: missing {key!r}")
    return payload
