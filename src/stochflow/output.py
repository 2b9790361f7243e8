"""Deterministic artifact writers: summary.json, manifest.json, CSV tables.

``summary.json`` is the machine-readable verdict of an experiment and must
be byte-identical across re-runs with the same seed, so it contains no
timestamps, runtimes, paths, or environment echoes -- those go into
``manifest.json``, which is allowed to differ between runs.

Floats are serialized with Python's shortest-round-trip ``repr`` (the json
module's default), which is deterministic for identical IEEE-754 values.
Non-finite floats are written as the strings ``"nan"``, ``"inf"`` and
``"-inf"``, so that every file is valid JSON.  The verdict of a check is
:mod:`stochflow.experiments`' to make; this module only writes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["jsonable", "write_summary", "write_manifest", "write_csv"]


def jsonable(obj):
    """Convert numerics (including complex and small arrays) to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _json_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _json_float(obj.real), "im": _json_float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    return obj


def _json_float(x) -> float | str:
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(jsonable(data), sort_keys=True, indent=2, allow_nan=False) + "\n")
    return path


def write_summary(out_dir: Path, summary: dict) -> Path:
    return _write_json(Path(out_dir) / "summary.json", summary)


def write_manifest(out_dir: Path, manifest: dict) -> Path:
    return _write_json(Path(out_dir) / "manifest.json", manifest)


def write_csv(out_dir: Path, filename: str, header: list[str], rows) -> Path:
    """Plot-ready CSV with full-precision (%.17g) numeric formatting."""
    path = Path(out_dir) / filename
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(format(float(cell), ".17g"))
            elif isinstance(cell, (complex, np.complexfloating)):
                cells.append(format(float(cell.real), ".17g"))
                cells.append(format(float(cell.imag), ".17g"))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path
