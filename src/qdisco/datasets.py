"""Paths to the bundled example problems, calibrations and scenario configs."""

from __future__ import annotations

from pathlib import Path

_DATA_DIR = Path(__file__).parent / "data"


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    path = _DATA_DIR / name
    if not path.exists():
        available = sorted(p.name for p in _DATA_DIR.glob("*.json"))
        raise FileNotFoundError(f"no bundled file {name!r}; available: {available}")
    return path
