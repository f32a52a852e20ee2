"""Output checks: records against committed references, within a tolerance."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from .measure import BenchmarkError

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Relative tolerance of every reference comparison.
RTOL = 1e-12

#: Keys that legitimately differ between two runs of one spec.
VOLATILE_KEYS = frozenset({"wall_s"})


def load_reference(name: str) -> Dict[str, Any]:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def strip_volatile(records: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    return [{k: v for k, v in r.items() if k not in VOLATILE_KEYS} for r in records]


def difference(actual: Any, expected: Any, rtol: float = RTOL, path: str = "") -> Optional[str]:
    """The first place ``actual`` departs from ``expected``, or ``None``.

    Floats compare with relative tolerance ``rtol`` (``rtol=0`` demands
    bit identity); everything else compares exactly, including types of
    containers, key sets and lengths.
    """
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return None if actual == expected and type(actual) is type(expected) else (
            f"{path or '.'}: {actual!r} != {expected!r}"
        )
    if isinstance(expected, (int, float)):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return f"{path or '.'}: {actual!r} is not a number like {expected!r}"
        if math.isnan(expected) and math.isnan(actual):
            return None
        if actual == expected or math.isclose(actual, expected, rel_tol=rtol, abs_tol=0.0):
            return None
        return f"{path or '.'}: {actual!r} != {expected!r} (rtol {rtol:g})"
    if isinstance(expected, Mapping):
        if not isinstance(actual, Mapping) or set(actual) != set(expected):
            return f"{path or '.'}: keys {sorted(actual) if isinstance(actual, Mapping) else actual!r} != {sorted(expected)}"
        for key in expected:
            found = difference(actual[key], expected[key], rtol, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, Sequence):
        if not isinstance(actual, Sequence) or len(actual) != len(expected):
            return f"{path or '.'}: length {len(actual) if isinstance(actual, Sequence) else actual!r} != {len(expected)}"
        for index, (a, e) in enumerate(zip(actual, expected)):
            found = difference(a, e, rtol, f"{path}[{index}]")
            if found:
                return found
        return None
    return None if actual == expected else f"{path or '.'}: {actual!r} != {expected!r}"


def require_same(what: str, actual: Any, expected: Any, rtol: float = RTOL) -> None:
    """Raise :class:`BenchmarkError` naming the first mismatch, if any."""
    found = difference(actual, expected, rtol)
    if found:
        raise BenchmarkError(f"{what}: output mismatch at {found}")
