"""Bit-stable JSON and CSV emission.

Floating values are printed with 17 significant digits so byte output is a
pure function of the computed doubles; NaN becomes JSON null (CSV "nan").
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA_VERSION = "1"


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def to_json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting (insertion key order)."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)  # escapes `"`, `\` and U+0000..U+001F
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = [to_json_text(v, indent) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, val in obj.items():
            parts.append(f'{pad}  {to_json_text(str(key))}: {to_json_text(val, indent + 2)}')
        inner = ",\n".join(parts)
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj) -> str:
    return to_json_text(obj) + "\n"


def csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        x = float(value)
        return "nan" if math.isnan(x) else format(x, ".17g")
    return str(value)


def dump_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"
