"""Deterministic serialization: fixed float formatting, stable key order,
atomic file writes.  Identical inputs must yield byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
import sys


def int_str(n: int) -> str:
    """Decimal form of an int of any size.

    Schedule exponents can run to thousands of digits; lift the interpreter's
    int-to-str guard (a protection against hostile input, not own output)
    just far enough when that happens.
    """
    if n.bit_length() > 13000:
        needed = n.bit_length() // 3 + 10  # digits < bits * log10(2) + 1
        if sys.get_int_max_str_digits() < needed:
            sys.set_int_max_str_digits(needed)
    return str(n)


def format_float(x: float) -> str:
    """17 significant digits, scientific notation; non-finite as words."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.16e}"


def _emit(obj: object, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(int_str(obj))
    elif isinstance(obj, float):
        text = format_float(obj)
        # JSON has no literal for non-finite numbers; emit them as strings.
        out.append(text if text[-1].isdigit() else json.dumps(text))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj: object) -> str:
    """Render with insertion-ordered keys and format_float for every float."""
    out: list = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    import tempfile  # only file output pays for it
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
