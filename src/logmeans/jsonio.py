"""Deterministic serialization: fixed float formatting, stable key order,
atomic file writes.  Identical inputs must yield byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
import sys


def int_str(n: int) -> str:
    """Decimal form of an int of any size; the interpreter's int-to-str
    digit limit is left as it was."""
    try:
        return str(n)
    except ValueError:  # past the digit limit, a guard for input, not own output
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


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
    """Write via a temp file in the same directory, then rename into place,
    where and with the mode open(path, "w") would: through any symlink to
    its target (a dangling one creates it), an existing file keeping its
    permission bits, a new one getting 0o666 less the umask."""
    import tempfile  # only file output pays for it
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
