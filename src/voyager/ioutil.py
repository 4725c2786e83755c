"""Atomic file-write helpers shared by checkpoints and bench reports.

Also home to :func:`round_floats`, the one float-rounding policy for
serialised timing/throughput numbers: :func:`voyager.bench.write_bench`,
the one writer of ``BENCH_voyager.json``, rounds every timing field
through it, so the precision of recorded measurements is decided in
exactly one place.

A bench or training run killed mid-write must never leave a truncated
``BENCH_voyager.json`` or a half-written ``.npz``/vocab JSON pair on
disk: consumers across PRs read those files and would fail confusingly
(or worse, silently load garbage).  Every writer here stages the full
payload into a temporary file *in the destination directory* (so the
final rename never crosses a filesystem boundary) and publishes it with
:func:`os.replace`, which is atomic on POSIX and Windows alike.  A
crash at any point leaves either the previous file intact or, at
worst, a stray ``.tmp`` sibling — never a partial destination file.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Union

import numpy as np


def _atomic_write(
    path: Union[str, Path],
    write_body: Callable[[Any], None],
    mode: str,
    encoding: Optional[str] = None,
) -> Path:
    """Stage ``write_body``'s output in a sibling temp file, then rename.

    The temp file is created in ``path``'s directory so the concluding
    :func:`os.replace` is a same-filesystem rename (atomic).  On any
    error the temp file is removed and the destination is untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            write_body(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Atomically write ``text`` to ``path`` (temp file + rename)."""
    return _atomic_write(path, lambda fh: fh.write(text), "w", encoding)


def round_floats(value: Any, digits: int = 6) -> Any:
    """Recursively round every float in a JSON-shaped value.

    Dicts, lists and tuples are walked (tuples come back as lists, the
    JSON-safe form); every other type passes through untouched.  This
    is the single timing-precision policy for serialised reports:
    measurements stay full-precision in memory (CI gates compare
    unrounded values) and are rounded only at serialisation time, by
    this function.
    """
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {k: round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v, digits) for v in value]
    return value


def atomic_savez(path: Union[str, Path], **arrays: np.ndarray) -> Path:
    """Atomically write arrays as an ``.npz`` archive to ``path``.

    Passing a file object to :func:`numpy.savez` keeps NumPy from
    appending its own ``.npz`` suffix, so ``path`` is written exactly
    as given.
    """
    return _atomic_write(path, lambda fh: np.savez(fh, **arrays), "wb")


def write_pointer(path: Union[str, Path], name: str) -> Path:
    """Atomically publish a one-line pointer file naming ``name``.

    The online-adaptation loop writes each fine-tuned checkpoint under
    a fresh versioned prefix and then repoints a single ``CURRENT``
    file at it; because the pointer flips atomically *after* both
    checkpoint files are fully published, a reader that follows the
    pointer can never observe a half-written checkpoint — the
    crash-safety contract hot-swap relies on.
    """
    if "\n" in name or "\r" in name:
        raise ValueError(f"pointer target must be a single line, got {name!r}")
    return atomic_write_text(path, name + "\n")


def read_pointer(path: Union[str, Path]) -> Optional[str]:
    """Read a :func:`write_pointer` file; ``None`` when absent or empty."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except FileNotFoundError:
        return None
    return text or None


__all__ = [
    "atomic_savez",
    "atomic_write_text",
    "read_pointer",
    "round_floats",
    "write_pointer",
]
