"""Reading and writing rectangle data sets.

Three formats:

* a plain whitespace text format (one rectangle per line:
  ``lo_0 ... lo_{d-1} hi_0 ... hi_{d-1}``) for interchange with other
  tools and for eyeballing,
* numpy ``.npz`` for fast exact round-trips, and
* a single uncompressed ``.npy`` of shape ``(2, n, d)`` for
  **zero-copy memory-mapped** access (:func:`save_mmap` /
  :func:`open_mmap`): every process that maps the same file shares
  one copy in the OS page cache, so a cached data set is materialised
  in RAM once however many runs read it (the experiments'
  ``REPRO_DATASET_MMAP`` cache, see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..geometry import GeometryError, RectArray

__all__ = [
    "load_rects",
    "load_rects_npz",
    "open_mmap",
    "save_mmap",
    "save_rects",
    "save_rects_npz",
]


def save_rects(path: str | Path, rects: RectArray) -> None:
    """Write a :class:`RectArray` in the text format."""
    path = Path(path)
    dim = rects.dim
    with path.open("w", encoding="ascii") as f:
        f.write(f"# repro rects dim={dim} n={len(rects)}\n")
        for lo, hi in zip(rects.lo, rects.hi):
            coords = " ".join(repr(float(v)) for v in (*lo, *hi))
            f.write(coords + "\n")


def load_rects(path: str | Path) -> RectArray:
    """Read a :class:`RectArray` from the text format.

    Lines starting with ``#`` are comments; each data line must hold
    ``2 * d`` floats.  The dimensionality is inferred from the first
    data line.
    """
    path = Path(path)
    lo_rows: list[list[float]] = []
    hi_rows: list[list[float]] = []
    dim: int | None = None
    with path.open("r", encoding="ascii") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) % 2 != 0:
                raise GeometryError(
                    f"{path}:{line_no}: odd number of coordinates"
                )
            if dim is None:
                dim = len(fields) // 2
            elif len(fields) != 2 * dim:
                raise GeometryError(
                    f"{path}:{line_no}: expected {2 * dim} coordinates, "
                    f"got {len(fields)}"
                )
            values = [float(v) for v in fields]
            lo_rows.append(values[:dim])
            hi_rows.append(values[dim:])
    if dim is None:
        raise GeometryError(f"{path}: no rectangles found")
    return RectArray(np.array(lo_rows), np.array(hi_rows))


def save_rects_npz(path: str | Path, rects: RectArray) -> None:
    """Write a :class:`RectArray` as a compressed ``.npz`` file."""
    np.savez_compressed(Path(path), lo=rects.lo, hi=rects.hi)


def load_rects_npz(path: str | Path) -> RectArray:
    """Read a :class:`RectArray` written by :func:`save_rects_npz`."""
    with np.load(Path(path)) as data:
        return RectArray(data["lo"], data["hi"])


def save_mmap(path: str | Path, rects: RectArray) -> Path:
    """Write a :class:`RectArray` for zero-copy :func:`open_mmap`.

    The file is one uncompressed ``.npy`` array of shape
    ``(2, n, d)`` — ``[0]`` the ``lo`` planes, ``[1]`` the ``hi``
    planes — so a single ``mmap`` covers both.  Returns the actual
    path written (numpy appends ``.npy`` when the suffix is missing).
    The round-trip is bit-exact: float64 in, the identical float64
    out, whether loaded through :func:`open_mmap` or plain
    ``np.load``.
    """
    path = Path(path)
    np.save(path, np.stack([rects.lo, rects.hi]))
    return path if path.suffix == ".npy" else path.with_suffix(
        path.suffix + ".npy"
    )


def open_mmap(path: str | Path) -> RectArray:
    """Open a :func:`save_mmap` file as a memory-mapped RectArray.

    The returned array's ``lo``/``hi`` are *read-only views of the
    file* (``np.load(..., mmap_mode="r")``): nothing is copied, pages
    fault in on first touch and are shared through the OS page cache
    across every process that opens the same path, so concurrent runs
    attach to a data set without copying a single rectangle.  Validation (shape, NaN, ``lo <= hi``) runs
    on open via :meth:`RectArray.from_readonly`; the mapping lives
    exactly as long as the returned object (the views keep it alive —
    no explicit close, ownership transfers to the caller).
    """
    path = Path(path)
    data = np.load(path, mmap_mode="r")
    if data.ndim != 3 or data.shape[0] != 2:
        raise GeometryError(
            f"{path}: expected a (2, n, d) rect array, got {data.shape}"
        )
    if data.dtype != np.float64:
        raise GeometryError(f"{path}: expected float64, got {data.dtype}")
    return RectArray.from_readonly(data[0], data[1])
