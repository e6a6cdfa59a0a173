"""Binary container for TT tensors and operators.

Layout (little-endian throughout):

========  =======================================================
bytes     content
========  =======================================================
0:4       magic ``b"TTC1"``
4         kind: ``0`` tensor, ``1`` operator (uint8)
5         order d (uint8)
6:...     d row mode sizes (uint32); operators add d col sizes
...       d+1 bond ranks (uint32)
...       core payloads, ascending core order, float64 C-order
========  =======================================================
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .core import TtMatrix, TtTensor

__all__ = ["save_tt", "load_tt", "tt_info"]

_MAGIC = b"TTC1"


def save_tt(path, t) -> None:
    """Write a TtTensor or TtMatrix to the binary container, atomically."""
    is_mat = isinstance(t, TtMatrix)
    d = t.d
    header = [_MAGIC, struct.pack("<BB", 1 if is_mat else 0, d)]
    if is_mat:
        header.append(struct.pack(f"<{d}I", *t.row_sizes))
        header.append(struct.pack(f"<{d}I", *t.col_sizes))
    else:
        header.append(struct.pack(f"<{d}I", *t.mode_sizes))
    header.append(struct.pack(f"<{d + 1}I", *t.ranks))
    # write a temp file next to the target, then rename it into place, so
    # readers see either the old file or the complete new one
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in header:
                fh.write(chunk)
            for G in t.cores:
                fh.write(np.ascontiguousarray(G, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_tt(path):
    """Read a container written by :func:`save_tt`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValueError("not a TT container (bad magic)")
    try:
        kind, d = struct.unpack_from("<BB", raw, 4)
        off = 6
        rows = struct.unpack_from(f"<{d}I", raw, off)
        off += 4 * d
        cols = None
        if kind == 1:
            cols = struct.unpack_from(f"<{d}I", raw, off)
            off += 4 * d
        ranks = struct.unpack_from(f"<{d + 1}I", raw, off)
        off += 4 * (d + 1)
    except struct.error as exc:
        raise ValueError(f"truncated TT container header: {exc}") from exc
    if kind not in (0, 1):
        raise ValueError(f"bad TT container kind {kind} (0 tensor, 1 operator)")
    shapes = [
        (ranks[k], rows[k]) + ((cols[k],) if cols else ()) + (ranks[k + 1],)
        for k in range(d)
    ]
    counts = [math.prod(shape) for shape in shapes]
    # checked before any read, so a corrupt header never sizes a buffer
    if off + 8 * sum(counts) != len(raw):
        raise ValueError("TT container payload size does not match its header")
    cores = []
    for shape, count in zip(shapes, counts):
        G = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        cores.append(G.reshape(shape).copy())
        off += 8 * count
    return TtMatrix(cores) if kind == 1 else TtTensor(cores)


def tt_info(t) -> dict:
    """Rank/size summary used by the CLI dump command."""
    is_mat = isinstance(t, TtMatrix)
    if is_mat:
        full = int(np.prod(t.row_sizes, dtype=np.int64)) * int(
            np.prod(t.col_sizes, dtype=np.int64)
        )
    else:
        full = int(np.prod(t.mode_sizes, dtype=np.int64))
    return {
        "kind": "operator" if is_mat else "tensor",
        "d": t.d,
        "mode_sizes": list(t.row_sizes) if is_mat else list(t.mode_sizes),
        "col_sizes": list(t.col_sizes) if is_mat else None,
        "ranks": list(t.ranks),
        "n_params": t.n_params,
        "full_entries": full,
        "compression_ratio": full / t.n_params,
    }
