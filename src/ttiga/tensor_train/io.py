"""Binary container for TT tensors and operators.

Layout (little-endian throughout):

========  =======================================================
bytes     content
========  =======================================================
0:4       magic ``b"TTC3"``
4         kind: ``0`` tensor, ``1`` operator (uint8)
5         order d (uint8)
6:...     d mode sizes (uint32); operators add d odd band widths
...       d+1 bond ranks (uint32)
...       core payloads, ascending core order, float64 C-order;
          operator cores are bands of shape (r, n, 2h+1, r')
-4:       CRC-32 (``zlib.crc32``, uint32) of every byte before it
========  =======================================================

``TTC2`` files, whose operator cores were dense (r, n, n, r'), are not
read: a dense core with odd n would parse as a band.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .core import TtMatrix, TtTensor

__all__ = ["save_tt", "load_tt", "tt_info"]

_MAGIC = b"TTC3"


def _atomic_write(path, data) -> None:
    """Write ``data`` (str, or an iterable of bytes chunks) to ``path``,
    creating its directory.

    The data go to a temp file next to the target, which is then renamed
    into place, so readers see either the old file or the complete new one.
    On any failure the temp file is removed and the old file is left as it
    was.
    """
    path = Path(path)
    chunks = [data.encode()] if isinstance(data, str) else data
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_tt(path, t) -> None:
    """Write a TtTensor or TtMatrix to the binary container, atomically."""
    is_mat = isinstance(t, TtMatrix)
    d = t.d
    header = [_MAGIC, struct.pack("<BB", 1 if is_mat else 0, d)]
    if is_mat:
        header.append(struct.pack(f"<{d}I", *t.row_sizes))
        header.append(struct.pack(f"<{d}I", *t.band_widths))
    else:
        header.append(struct.pack(f"<{d}I", *t.mode_sizes))
    header.append(struct.pack(f"<{d + 1}I", *t.ranks))

    def chunks():
        crc = 0
        cores = (np.ascontiguousarray(G, dtype="<f8").tobytes() for G in t.cores)
        for chunk in itertools.chain(header, cores):
            crc = zlib.crc32(chunk, crc)
            yield chunk
        yield struct.pack("<I", crc)

    _atomic_write(path, chunks())


def load_tt(path):
    """Read a container written by :func:`save_tt`; ValueError if malformed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise ValueError("not a TT container (bad magic)")
    try:
        kind, d = struct.unpack_from("<BB", raw, 4)
        off = 6
        rows = struct.unpack_from(f"<{d}I", raw, off)
        off += 4 * d
        widths = None
        if kind == 1:
            widths = struct.unpack_from(f"<{d}I", raw, off)
            off += 4 * d
        ranks = struct.unpack_from(f"<{d + 1}I", raw, off)
        off += 4 * (d + 1)
    except struct.error as exc:
        raise ValueError(f"truncated TT container header: {exc}") from exc
    if kind not in (0, 1):
        raise ValueError(f"bad TT container kind {kind} (0 tensor, 1 operator)")
    shapes = [
        (ranks[k], rows[k]) + ((widths[k],) if widths else ()) + (ranks[k + 1],)
        for k in range(d)
    ]
    counts = [math.prod(shape) for shape in shapes]
    # checked before any read, so a corrupt header never sizes a buffer
    if off + 8 * sum(counts) + 4 != len(raw):
        raise ValueError("TT container payload size does not match its header")
    (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(memoryview(raw)[:-4]) != crc:
        raise ValueError("TT container checksum does not match its contents")
    cores = []
    for shape, count in zip(shapes, counts):
        G = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        cores.append(G.reshape(shape).copy())
        off += 8 * count
    return TtMatrix(cores) if kind == 1 else TtTensor(cores)


def tt_info(t) -> dict:
    """Rank/size summary used by the CLI dump command."""
    is_mat = isinstance(t, TtMatrix)
    sizes = t.row_sizes if is_mat else t.mode_sizes
    full = int(np.prod(sizes, dtype=np.int64)) ** (2 if is_mat else 1)
    return {
        "kind": "operator" if is_mat else "tensor",
        "d": t.d,
        "mode_sizes": list(sizes),
        "band_widths": list(t.band_widths) if is_mat else None,
        "ranks": list(t.ranks),
        "n_params": t.n_params,
        "full_entries": full,
        "compression_ratio": full / t.n_params,
    }
