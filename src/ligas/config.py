"""Reproducibility plumbing: seed sub-streams, settings digests, file reads and writes.

All randomness in the pipeline flows from one 64-bit seed. Each consumer
draws from a named sub-stream so that, say, adding an extra generator call
cannot shift the training shuffle.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .errors import DataError

# the five sentence categories the pipeline analyzes
CATEGORIES = ("CIA", "RAA", "SVA", "SVO", "WHE")


def sub_seed(seed: int, stream: str) -> int:
    """Derive the 64-bit seed of a named sub-stream from the global seed."""
    digest = hashlib.sha256(f"{seed:#x}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """PCG64 generator for a named sub-stream (model-init, train-shuffle, gen, split)."""
    return np.random.default_rng(sub_seed(seed, stream))


def config_digest(values: dict[str, object]) -> str:
    """12-hex digest of the semantically relevant configuration.

    Output paths are excluded by the callers so that two runs that differ
    only in their destination directory still produce identical bytes.
    """
    canonical = "\n".join(f"{k}={values[k]}" for k in sorted(values))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` for each line of a UTF-8 file, ending included.

    Lines end at LF, so a CRLF line keeps its CR for the reader to strip. Each
    line is decoded on its own: a byte that is not UTF-8 is a data error on
    the line that holds it.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield line_no, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{line_no}: not UTF-8 at byte {exc.start}: "
                                f"{exc.reason}") from None


@contextmanager
def write_artifact(path: str, comment: str | None = None, binary: bool = False):
    """Yield ``<path>.<pid>.tmp`` (UTF-8 and LF, led by ``# comment``; or bytes) and
    replace ``path`` with it when the block completes. On any exception, interrupts
    included, the temp file is removed and ``path`` keeps its bytes, or stays absent."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8",
                  newline=None if binary else "\n") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
