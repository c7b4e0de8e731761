"""Flat parameter vectors with a canonical layout descriptor.

Flattening order is fixed: layer by layer, each weight matrix in row-major
order followed by its bias vector. The shape_tag records the layout (for
example "encoder:in=32,hidden=8"); two vectors are norm-comparable only when
their tags match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightVector:
    values: np.ndarray
    shape_tag: str

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if "\n" in self.shape_tag:
            raise ValueError("shape_tag must be a single line")

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightVector):
            return NotImplemented
        return self.shape_tag == other.shape_tag and np.array_equal(self.values, other.values)


def make_tag(kind: str, **dims: int) -> str:
    parts = ",".join(f"{k}={int(v)}" for k, v in dims.items())
    return f"{kind}:{parts}"


def parse_tag(tag: str) -> tuple[str, dict[str, int]]:
    kind, _, rest = tag.partition(":")
    dims = {}
    if rest:
        for piece in rest.split(","):
            k, _, v = piece.partition("=")
            dims[k] = int(v)
    return kind, dims


_MAGIC = "weightvector/1"


def save_weights(w: WeightVector, path) -> None:
    """One text header line (format marker + shape_tag), then '<f8' bytes."""
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} {w.shape_tag}\n".encode("utf-8"))
        fh.write(np.ascontiguousarray(w.values, dtype="<f8").tobytes())


def load_weights(path) -> WeightVector:
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8").rstrip("\n")
        marker, _, tag = header.partition(" ")
        if marker != _MAGIC:
            raise ValueError(f"not a weight-vector file: {path}")
        values = np.frombuffer(fh.read(), dtype="<f8")
    return WeightVector(values, tag)
