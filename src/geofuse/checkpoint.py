"""Model checkpoints: named float64 parameter blocks plus a JSON metadata dict.

The container is an npz archive that ``np.savez`` writes straight into an open
file, so the target path keeps its own extension. Float64 blocks survive a
save/load round trip bit for bit. This module knows only the container:
``stgcn.save_model`` chooses the metadata keys and ``stgcn.load_model`` checks
them.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError
from .tensor import Tensor

_META_KEY = "__meta__"


def save_checkpoint(path, params: dict, meta: dict | None = None) -> None:
    """Write named arrays and metadata to ``path``.

    ``params`` maps names to Tensors or arrays. Names must not collide with
    the reserved metadata key.
    """
    if _META_KEY in params:
        raise ValidationError(f"checkpoint: parameter name {_META_KEY!r} is reserved")
    blocks = {name: np.asarray(value.data if isinstance(value, Tensor) else value,
                               dtype=np.float64) for name, value in params.items()}
    blocks[_META_KEY] = np.frombuffer(
        json.dumps(meta or {}, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **blocks)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back (params, meta). Raises ValidationError on a foreign file."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _META_KEY not in archive:
                raise ValidationError(f"checkpoint: {path} has no metadata block")
            meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
            params = {k: archive[k] for k in archive.files if k != _META_KEY}
    except (OSError, ValueError) as exc:
        raise ValidationError(f"checkpoint: cannot read {path}: {exc}") from exc
    return params, meta
