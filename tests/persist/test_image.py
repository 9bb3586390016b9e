"""The checkpoint image: encode and decode without a file.

The process tier ships the same bytes a checkpoint file holds, so the
committed golden checkpoint pins the wire image too: re-encoding its
decoded state must reproduce it.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.persist.checkpoint import (
    MAGIC,
    SCHEMA_VERSION,
    decode_checkpoint,
    encode_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.persist.codec import ARRAY_KEY
from tests.persist.test_golden import GOLDEN


def _first_blob(tree) -> float:
    """The lowest blob index referenced under manifest subtree *tree*."""
    if isinstance(tree, dict):
        if ARRAY_KEY in tree:
            return tree[ARRAY_KEY]["blob"]
        children = tree.values()
    elif isinstance(tree, list):
        children = tree
    else:
        return math.inf
    return min((_first_blob(child) for child in children), default=math.inf)


def _writer_order(state, tree):
    """*state* with each dict's keys in the order the writer visited
    them.  The manifest is stored with sorted keys, so decoded dicts
    come back sorted, but the writer numbered blobs in its own key
    order; the first blob index under each key recovers that order."""
    if isinstance(state, dict):
        keys = sorted(state, key=lambda key: _first_blob(tree[key]))
        return {key: _writer_order(state[key], tree[key]) for key in keys}
    if isinstance(state, list):
        return [_writer_order(s, t) for s, t in zip(state, tree, strict=True)]
    return state


def _split(image: bytes):
    """``(manifest bytes, payload bytes)`` of *image*."""
    head = len(MAGIC) + 8
    (length,) = struct.unpack(">Q", image[len(MAGIC):head])
    return image[head:head + length], image[head + length:]


def test_reencoding_the_golden_state_reproduces_its_image():
    """Decode then encode is the identity on the committed golden
    checkpoint, apart from ``created_unix``: the same manifest and the
    same payload bytes, so the image layout cannot drift unnoticed."""
    data = GOLDEN.read_bytes()
    state, manifest = decode_checkpoint(data, GOLDEN)
    image = encode_checkpoint(
        _writer_order(state, manifest["state"]), meta=manifest["meta"]
    )
    _, again = decode_checkpoint(image)
    assert again.pop("created_unix") >= manifest.pop("created_unix")
    assert again == manifest
    assert _split(image)[1] == _split(data)[1]


def test_an_image_is_the_file_save_checkpoint_writes(tmp_path):
    """One image on disk and in memory: the saved file decodes like
    the in-memory image, and a file is an image."""
    state = {"weights": np.linspace(0.0, 1.0, 5), "name": "unit"}
    path = tmp_path / "one.qcp"
    manifest = save_checkpoint(state, path, meta={"kind": "test"})
    assert manifest["schema_version"] == SCHEMA_VERSION
    data = path.read_bytes()
    decoded, loaded = decode_checkpoint(data, path)
    assert loaded == manifest
    assert decoded["weights"].tobytes() == state["weights"].tobytes()
    assert load_checkpoint(path)[1] == manifest
    image = encode_checkpoint(state, meta={"kind": "test"})
    assert _split(image)[1] == _split(data)[1]


def test_decoded_arrays_do_not_alias_the_image():
    """Blobs are views of the image during the decode, but every array
    it returns owns its memory: a later change to the buffer does not
    reach the state."""
    weights = np.arange(6, dtype=np.float64)
    image = bytearray(encode_checkpoint({"weights": weights}))
    state, _ = decode_checkpoint(image)
    image[-8:] = bytes(8)
    assert state["weights"].tobytes() == weights.tobytes()
    assert state["weights"].flags.owndata

