"""Crash injection: a write that dies mid-flight must never cost data.

The atomic-rename invariant under test: the final checkpoint name only
ever points at a fully-written, fully-fsynced file, so a crash at any
point of a write leaves (at worst) an ignorable ``.tmp`` sibling, a
partial file that fails integrity checks — and the previous retained
checkpoint still restores.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import CheckpointCorruptError, CheckpointError
from repro.persist.checkpoint import (
    list_checkpoints,
    load_checkpoint,
    restore_latest,
    save_checkpoint,
    write_retained,
)
from repro.persist.checkpointer import Checkpointer

STATE_A = {"generation": "a", "payload": list(range(32))}
STATE_B = {"generation": "b", "payload": list(range(64))}


def test_killed_os_replace_preserves_the_previous_checkpoint(
    tmp_path, monkeypatch
):
    first = write_retained(STATE_A, tmp_path, retain=3)

    def boom(src, dst):
        raise OSError("injected crash during rename")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(CheckpointError, match="injected crash") as failed:
        write_retained(STATE_B, tmp_path, retain=3)
    monkeypatch.undo()
    assert isinstance(failed.value.__cause__, OSError)

    # The interrupted write is invisible: no second checkpoint exists,
    # no tmp file survives, and the previous checkpoint still loads.
    assert [path for _, path in list_checkpoints(tmp_path)] == [first]
    assert not list(tmp_path.glob("*.tmp"))
    state, _, path = restore_latest(tmp_path)
    assert state == STATE_A
    assert path == first


def test_killed_fsync_preserves_the_previous_checkpoint(tmp_path, monkeypatch):
    first = write_retained(STATE_A, tmp_path, retain=3)

    def boom(fd):
        raise OSError("injected fsync failure")

    monkeypatch.setattr(os, "fsync", boom)
    with pytest.raises(CheckpointError, match="injected fsync"):
        write_retained(STATE_B, tmp_path, retain=3)
    monkeypatch.undo()

    assert [path for _, path in list_checkpoints(tmp_path)] == [first]
    assert not list(tmp_path.glob("*.tmp"))
    assert restore_latest(tmp_path)[0] == STATE_A


def test_an_unwritable_directory_raises_checkpoint_error(tmp_path):
    """A checkpoint directory under a regular file cannot be made: the
    write raises a typed CheckpointError chained to the OSError, and
    so do the service-level saves built on it."""
    from repro.persist import save_service_checkpoint
    from repro.serving import CostService

    blocker = tmp_path / "file"
    blocker.write_bytes(b"not a directory")
    with pytest.raises(CheckpointError) as failed:
        write_retained(STATE_A, blocker / "spool")
    assert isinstance(failed.value.__cause__, NotADirectoryError)
    with pytest.raises(CheckpointError):
        save_checkpoint(STATE_A, blocker / "ckpt.qcp")
    with CostService() as service:
        with pytest.raises(CheckpointError):
            save_service_checkpoint(service, blocker / "spool")
        with pytest.raises(CheckpointError):
            service.save(blocker / "spool")
    assert blocker.read_bytes() == b"not a directory"


def test_partial_tmp_left_by_a_hard_kill_is_never_loadable(tmp_path):
    # A hard kill (no unwind) can leave the tmp file behind.  It must
    # be (a) skipped by the directory scan and (b) unloadable even if
    # someone renames it into place by hand.
    good = write_retained(STATE_A, tmp_path, retain=3)
    complete = tmp_path / "complete.qcp"
    save_checkpoint(STATE_B, complete)
    partial = tmp_path / "ckpt-00000002.qcp.tmp"
    partial.write_bytes(complete.read_bytes()[: complete.stat().st_size // 3])
    complete.unlink()

    assert [path for _, path in list_checkpoints(tmp_path)] == [good]
    renamed = tmp_path / "ckpt-00000002.qcp"
    partial.rename(renamed)
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(renamed)
    # And the directory-level restore fails over past it.
    state, _, path = restore_latest(tmp_path)
    assert state == STATE_A
    assert path == good


def test_every_truncation_point_fails_closed(tmp_path):
    path = tmp_path / "full.qcp"
    save_checkpoint(STATE_A, path)
    data = path.read_bytes()
    victim = tmp_path / "cut.qcp"
    for cut in range(0, len(data) - 1, max(1, len(data) // 23)):
        victim.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(victim)


def test_checkpointer_counts_write_failures_and_survives(
    tmp_path, monkeypatch, qppnet_setup
):
    from repro.serving import CostService

    service = CostService()
    service.deploy(qppnet_setup["bundle"])
    checkpointer = Checkpointer(
        service, tmp_path, interval_s=60.0, background=False
    )
    try:
        def boom(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", boom)
        assert checkpointer.checkpoint_now(force=True) is None
        monkeypatch.undo()
        stats = checkpointer.stats_snapshot()
        assert stats["errors"] == 1 and stats["writes"] == 0
        # The next healthy attempt succeeds: degraded durability, not a
        # dead loop.
        assert checkpointer.checkpoint_now(force=True) is not None
        assert checkpointer.stats_snapshot()["writes"] == 1
        assert restore_latest(tmp_path)[0]["kind"] == "cost_service"
    finally:
        checkpointer.close()
        service.close()
