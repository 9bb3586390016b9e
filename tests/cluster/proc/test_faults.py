"""Fault injection against real pids: SIGKILL, hangs, crash hygiene.

Every death here is a *real* process death (``SIGKILL``, which cannot
be caught, masked, or handled), and every assertion is about the
supervisor's observable contract: in-flight futures fail typed (never
hang), routing heals, revives are budgeted, a tier's whole lifecycle
leaves nothing behind but its own worker pids, and a failed spool
write never splits the fleet across generations.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import threading
import time

import pytest

from repro.cluster.proc import ProcClusterService
from repro.cluster.proc.supervisor import WorkerHandle
from repro.errors import CheckpointError, ReproError, WorkerDiedError
from repro.persist import save_service_checkpoint
from repro.serving import CostService, SnapshotStore

from .conftest import fast_config


def _poll(predicate, timeout_s: float = 20.0, interval_s: float = 0.02) -> bool:
    """Spin until *predicate* is truthy (bounded); True on success."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


# ----------------------------------------------------------------------
# SIGKILL mid-flight
# ----------------------------------------------------------------------
def test_sigkill_mid_flight_fails_futures_typed_and_revives(
    cluster_bundle, cluster_envs
):
    """Kill a worker while it holds an in-flight request: the pending
    future fails with WorkerDiedError (promptly — the sentinel, not a
    timeout, certifies the death), traffic fails over, and the
    supervisor revives a fresh pid that serves again."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    with ProcClusterService(worker_count=2, config=fast_config()) as tier:
        tier.deploy(bundle)
        expected = tier.estimate(sql, env)
        victim = tier.worker_of(tier.deployed_names()[0])
        handle = tier.worker(victim)
        old_pid = handle.pid

        inflight = handle.submit("delay", {"seconds": 30.0}, timeout_s=60.0)
        tier.kill_worker(victim)

        started = time.monotonic()
        with pytest.raises(WorkerDiedError):
            inflight.result(timeout=15.0)
        # Sentinel EOF, not the 60s request deadline, failed the future.
        assert time.monotonic() - started < 10.0

        # The tenant's traffic keeps flowing (failover or revival).
        assert tier.estimate(sql, env) == expected
        # And the fleet heals: a *different* pid takes the victim's id.
        assert _poll(
            lambda: tier.worker(victim).alive
            and tier.worker(victim).pid != old_pid,
            timeout_s=30.0,
        )
        assert tier.estimate(sql, env) == expected
        assert tier.supervisor.deaths == 1
        assert tier.supervisor.revive_count == 1
        died = tier.events.events("worker_died")
        assert died and died[0].data["worker"] == victim


def test_kill_during_checkpoint_restore(cluster_bundle, tmp_path):
    """SIGKILL a worker while it is inside the warm-boot checkpoint
    restore: spawn() must surface a typed WorkerDiedError, not hang
    until the boot timeout, and must leave nothing behind."""
    bundle, _ = cluster_bundle
    spool = tmp_path / "spool"
    with CostService(snapshot_store=SnapshotStore()) as service:
        service.deploy(bundle)
        save_service_checkpoint(service, str(spool))

    # boot_delay_s holds the worker inside the restore phase so the
    # kill lands mid-restore instead of racing interpreter startup.
    config = fast_config(
        service={"boot_delay_s": 5.0}, checkpoint_dir=str(spool)
    )
    handle = WorkerHandle("boot-victim", config)
    outcome = {}

    def _spawn() -> None:
        try:
            handle.spawn()
            outcome["hello"] = True
        except ReproError as exc:
            outcome["exc"] = exc

    spawner = threading.Thread(target=_spawn)
    spawner.start()
    try:
        assert _poll(lambda: handle.proc is not None, timeout_s=15.0)
        time.sleep(1.0)  # let the child get past exec and into boot
        handle.kill()
        spawner.join(timeout=30.0)
        assert not spawner.is_alive()
        assert isinstance(outcome.get("exc"), WorkerDiedError)
        assert "hello" not in outcome
    finally:
        handle.mark_dead(WorkerDiedError("test cleanup"), kill=True)
        spawner.join(timeout=10.0)


# ----------------------------------------------------------------------
# revive-vs-eject policy
# ----------------------------------------------------------------------
def test_revive_budget_exhaustion_ejects(cluster_bundle, cluster_envs):
    """First death revives; the second (budget ``max_revives=1``)
    permanently ejects — and the tier keeps serving on the survivor."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    with ProcClusterService(
        worker_count=2, config=fast_config(max_revives=1)
    ) as tier:
        tier.deploy(bundle)
        expected = tier.estimate(sql, env)
        victim = tier.worker_of(tier.deployed_names()[0])

        tier.kill_worker(victim)
        # Wait for the *replacement* handle (not the dying one, which
        # still reads "up" until the sentinel fires) to come up.
        assert _poll(
            lambda: tier.worker(victim).revives == 1
            and tier.worker(victim).alive,
            timeout_s=30.0,
        )

        tier.kill_worker(victim)
        assert _poll(lambda: tier.worker(victim).state == "ejected")

        counters = tier.supervisor.counters()
        assert counters["deaths"] == 2
        assert counters["revives"] == 1
        assert counters["ejections"] == 1
        # Routing never sends traffic to the ejected id again.
        assert not tier.router.is_alive(victim)
        assert tier.estimate(sql, env) == expected
        ejected = tier.events.events("worker_ejected")
        assert any(e.data.get("reason") == "revives" for e in ejected)


def test_heartbeat_kills_and_revives_a_hung_worker():
    """A live pid that stops answering pings is operationally dead:
    the supervisor SIGKILLs it (so the sentinel certifies the death)
    and revives a fresh pid.  No bundle deploy needed — the hang is
    induced with the worker's delay fault hook."""
    config = fast_config(heartbeat_interval_s=0.2, heartbeat_miss_limit=4)
    with ProcClusterService(worker_count=1, config=config) as tier:
        handle = tier.worker("worker-0")
        old_pid = handle.pid
        wedged = handle.submit("delay", {"seconds": 60.0}, timeout_s=120.0)

        assert _poll(
            lambda: tier.worker("worker-0").alive
            and tier.worker("worker-0").pid != old_pid,
            timeout_s=30.0,
        )
        with pytest.raises(WorkerDiedError):
            wedged.result(timeout=5.0)
        died = tier.events.events("worker_died")
        assert any(
            e.data.get("reason") == "heartbeat missed" for e in died
        )


# ----------------------------------------------------------------------
# crash hygiene: what a tier leaves behind
# ----------------------------------------------------------------------
def _segments():
    """Weight segments linked on this host, under the name prefix
    earlier builds gave them in POSIX shared memory (none, ever, is
    the bar)."""
    return sorted(pathlib.Path("/dev").glob("shm/qcfe-shm-*"))


def _children():
    """Pids of this process's children, live or not yet reaped, read
    from ``/proc/<pid>/stat``."""
    me = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_bytes()
        except OSError:
            continue
        # The fields after the command name: state, then the parent pid.
        if int(stat[stat.rindex(b")") + 2 :].split()[1]) == me:
            found.add(int(entry))
    return found


def _live_workers(tier):
    """Pids of the tier's serving workers."""
    return {h.pid for h in tier.supervisor.handles.values() if h.alive}


def _kill_and_resync(tier, worker_id):
    """SIGKILL *worker_id* and wait until its replacement is back in
    routing, which the tier does only after the replacement's sync."""
    old_pid = tier.worker(worker_id).pid
    tier.kill_worker(worker_id)
    assert _poll(
        lambda: tier.worker(worker_id).pid != old_pid
        and tier.router.is_alive(worker_id),
        timeout_s=30.0,
    )


def test_tier_lifecycle_leaves_no_segment_and_no_helper_process(
    cluster_bundle, cluster_envs, tmp_path
):
    """Deploy, estimate, SIGKILL and revive, redeploy, save/restore and
    close: no step links a weight segment, the tier's only children
    are its live workers (no resource-tracker helper) and close reaps
    them all."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    assert _segments() == []
    before = _children()  # other tiers' workers stay out of the count
    tier = ProcClusterService(worker_count=2, config=fast_config())
    try:
        name = tier.deploy(bundle)
        assert _segments() == []
        assert _children() - before == _live_workers(tier)
        assert len(_live_workers(tier)) == 2

        expected = tier.estimate(sql, env)
        assert _segments() == []

        _kill_and_resync(tier, tier.worker_of(name))
        assert tier.estimate(sql, env) == expected
        assert _segments() == []
        assert _poll(lambda: _children() - before == _live_workers(tier))

        tier.deploy(bundle, name="tenant-b")
        assert tier.estimate(sql, env, bundle="tenant-b") == expected
        assert _segments() == []

        tier.save(tmp_path / "ckpt")
        assert tier.restore(tmp_path / "ckpt")
        assert tier.estimate(sql, env, bundle=name) == expected
        assert _segments() == []
        assert _children() - before == _live_workers(tier)
    finally:
        tier.close()
    assert _segments() == []
    assert _children() - before == set()


def test_close_is_idempotent_and_reaps_every_pid(cluster_bundle):
    """Double-close must be safe, and a closed tier leaves zero child
    pids behind."""
    bundle, _ = cluster_bundle
    tier = ProcClusterService(worker_count=2, config=fast_config())
    tier.deploy(bundle)
    pids = [tier.worker(w).proc for w in ("worker-0", "worker-1")]
    tier.close()
    tier.close()
    for proc in pids:
        assert proc.poll() is not None, "worker pid outlived close()"


def test_a_failed_spool_write_installs_no_new_generation(
    cluster_bundle, cluster_envs, tmp_path
):
    """A spool that cannot be written fails deploy and save with a
    typed CheckpointError before the new generation is current, so a
    worker revived afterwards re-syncs to the generation the live
    workers serve, not one ahead of them."""
    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    spool = tmp_path / "spool"
    with ProcClusterService(
        worker_count=2, config=fast_config(), checkpoint_spool=spool
    ) as tier:
        name = tier.deploy(bundle)
        expected = tier.estimate(sql, env)
        shutil.rmtree(spool)
        spool.write_bytes(b"a regular file where the spool was")

        with pytest.raises(CheckpointError) as failed:
            tier.deploy(bundle, name="tenant-b")
        assert isinstance(failed.value.__cause__, OSError)
        with pytest.raises(CheckpointError):
            tier.save(spool / "nested")

        _kill_and_resync(tier, tier.worker_of(name))
        generations = {
            tier.worker(w).rpc("counters", {})[0]["value"]["generation"]
            for w in ("worker-0", "worker-1")
        }
        assert generations == {1}
        assert tier.estimate(sql, env, bundle=name) == expected


def test_concurrent_deploys_publish_the_newest_snapshot_last(
    cluster_bundle, cluster_envs, monkeypatch
):
    """Two deploys race: the first one's encode is held until the
    second has published.  The first snapshot drew the older
    generation, so it never replaces the newer image; a worker revived
    afterwards serves every deployed bundle."""
    from repro.cluster.proc import protocol
    from repro.cluster.proc import service as service_module
    from repro.persist import decode_checkpoint

    bundle, labeled = cluster_bundle
    sql, env = labeled[0].query_sql, cluster_envs[0]
    encode = service_module.encode_checkpoint
    held, release = threading.Event(), threading.Event()

    def slow_first_tenant(state, meta=None):
        names = {entry["name"] for entry in state["registry"]["bundles"]}
        if names == {"base", "tenant-a"}:
            held.set()
            assert release.wait(30.0)
        return encode(state, meta)

    with ProcClusterService(worker_count=2, config=fast_config()) as tier:
        tier.deploy(bundle, name="base")
        monkeypatch.setattr(service_module, "encode_checkpoint", slow_first_tenant)
        errors = []

        def deploy_a():
            try:
                tier.deploy(bundle, name="tenant-a")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        first = threading.Thread(target=deploy_a)
        first.start()
        assert held.wait(30.0)
        tier.deploy(bundle, name="tenant-b")
        release.set()
        first.join(60.0)
        assert not first.is_alive() and errors == []

        names = ["base", "tenant-a", "tenant-b"]
        assert tier.deployed_names() == names
        generation, image = tier._current_sync
        state, _ = decode_checkpoint(image)
        assert generation == 3
        assert [entry["name"] for entry in state["registry"]["bundles"]] == names
        _kill_and_resync(tier, "worker-0")
        request = protocol.encode_request([sql], env)
        for worker_id in ("worker-0", "worker-1"):
            handle = tier.worker(worker_id)
            assert handle.rpc("counters", {})[0]["value"]["generation"] == 3
            for name in names:
                reply, _ = handle.rpc(
                    "estimate", {"bundle": name, "backend": None}, request
                )
                assert reply["value"] > 0, (worker_id, name)


def test_deploys_from_many_threads_leave_the_newest_image_current(
    cluster_bundle,
):
    """Six deploys from six threads at once, with a short switch
    interval: the current image is the last generation drawn, it holds
    every deployed bundle, and the worker serves that generation."""
    import sys

    from repro.persist import decode_checkpoint
    from tests.conftest import hammer

    bundle, _ = cluster_bundle
    names = [f"tenant-{index}" for index in range(6)]
    interval = sys.getswitchinterval()
    with ProcClusterService(worker_count=1, config=fast_config()) as tier:
        sys.setswitchinterval(1e-5)
        try:
            errors = hammer(
                lambda index: tier.deploy(bundle, name=names[index]),
                threads=len(names),
            )
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        generation, image = tier._current_sync
        state, _ = decode_checkpoint(image)
        assert generation == tier._generation == len(names)
        assert sorted(e["name"] for e in state["registry"]["bundles"]) == names
        counters = tier.worker("worker-0").rpc("counters", {})[0]["value"]
        assert counters["generation"] == len(names)
