"""The daemon's lock-free command set is a checked property.

``READ_ONLY_COMMANDS`` decides which commands the TCP daemon runs without
its dispatch lock, so a wrong entry is a silent concurrency bug.  Two
guards:

* every name in the set is a ``cmd_<name>`` method of a hosted server
  class — a typo or a dead name fails here;
* every command in the set, run against a populated deployment, leaves
  every stable half's disk untouched (no block written or freed) and
  emits no store ``flush`` span.  The one in-memory effect allowed is the
  documented lazy version-entry minting and hint repair of
  ``current_version``/``snapshot_read``, which writes nothing to disk.
"""

from __future__ import annotations

from repro.block.server import BlockServer
from repro.block.stable import StableServer
from repro.core.pathname import PagePath
from repro.core.service import FileService
from repro.net.discovery import DiscoveryServer
from repro.net.server import READ_ONLY_COMMANDS
from repro.obs import Recorder
from repro.sim.rpc import Transaction
from repro.testbed import build_sharded_cluster

ROOT = PagePath.ROOT

HOSTED_CLASSES = (FileService, StableServer, BlockServer, DiscoveryServer)


def test_every_read_only_command_is_a_hosted_command():
    for name in sorted(READ_ONLY_COMMANDS):
        owners = [cls for cls in HOSTED_CLASSES if hasattr(cls, f"cmd_{name}")]
        assert owners, f"READ_ONLY_COMMANDS names {name!r}, which no server hosts"


def _populated_cluster():
    """Two shards, two file servers, discovery; committed multi-page
    files, one of them with a further update still open."""
    recorder = Recorder()
    cluster = build_sharded_cluster(
        shards=2, servers=2, seed=5, recorder=recorder, discovery=True
    )
    fs = cluster.fs(0)
    caps = []
    for i in range(4):
        cap = fs.create_file(b"file %d" % i)
        handle = fs.create_version(cap)
        fs.write_page(handle.version, ROOT, b"root %d" % i)
        for page in range(3):
            fs.append_page(handle.version, ROOT, b"page %d of %d" % (page, i))
        fs.commit(handle.version)
        caps.append(cap)
    open_update = fs.create_version(caps[0], owner="writer")
    fs.write_page(open_update.version, ROOT, b"not yet committed")
    return cluster, recorder, caps


def _disk_counts(cluster) -> dict[str, tuple[int, int]]:
    return {
        half.name: (half.local.disk.stats.writes, half.local.disk.stats.frees)
        for pair in cluster.shards.pairs
        for half in pair.halves()
    }


def test_read_only_commands_write_nothing():
    cluster, recorder, caps = _populated_cluster()
    fs = cluster.fs(0)
    (update_port,) = fs._live_updates
    cap, path = caps[0], str(ROOT)
    service = (cluster.service_port, None)
    discovery = (cluster.discovery_port, None)
    halves = [
        (pair.port, half.name)
        for pair in cluster.shards.pairs
        for half in pair.halves()
    ]
    # command -> [(paper port, preferred node, params)]
    calls = {
        "snapshot_read": [(*service, {"file_cap": cap, "path": path})],
        "ping": [(*service, {})],
        "current_version": [(*service, {"file_cap": cap})],
        "committed_versions": [(*service, {"file_cap": cap})],
        "family_tree": [(*service, {"file_cap": cap})],
        "probe_update": [(*service, {"update_port": update_port})],
        "read_current": [(*service, {"file_cap": cap, "path": path})],
        "placement": [(*discovery, {})],
        "directory": [(*discovery, {})],
        "bootstrap": [(*discovery, {})],
        "manifest": [(*half, {}) for half in halves],
        "retired_epoch": [(*half, {}) for half in halves],
    }
    assert set(calls) == READ_ONLY_COMMANDS, "every lock-free command is run"

    before = _disk_counts(cluster)
    recorder.tracer.clear()
    txn = Transaction(cluster.network, "probe")
    for command, targets in calls.items():
        for port, prefer, params in targets:
            txn.call(port, command, prefer=prefer, **params)
        assert _disk_counts(cluster) == before, f"{command} wrote to disk"
        assert recorder.tracer.spans_named("flush") == [], f"{command} flushed"
    # Served, not refused: the reads saw the populated state.
    assert txn.call(cluster.service_port, "snapshot_read", file_cap=caps[1],
                    path=path) == b"root 1"
