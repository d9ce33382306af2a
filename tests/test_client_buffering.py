"""The client-side write-behind buffer (§5.4, client half)."""

import pytest

from repro.core.pathname import PagePath
from repro.client.api import FileClient

ROOT = PagePath.ROOT


@pytest.fixture
def buffered_client(cluster):
    return FileClient(
        cluster.network, "bufhost", cluster.service_port, buffer_writes=True
    )


def test_buffered_writes_reach_commit(buffered_client):
    cap = buffered_client.create_file(b"v0")
    update = buffered_client.begin(cap)
    update.write(ROOT, b"v1")
    update.write(ROOT, b"v2")
    update.commit()
    assert buffered_client.read(cap) == b"v2"


def test_read_your_buffered_write(buffered_client):
    cap = buffered_client.create_file(b"v0")
    update = buffered_client.begin(cap)
    update.write(ROOT, b"pending")
    assert update.read(ROOT) == b"pending"  # served locally
    update.abort()
    assert buffered_client.read(cap) == b"v0"


def test_rewrites_cross_network_once(cluster, buffered_client):
    cap = buffered_client.create_file(b"v0")
    update = buffered_client.begin(cap)
    before = cluster.network.stats.messages
    for n in range(15):
        update.write(ROOT, b"draft%d" % n)
    writes_traffic = cluster.network.stats.messages - before
    assert writes_traffic == 0  # nothing crossed the network yet
    update.commit()
    assert buffered_client.read(cap) == b"draft14"


def test_buffer_flushes_before_structural_ops(buffered_client):
    cap = buffered_client.create_file(b"root")
    update = buffered_client.begin(cap)
    update.write(ROOT, b"rootdata")
    child = update.append_page(ROOT, b"child")  # forces a flush first
    assert update._buffered == {}
    update.write(child, b"child2")
    update.commit()
    assert buffered_client.read(cap) == b"rootdata"
    assert buffered_client.read(cap, child) == b"child2"


def test_abort_discards_buffer(buffered_client, cluster):
    cap = buffered_client.create_file(b"keep")
    update = buffered_client.begin(cap)
    before = cluster.network.stats.messages
    update.write(ROOT, b"junk1")
    update.write(ROOT, b"junk2")
    # The junk never crossed the network...
    assert cluster.network.stats.messages == before
    update.abort()
    # ...and the abort dropped it without shipping it either.
    assert update._buffered == {}
    assert buffered_client.read(cap) == b"keep"


def test_buffered_updates_still_conflict_correctly(cluster, buffered_client):
    """Buffering must not weaken validation: a buffered read-modify-write
    racing another writer still conflicts and redoes."""
    other = FileClient(cluster.network, "other", cluster.service_port)
    cap = buffered_client.create_file(b"0")

    update = buffered_client.begin(cap)
    value = int(update.read(ROOT))  # a real server-side read: R flag set
    other.transact(cap, lambda u: u.write(ROOT, b"100"))
    update.write(ROOT, b"%d" % (value + 1))
    from repro.errors import CommitConflict

    with pytest.raises(CommitConflict):
        update.commit()
    assert buffered_client.read(cap) == b"100"


def test_per_update_override(cluster):
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"x")
    update = client.begin(cap, buffer_writes=True)
    before = cluster.network.stats.messages
    update.write(ROOT, b"y")
    assert cluster.network.stats.messages == before
    update.commit()
    assert client.read(cap) == b"y"


def test_failed_commit_keeps_the_buffer_for_a_retry(
    cluster, buffered_client, monkeypatch
):
    """The buffered writes ride inside the commit request; if that
    request fails (an outage), they stay buffered and a retried commit
    ships them again."""
    from repro.errors import ServerUnreachable

    cap = buffered_client.create_file(b"v0")
    update = buffered_client.begin(cap)
    update.write(ROOT, b"v1")
    call = buffered_client._call

    def commit_lost(command, **params):
        if command == "commit":
            raise ServerUnreachable("commit request lost")
        return call(command, **params)

    monkeypatch.setattr(buffered_client, "_call", commit_lost)
    with pytest.raises(ServerUnreachable):
        update.commit()
    assert update._buffered == {ROOT: b"v1"}
    monkeypatch.undo()
    update.commit()
    reader = FileClient(cluster.network, "reader", cluster.service_port)
    assert reader.read(cap) == b"v1"
