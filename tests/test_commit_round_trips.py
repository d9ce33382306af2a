"""A transaction costs two client round trips, whatever its size.

``FileClient.transact`` runs write-behind and ships the buffered page
writes inside its ``commit`` request: ``create_version`` plus ``commit``
is four client messages (two requests, two replies) for 1, 8 or 64
pages — on the simulator, on the threaded daemons and on the asyncio
daemons alike.  ``flush`` ships the buffer in one ``write_pages`` call.
When the writes would not fit one frame of the TCP transport, earlier
runs go ahead as ``write_pages`` calls and only the last rides in
``commit``.  A commit whose shipped writes the server refuses leaves no
open version and no soft lock behind.
"""

from __future__ import annotations

import pytest

from repro.client.api import FileClient
from repro.core.page import PAGE_BODY_SIZE
from repro.core.pathname import PagePath
from repro.errors import BadPathName, PageTooLarge
from repro.net import build_tcp_cluster, connect, wire
from repro.net.aserver import READ_ONLY_COMMANDS
from repro.testbed import build_cluster

ROOT = PagePath.ROOT


@pytest.fixture(params=["sim", "threaded", "async"])
def deployment(request):
    if request.param == "sim":
        yield build_cluster(servers=1, seed=7)
        return
    cluster = build_tcp_cluster(
        servers=1, seed=7, async_mode=request.param == "async"
    )
    yield cluster
    cluster.stop()


def client_of(cluster, node: str, **kwargs) -> FileClient:
    return FileClient(cluster.network, node, cluster.service_port, **kwargs)


def record_commands(monkeypatch, network, node: str) -> list[str]:
    """Every command ``node`` sends from now on; each is one request and
    one reply message."""
    sent: list[str] = []
    send = network.send

    def recording(sender, dest, payload, *args, **kwargs):
        if sender == node:
            sent.append(payload.command)
        return send(sender, dest, payload, *args, **kwargs)

    monkeypatch.setattr(network, "send", recording)
    return sent


def file_with_pages(client: FileClient, n: int):
    cap = client.create_file(b"root")
    client.transact(cap, lambda u: [u.append_page(ROOT, b"") for _ in range(n)])
    return cap


def page_value(i: int, tag: bytes) -> bytes:
    return b"%s page %d " % (tag, i) * 40


@pytest.mark.parametrize("n", [1, 8, 64])
def test_transact_costs_four_client_messages(deployment, monkeypatch, n):
    client = client_of(deployment, "host")
    cap = file_with_pages(client, n)
    sent = record_commands(monkeypatch, deployment.network, "host")
    client.transact(
        cap,
        lambda u: [u.write(PagePath.of(i), page_value(i, b"new")) for i in range(n)],
    )
    assert sent == ["create_version", "commit"]
    reader = client_of(deployment, "reader", use_cache=False)
    for i in range(n):
        assert reader.read(cap, PagePath.of(i)) == page_value(i, b"new")


def test_flush_is_one_write_pages_call(deployment, monkeypatch):
    client = client_of(deployment, "host")
    cap = file_with_pages(client, 8)
    sent = record_commands(monkeypatch, deployment.network, "host")
    update = client.begin(cap, buffer_writes=True)
    for i in range(8):
        update.write(PagePath.of(i), page_value(i, b"flushed"))
    assert update.flush() == 8
    assert sent == ["create_version", "write_pages"]
    update.commit()
    assert sent == ["create_version", "write_pages", "commit"]
    reader = client_of(deployment, "reader", use_cache=False)
    assert reader.read(cap, PagePath.of(7)) == page_value(7, b"flushed")


def test_begin_keeps_writing_through_by_default(deployment):
    client = client_of(deployment, "host")
    cap = client.create_file(b"x")
    update = client.begin(cap)
    assert update.buffering is False
    update.abort()


def test_write_commands_are_never_lock_free():
    assert "commit" not in READ_ONLY_COMMANDS
    assert "write_pages" not in READ_ONLY_COMMANDS
    assert "write_page" not in READ_ONLY_COMMANDS


@pytest.mark.parametrize("bad_write", ["too-large", "bad-path"])
def test_refused_shipped_write_leaves_nothing_open(deployment, bad_write):
    client = client_of(deployment, "host")
    cap = client.create_file(b"kept")

    def update_fn(update):
        if bad_write == "too-large":
            update.write(ROOT, b"x" * (PAGE_BODY_SIZE + 1))
        else:
            update.write(PagePath.of(3), b"no such page")

    expected = PageTooLarge if bad_write == "too-large" else BadPathName
    with pytest.raises(expected):
        client.transact(cap, update_fn)
    assert deployment.fs(0).family_tree(cap)["uncommitted"] == []
    other = client_of(deployment, "other", use_cache=False)
    update = other.begin(cap, respect_soft_lock=True)  # soft lock released
    assert other.stats.lock_waits == 0
    update.abort()
    assert other.read(cap) == b"kept"


def test_conflict_redo_ships_the_new_attempts_values(deployment):
    client = client_of(deployment, "host")
    other = client_of(deployment, "other")
    cap = client.create_file(b"0")
    seen: list[int] = []

    def increment(update):
        value = int(update.read(ROOT))
        seen.append(value)
        if len(seen) == 1:
            other.transact(cap, lambda u: u.write(ROOT, b"10"))
        update.write(ROOT, b"%d" % (value + 1))

    client.transact(cap, increment)
    assert seen == [0, 10]
    assert client.stats.redos == 1
    reader = client_of(deployment, "reader", use_cache=False)
    assert reader.read(cap) == b"11"
    assert len(reader.history(cap)) == 3


def big_value(i: int, tag: bytes) -> bytes:
    return page_value(i, tag) * 8


@pytest.mark.parametrize("async_mode", [False, True], ids=["threaded", "async"])
def test_writes_larger_than_a_frame_go_in_frame_sized_runs(async_mode, monkeypatch):
    limit = 32 * 1024
    cluster = build_tcp_cluster(servers=1, seed=7, async_mode=async_mode)
    network, service_port = connect(cluster.spec())
    try:
        # The client and the file server's daemon both enforce the small
        # limit; the block tier behind the file server keeps the default.
        network.max_frame = limit
        cluster.network.daemon("fs0").max_frame = limit
        client = FileClient(network, "big", service_port)
        n = 40
        cap = file_with_pages(client, n)
        assert sum(len(big_value(i, b"big")) for i in range(n)) > 3 * limit

        frames: list[tuple[str, int]] = []
        send = network.send

        def measuring(sender, dest, payload, *args, **kwargs):
            size = len(
                wire.encode_request(
                    sender, payload.command, payload.params, max_frame=1 << 30
                )
            )
            frames.append((payload.command, size))
            return send(sender, dest, payload, *args, **kwargs)

        monkeypatch.setattr(network, "send", measuring)
        client.transact(
            cap,
            lambda u: [
                u.write(PagePath.of(i), big_value(i, b"big")) for i in range(n)
            ],
        )
        commands = [command for command, _ in frames]
        assert commands[0] == "create_version" and commands[-1] == "commit"
        assert set(commands[1:-1]) == {"write_pages"}
        assert len(commands) >= 5
        assert max(size for _, size in frames) <= limit

        update = client.begin(cap, buffer_writes=True)
        for i in range(n):
            update.write(PagePath.of(i), big_value(i, b"flush"))
        assert update.flush() == n
        update.commit()
        assert max(size for _, size in frames) <= limit

        reader = cluster.client("reader", use_cache=False)
        for i in range(n):
            assert reader.read(cap, PagePath.of(i)) == big_value(i, b"flush")
        assert len(reader.history(cap)) == 4
    finally:
        network.close()
        cluster.stop()
