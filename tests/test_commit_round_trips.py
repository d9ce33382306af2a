"""A write-only transaction costs one client round trip, whatever its size.

``FileClient.transact`` runs write-behind and creates its version only
when the update needs it.  An update that only writes is one ``update``
request — version, writes and commit — which is two client messages (a
request and a reply) for 1, 8 or 64 pages, on the simulator and on the
TCP daemons alike.  An update that reads a page it has not written, or
restructures the tree, creates the version first and ships its buffered
writes inside its ``commit`` request.  ``flush`` ships the buffer in one
``write_pages`` call.  When the writes would not fit one frame of the
TCP transport, the update falls back to ``create_version``, and earlier
runs go ahead as ``write_pages`` calls with only the last riding in
``commit``.  A refused write leaves no open version and no lock behind,
and a retransmitted ``update`` whose first copy committed commits once.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.client.api import FileClient
from repro.core.page import PAGE_BODY_SIZE
from repro.core.pathname import PagePath
from repro.core.system_tree import SystemTree
from repro.errors import BadPathName, MessageDropped, PageTooLarge
from repro.net import build_tcp_cluster, connect, wire
from repro.net.server import READ_ONLY_COMMANDS
from repro.testbed import build_cluster
from repro.verify.history import HistoryRecorder, check_history

ROOT = PagePath.ROOT


@pytest.fixture(params=["sim", "threaded"])
def deployment(request):
    """One file server, its operations recorded for the history checker."""
    history = HistoryRecorder()
    if request.param == "sim":
        yield build_cluster(servers=1, seed=7, history=history)
        return
    cluster = build_tcp_cluster(servers=1, seed=7, history=history)
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
def test_write_only_transact_costs_two_client_messages(deployment, monkeypatch, n):
    client = client_of(deployment, "host")
    cap = file_with_pages(client, n)
    sent = record_commands(monkeypatch, deployment.network, "host")
    client.transact(
        cap,
        lambda u: [u.write(PagePath.of(i), page_value(i, b"new")) for i in range(n)],
    )
    assert sent == ["update"]
    assert client.stats.commits == 2
    reader = client_of(deployment, "reader", use_cache=False)
    for i in range(n):
        assert reader.read(cap, PagePath.of(i)) == page_value(i, b"new")
    assert len(reader.history(cap)) == 3
    # The written pages seed the writer's cache under the new version.
    assert client.read(cap, PagePath.of(n - 1)) == page_value(n - 1, b"new")
    assert sent[1:] == ["validate_cache"]


def test_read_then_write_transact_creates_its_version_first(
    deployment, monkeypatch
):
    client = client_of(deployment, "host")
    cap = file_with_pages(client, 2)
    sent = record_commands(monkeypatch, deployment.network, "host")

    def copy_page(update):
        update.write(PagePath.of(1), update.read(PagePath.of(0)) + b"!")

    client.transact(cap, copy_page)
    assert sent == ["create_version", "read_page", "commit"]
    reader = client_of(deployment, "reader", use_cache=False)
    assert reader.read(cap, PagePath.of(1)) == b"!"


def test_reading_a_buffered_page_needs_no_version(deployment, monkeypatch):
    client = client_of(deployment, "host")
    cap = client.create_file(b"old")
    sent = record_commands(monkeypatch, deployment.network, "host")

    def rewrite(update):
        update.write(ROOT, b"new")
        return update.read(ROOT)

    assert client.transact(cap, rewrite) == b"new"
    assert sent == ["update"]


def test_structural_transact_creates_its_version_first(deployment, monkeypatch):
    client = client_of(deployment, "host")
    cap = client.create_file(b"root")
    sent = record_commands(monkeypatch, deployment.network, "host")

    def grow(update):
        update.write(ROOT, b"root v2")
        path = update.append_page(ROOT, b"")
        update.write(path, b"child")

    client.transact(cap, grow)
    assert sent == ["create_version", "write_pages", "append_page", "commit"]
    reader = client_of(deployment, "reader", use_cache=False)
    assert reader.read(cap) == b"root v2"
    assert reader.read(cap, PagePath.of(0)) == b"child"


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
    assert "update" not in READ_ONLY_COMMANDS


@pytest.mark.parametrize("bad_write", ["too-large", "bad-path"])
def test_refused_shipped_write_leaves_nothing_open(
    deployment, monkeypatch, bad_write
):
    client = client_of(deployment, "host")
    cap = client.create_file(b"kept")

    def update_fn(update):
        if bad_write == "too-large":
            update.write(ROOT, b"x" * (PAGE_BODY_SIZE + 1))
        else:
            update.write(PagePath.of(3), b"no such page")

    expected = PageTooLarge if bad_write == "too-large" else BadPathName
    sent = record_commands(monkeypatch, deployment.network, "host")
    with pytest.raises(expected):
        client.transact(cap, update_fn)
    assert sent == ["update"]  # the server aborted the version itself
    fs = deployment.fs(0)
    assert fs.family_tree(cap)["uncommitted"] == []
    assert fs._live_updates == set()
    current = fs.store.load(fs.registry.file(cap.obj).entry_block, fresh=True)
    assert (current.top_lock, current.inner_lock) == (0, 0)
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


def test_inner_lock_of_a_super_file_update_is_waited_out(deployment, monkeypatch):
    fs = deployment.fs(0)
    tree = SystemTree(fs)
    parent = fs.create_file(b"P")
    handle = fs.create_version(parent)
    sub = tree.create_subfile(handle.version, ROOT, initial_data=b"S v1")
    fs.commit(handle.version)
    super_update = tree.begin_super_update(parent)
    opened = tree.open_subfile(super_update, sub)
    fs.write_page(opened.version, ROOT, b"S by super")

    client = client_of(deployment, "host")
    sent = record_commands(monkeypatch, deployment.network, "host")
    send = deployment.network.send

    def holder_finishes_while_waited_for(sender, dest, payload, *args, **kwargs):
        # The live holder commits while the client's waiter step is on
        # its way; that step then finds the sub-file unlocked.
        if payload.command == "recover_lock" and not super_update.done:
            tree.commit_super(super_update)
        return send(sender, dest, payload, *args, **kwargs)

    monkeypatch.setattr(deployment.network, "send", holder_finishes_while_waited_for)
    client.transact(sub, lambda u: u.write(ROOT, b"S by client"))
    assert sent == ["update", "recover_lock", "update"]
    assert client.stats.lock_waits == 1
    reader = client_of(deployment, "reader", use_cache=False)
    assert reader.read(sub) == b"S by client"
    assert [reader.read_version(v) for v in reader.history(sub)] == [
        b"S v1", b"S by super", b"S by client",
    ]


def test_retransmitted_update_commits_once(deployment, monkeypatch):
    """The first stable call after the commit's test-and-set is dropped:
    the server's page cache lost the new version page, and re-reading it
    (to cache the version's write paths) raises ``MessageDropped``.  The
    client's transport retransmits the ``update``; the registry answers
    it with the first copy's reply instead of committing again."""
    client = client_of(deployment, "host")
    cap = client.create_file(b"v0")
    store = deployment.fs(0).store
    tas, read = store.tas_commit_ref, store.blocks.read
    dropped: list[int] = []
    armed = []

    def tas_then_lose_cache(block, new_successor):
        result = tas(block, new_successor)
        if result.success and not armed:
            armed.append(new_successor)
            store.cache.clear()
        return result

    def read_dropped_once(block_no):
        if armed and not dropped:
            dropped.append(block_no)
            raise MessageDropped("stable read after the commit point")
        return read(block_no)

    monkeypatch.setattr(store, "tas_commit_ref", tas_then_lose_cache)
    monkeypatch.setattr(store.blocks, "read", read_dropped_once)
    sent = record_commands(monkeypatch, deployment.network, "host")
    client.transact(cap, lambda u: u.write(ROOT, b"v1"))
    assert dropped == armed  # the new version page's re-read was dropped
    assert sent == ["update", "update"]
    reader = client_of(deployment, "reader", use_cache=False)
    assert [reader.read_version(v) for v in reader.history(cap)] == [b"v0", b"v1"]
    result = check_history(deployment.history)
    assert result.ok, [str(v) for v in result.violations]


def test_concurrent_write_only_transacts_over_tcp_all_commit_once():
    """Client threads on both file-server daemons blind-write their own
    page of one shared file: every ``update`` commits exactly once."""
    threads_n, commits_each = 6, 8
    history = HistoryRecorder()
    cluster = build_tcp_cluster(servers=2, seed=11, history=history)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        setup = cluster.client("setup", use_cache=False)
        cap = file_with_pages(setup, threads_n)
        errors: list[Exception] = []

        def writer(t: int) -> None:
            client = cluster.client(f"w{t}", prefer_server=f"fs{t % 2}")
            try:
                for k in range(commits_each):
                    value = b"writer %d commit %d" % (t, k)
                    client.transact(cap, lambda u: u.write(PagePath.of(t), value))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        workers = [
            threading.Thread(target=writer, args=(t,)) for t in range(threads_n)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        reader = cluster.client("reader", use_cache=False)
        assert len(reader.history(cap)) == 2 + threads_n * commits_each
        for t in range(threads_n):
            last = b"writer %d commit %d" % (t, commits_each - 1)
            assert reader.read(cap, PagePath.of(t)) == last
        result = check_history(history)
        assert result.ok, [str(v) for v in result.violations]
    finally:
        sys.setswitchinterval(interval)
        cluster.stop()


def big_value(i: int, tag: bytes) -> bytes:
    return page_value(i, tag) * 8


@pytest.mark.parametrize("daemon", ["threaded"])
def test_writes_larger_than_a_frame_go_in_frame_sized_runs(daemon, monkeypatch):
    """Writes too big for one ``update`` frame fall back to
    ``create_version``, ``write_pages`` runs and ``commit``."""
    limit = 32 * 1024
    cluster = build_tcp_cluster(servers=1, seed=7)
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

        # Writes that fit one frame still travel as one ``update``.
        del frames[:]
        client.transact(
            cap, lambda u: [u.write(PagePath.of(i), big_value(i, b"big")) for i in (0, 1)]
        )
        assert [command for command, _ in frames] == ["update"]
        assert frames[0][1] <= limit

        update = client.begin(cap, buffer_writes=True)
        for i in range(n):
            update.write(PagePath.of(i), big_value(i, b"flush"))
        assert update.flush() == n
        update.commit()
        assert max(size for _, size in frames) <= limit

        reader = cluster.client("reader", use_cache=False)
        for i in range(n):
            assert reader.read(cap, PagePath.of(i)) == big_value(i, b"flush")
        assert len(reader.history(cap)) == 5
    finally:
        network.close()
        cluster.stop()
