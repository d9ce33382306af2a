"""Concurrency barrage for the TCP daemon.

Each claim under deliberate stress:

* ~200 simultaneous connections with mixed reads and commits in flight —
  every request gets exactly one reply, none dropped, busy-retries
  bounded (zero, with the default lock timeout);
* pipelined calls on one connection come back in FIFO order even when
  lock-free reads are interleaved with slow locked calls;
* a daemon killed mid-pipeline poisons the in-flight calls with a
  connection error (never a wrong or silently missing reply) and the
  workload completes through the companion with a serializable history;
* a long-running commit holding the dispatch lock must not cause
  ``snapshot_read`` on the same port to answer busy/MessageDropped —
  the regression the lock-free read path exists to prevent.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.pathname import PagePath
from repro.errors import MessageDropped, ServerUnreachable
from repro.net import build_tcp_cluster, wire
from repro.net.server import READ_ONLY_COMMANDS, NetServer, command_handler
from repro.net.transport import PipelinedConnection
from repro.obs import Recorder
from repro.sim.rpc import _registry, failover_order
from repro.verify.history import HistoryRecorder, check_history

ROOT = PagePath.ROOT


def _service_address(cluster):
    """(node name, TCP address) of the first file-server daemon."""
    network = cluster.network
    node = failover_order(_registry(network)[cluster.service_port], None)[0]
    return node, network.address_of(node)


def _pipelined(address, dest, max_frame=wire.DEFAULT_MAX_FRAME):
    sock = socket.create_connection(address, timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return PipelinedConnection(sock, dest, max_frame)


# -- ~200 simultaneous connections, mixed reads and commits -----------------


def test_connection_barrage_no_response_dropped():
    """200 pipelined read connections and 4 committer clients at once:
    every submitted request is answered exactly once, the client- and
    server-side request counts agree (nothing dropped), and no busy
    signal fires."""
    CONNECTIONS = 200
    READS_PER_CONNECTION = 5
    COMMITTERS = 4
    COMMITS_EACH = 3

    recorder = Recorder()
    cluster = build_tcp_cluster(servers=2, seed=77, recorder=recorder)
    try:
        network = cluster.network
        seed_client = cluster.client("seed", use_cache=False)
        cap = seed_client.create_file(b"barrage")
        seed_client.transact(cap, lambda u: u.write(ROOT, b"barrage data"))
        node, address = _service_address(cluster)

        errors: list[BaseException] = []
        replies = [0] * CONNECTIONS

        def read_worker(index: int) -> None:
            try:
                conn = _pipelined(address, node)
                try:
                    ids = [
                        conn.submit(
                            f"conn{index}",
                            "snapshot_read",
                            {"file_cap": cap, "path": str(ROOT)},
                        )[0]
                        for _ in range(READS_PER_CONNECTION)
                    ]
                    for rid in ids:
                        frame_type, body = conn.result(rid)
                        assert frame_type == wire.FRAME_REPLY, wire.decode_error(
                            body
                        )
                        assert wire.decode_value(body) == b"barrage data"
                        replies[index] += 1
                finally:
                    conn.close()
            except BaseException as exc:  # surface, don't swallow
                errors.append(exc)

        def commit_worker(index: int) -> None:
            try:
                client = cluster.client(f"committer{index}", use_cache=False)
                mine = client.create_file(b"committer %d" % index)
                for round_ in range(COMMITS_EACH):
                    client.transact(
                        mine,
                        lambda u, r=round_: u.write(
                            ROOT, b"commit %d by %d" % (r, index)
                        ),
                    )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=read_worker, args=(i,))
            for i in range(CONNECTIONS)
        ] + [
            threading.Thread(target=commit_worker, args=(i,))
            for i in range(COMMITTERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]
        assert replies == [READS_PER_CONNECTION] * CONNECTIONS

        counters = recorder.metrics.counters
        busy = counters.get("net.tcp.busy")
        assert busy is None or busy.value == 0
        drops = counters.get("rpc.retries")
        assert drops is None or drops.value == 0
    finally:
        cluster.stop()


# -- per-connection FIFO across lock-free and locked calls ------------------


class SplitLockServer:
    """One lock-free command, one locked command, with skewed runtimes —
    a daemon that answered out of order would show it here."""

    def __init__(self):
        self.name = "split"

    def cmd_snapshot_read(self, value):  # lock-free
        return ("read", value)

    def cmd_mutate(self, value):  # dispatch lock
        time.sleep(0.01)
        return ("mutate", value)


def test_pipelined_replies_are_fifo_per_connection():
    assert "snapshot_read" in READ_ONLY_COMMANDS
    daemon = NetServer("split", command_handler(SplitLockServer(), 0x42)).start()
    try:
        with socket.create_connection(daemon.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Interleave slow mutating calls with fast reads: replies
            # must come back in submission order.
            expected = []
            for i in range(20):
                command = "mutate" if i % 3 == 0 else "snapshot_read"
                sock.sendall(
                    wire.encode_request(
                        "c", command, {"value": i}, request_id=i + 1
                    )
                )
                expected.append((i + 1, command.replace("snapshot_read", "read")))
            assembler = wire.FrameAssembler()
            got = []
            while len(got) < 20:
                chunk = sock.recv(1 << 16)
                assert chunk, "daemon hung up mid-pipeline"
                for frame_type, rid, body in assembler.feed(chunk):
                    assert frame_type == wire.FRAME_REPLY
                    kind, value = wire.decode_value(body)
                    got.append((rid, kind, value))
            assert [(rid, kind) for rid, kind, _ in got] == expected
            assert [value for _, _, value in got] == list(range(20))
    finally:
        daemon.stop()


# -- kill the daemon mid-pipeline -------------------------------------------


def test_kill_daemon_mid_pipeline_fails_over_cleanly():
    """Crash the preferred file-server daemon while pipelined calls are
    in flight: the pending calls surface as connection errors (never a
    fabricated reply), and a normal client completes the workload through
    the replica with a serializable recorded history."""
    recorder = Recorder()
    history = HistoryRecorder()
    cluster = build_tcp_cluster(
        servers=2, seed=29, recorder=recorder, history=history
    )
    try:
        client = cluster.client("host", history=history)
        caps = [client.create_file(b"file %d" % i) for i in range(3)]
        for i, cap in enumerate(caps):
            client.transact(cap, lambda u, i=i: u.write(ROOT, b"pre %d" % i))

        node, address = _service_address(cluster)
        conn = _pipelined(address, node)
        try:
            ids = [
                conn.submit(
                    "pipeliner",
                    "snapshot_read",
                    {"file_cap": caps[0], "path": str(ROOT)},
                )[0]
                for _ in range(32)
            ]
            cluster.fs(0).crash()  # abortive close under the pipeline
            outcomes = {"replied": 0, "errored": 0, "poisoned": 0}
            for rid in ids:
                try:
                    frame_type, body = conn.result(rid)
                    if frame_type == wire.FRAME_REPLY:
                        # Served before the crash landed: the payload
                        # must be the real data, never garbage.
                        assert wire.decode_value(body) == b"pre 0"
                        outcomes["replied"] += 1
                    else:
                        # Caught mid-crash: a typed error frame, still
                        # correlated to our request id.
                        assert frame_type == wire.FRAME_ERROR
                        assert isinstance(wire.decode_error(body), Exception)
                        outcomes["errored"] += 1
                except (ConnectionError, OSError, ServerUnreachable):
                    outcomes["poisoned"] += 1
            # Every in-flight call resolved one way or the other — a
            # real reply, a typed error, or a poisoned connection; none
            # vanished, and the crash was actually observed.
            assert sum(outcomes.values()) == 32
            assert outcomes["errored"] + outcomes["poisoned"] > 0
        finally:
            conn.close()

        # The ordinary client path fails over to the replica and the
        # history stays serializable.
        for i, cap in enumerate(caps):
            client.transact(cap, lambda u, i=i: u.write(ROOT, b"post %d" % i))
            assert client.read(cap) == b"post %d" % i
        assert recorder.metrics.counters["net.tcp.failovers"].value > 0
        result = check_history(history)
        assert result.ok, result.violations()
        cluster.fs(0).restart()
        client.transact(caps[0], lambda u: u.write(ROOT, b"after restart"))
        assert client.read(caps[0]) == b"after restart"
    finally:
        cluster.stop()


# -- long commit must not busy snapshot_read --------------------------------


class SlowCommitServer:
    """Daemon-level regression harness: a mutating command that holds the
    dispatch lock far longer than the lock timeout."""

    def __init__(self):
        self.name = "slowfs"
        self.commit_started = threading.Event()

    def cmd_commit_like(self):
        self.commit_started.set()
        time.sleep(0.6)
        return "committed"

    def cmd_snapshot_read(self):
        return "snapshot"


def test_snapshot_read_not_busied_by_long_commit_daemon_level():
    """With a 0.1s lock timeout and a 0.6s mutating call holding the
    lock, a snapshot read on the same port must answer — not busy.  (A
    daemon that locked every command would answer MessageDropped.)"""
    server = SlowCommitServer()
    daemon = NetServer(
        "slowfs", command_handler(server, 0x42), lock_timeout=0.1
    ).start()
    try:
        background = []

        def long_commit():
            with socket.create_connection(daemon.address, timeout=10) as sock:
                sock.sendall(
                    wire.encode_request("w", "commit_like", {}, request_id=1)
                )
                header = _read_exact(sock, wire.HEADER_SIZE)
                _, _, length = wire.decode_header(header)
                background.append(wire.decode_value(_read_exact(sock, length)))

        writer = threading.Thread(target=long_commit)
        writer.start()
        assert server.commit_started.wait(timeout=5)
        start = time.monotonic()
        with socket.create_connection(daemon.address, timeout=10) as sock:
            sock.sendall(
                wire.encode_request("r", "snapshot_read", {}, request_id=2)
            )
            header = _read_exact(sock, wire.HEADER_SIZE)
            frame_type, rid, length = wire.decode_header(header)
            body = _read_exact(sock, length)
        elapsed = time.monotonic() - start
        writer.join(timeout=5)
        assert frame_type == wire.FRAME_REPLY, wire.decode_error(body)
        assert wire.decode_value(body) == "snapshot"
        assert rid == 2
        # Answered while the commit still held the lock, and without
        # waiting out the lock timeout.
        assert elapsed < 0.5
        assert background == ["committed"]
    finally:
        daemon.stop()


def test_snapshot_read_not_busied_by_commit_stream_service_level():
    """The same regression against the real file service: a stream of
    multi-page commits with a lock timeout far below the commit window —
    every concurrent snapshot read must succeed, zero busy signals."""
    recorder = Recorder()
    cluster = build_tcp_cluster(
        servers=2, seed=31, recorder=recorder, lock_timeout=0.02
    )
    try:
        committer = cluster.client("committer", use_cache=False)
        commit_cap = committer.create_file(b"committed file")
        reader = cluster.client("reader", use_cache=False)
        read_cap = reader.create_file(b"read file")
        reader.transact(read_cap, lambda u: u.write(ROOT, b"read data"))

        stop = threading.Event()
        errors: list[BaseException] = []

        def commit_stream():
            try:
                round_ = 0
                while not stop.is_set():
                    def fill(update, r=round_):
                        update.write(ROOT, b"round %d" % r)
                        for _ in range(63):
                            update.append_page(ROOT, b"x" * 4096)

                    committer.transact(commit_cap, fill)
                    round_ += 1
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=commit_stream)
        thread.start()
        try:
            for _ in range(200):
                assert reader.snapshot_read(read_cap) == b"read data"
        except MessageDropped:
            pytest.fail("snapshot_read answered busy during a commit")
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not errors, errors[0]
        busy = recorder.metrics.counters.get("net.tcp.busy")
        assert busy is None or busy.value == 0
    finally:
        cluster.stop()


def _read_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "connection closed early"
        data += chunk
    return data
