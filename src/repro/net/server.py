"""The socket daemon: one paper *port* served on one TCP port.

A :class:`NetServer` hosts any object exposing the ``cmd_*`` command set —
a block server, one half of a stable pair, a file server — behind a real
listening TCP socket.  Each accepted connection gets its own thread;
frames are read with exact-length receives (partial reads and kernel
buffering are handled here, nowhere else), dispatched, and answered with
a reply or error frame on the same connection.  One thread reads, runs
and answers a connection's requests one after another, so pipelined
requests are answered in FIFO order by construction.

The hosted server objects are the same single-threaded objects the
simulation drives, so mutating commands are serialised through a
dispatch lock.  Commands in :data:`READ_ONLY_COMMANDS` skip it: committed
versions are immutable (paper §5.2 — the test-and-set of the commit
reference is the only critical section), so a snapshot read never waits
behind a long commit.  The lock is acquired with a timeout: a request
that cannot get the server within the window is answered with a
retryable busy error (``MessageDropped`` on the wire, which the
transaction layer retries with backoff) instead of queueing unboundedly
— this also breaks the cross-daemon deadlock a companion pair could
otherwise reach when both halves serve a client and call each other at
the same moment.

Lifecycle mirrors the simulated network's attach/detach/reattach: a
stopped daemon refuses connections (clients observe ECONNREFUSED and fail
over, exactly the paper's §4 behaviour), and a restart rebinds the same
TCP port so the address registry stays valid.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Any, Callable

from repro.errors import MessageDropped, ReproError, ServerUnreachable, WireError
from repro.net import wire
from repro.obs import NULL_RECORDER

# How long one request may wait for the dispatch lock before being told
# to retry.  Generous against slow CI machines, small against deadlock.
DEFAULT_LOCK_TIMEOUT = 5.0

# Commands that never mutate server state and are safe to run while a
# mutating command holds the dispatch lock.  Deliberately conservative:
# ``read_page``/``page_structure`` record search flags on uncommitted
# versions, and a stable server's ``read`` performs repairing writes, so
# none of those qualify.
READ_ONLY_COMMANDS = frozenset(
    {
        "snapshot_read",
        "ping",
        "current_version",
        "committed_versions",
        "family_tree",
        "probe_update",
        # Same mutation class as current_version + snapshot_read: hint
        # repair and lazy version-entry minting only.  renew_lease stays
        # locked — it feeds the write-paths cache via validate_cache.
        "read_current",
        # Discovery / placement reads: pure dictionary lookups.
        "placement",
        "directory",
        "bootstrap",
        # Migration reads on a stable server: the manifest and the
        # retirement stamp are pure dict/attribute reads.  ``export``
        # stays locked — it reads through ``_checked_read``, which can
        # perform repairing writes; ``dirty_blocks`` stays locked — its
        # ``reset`` flag mutates the tracking set.
        "manifest",
        "retired_epoch",
    }
)


def command_handler(server: Any, port: int) -> Callable[[str, str, dict], Any]:
    """Wrap a ``cmd_*`` server object as a dispatch handler."""

    def handle(sender: str, command: str, params: dict) -> Any:
        method = getattr(server, f"cmd_{command}", None)
        if method is None:
            raise ServerUnreachable(
                f"port {port:#x}: unknown command {command!r}"
            )
        return method(**params)

    return handle


class NetServer:
    """A threaded TCP daemon serving the wire protocol for one server.

    ``handler(sender, command, params)`` produces the reply value (or
    raises).  ``port=0`` binds an OS-assigned port on first start; the
    assigned port is kept across stop/start cycles so failover addresses
    stay stable.
    """

    def __init__(
        self,
        name: str,
        handler: Callable[[str, str, dict], Any],
        host: str = "127.0.0.1",
        port: int = 0,
        recorder=None,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        dispatch_lock: threading.Lock | None = None,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ) -> None:
        self.name = name
        self.handler = handler
        self.host = host
        self.port = port
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.max_frame = max_frame
        self.lock_timeout = lock_timeout
        self._dispatch_lock = (
            dispatch_lock if dispatch_lock is not None else threading.Lock()
        )
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._running = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "NetServer":
        """Bind, listen, and start accepting.  Idempotent while running."""
        if self._running:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # A restart can race the previous incarnation's connection threads
        # releasing their sockets; retry the bind briefly before giving up.
        deadline = time.monotonic() + 2.0
        while True:
            try:
                listener.bind((self.host, self.port))
                break
            except OSError:
                if time.monotonic() >= deadline:
                    listener.close()
                    raise
                time.sleep(0.02)
        listener.listen(64)
        self.host, self.port = listener.getsockname()
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"netserver-{self.name}", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and cut every live connection (a crash, as the
        network sees it).  The TCP port number is retained for restart."""
        if not self._running:
            return
        self._running = False
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() before close(): the accept thread blocked in
            # accept() holds a kernel reference, so close() alone neither
            # wakes it nor releases the port.  shutdown() does (Linux).
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns, self._conns = list(self._conns), set()
        for conn in conns:
            # Abortive close (RST, not FIN): a graceful close would leave
            # the socket in FIN_WAIT while the peer's pooled connection
            # stays open, holding the port against an immediate restart.
            try:
                conn.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
            except OSError:
                pass
            try:
                conn.shutdown(socket.SHUT_RDWR)  # wake the blocked reader
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        thread, self._accept_thread = self._accept_thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)

    @property
    def running(self) -> bool:
        return self._running

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # -- the wire ----------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while self._running and listener is not None:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: daemon stopping
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conns_lock:
                if not self._running:
                    conn.close()
                    return
                self._conns.add(conn)
            self.recorder.count("net.tcp.accepts")
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"netserver-{self.name}-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while self._running:
                try:
                    header = _recv_exact(conn, wire.HEADER_SIZE)
                except (ConnectionError, OSError):
                    return
                if header is None:
                    return  # orderly close from the peer
                frame_type, request_id, length = wire.decode_header(
                    header, self.max_frame
                )
                payload = _recv_exact(conn, length)
                if payload is None:
                    return  # torn frame: peer died mid-write
                if frame_type != wire.FRAME_REQUEST:
                    raise wire.BadFrame(
                        f"server expected a request frame, got type {frame_type}"
                    )
                self.recorder.count("net.tcp.bytes_in", wire.HEADER_SIZE + length)
                reply = self._dispatch(payload, request_id)
                conn.sendall(reply)
                self.recorder.count("net.tcp.bytes_out", len(reply))
        except WireError as exc:
            # Protocol violation: answer if possible, then hang up — a
            # peer speaking garbage gets no second frame.
            self.recorder.count("net.tcp.protocol_errors")
            try:
                conn.sendall(wire.encode_error(exc, self.max_frame))
            except OSError:
                pass
        except (ConnectionError, OSError):
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, payload: bytes, request_id: int = 0) -> bytes:
        """Run one request frame and encode its outcome.  Every outcome
        of the command becomes a frame; only a malformed request raises
        (:class:`WireError`, which hangs up the connection)."""
        sender, command, params = wire.decode_request(payload)
        self.recorder.count("net.tcp.requests_served")
        try:
            result = self._locked_call(sender, command, params)
        except ReproError as exc:
            return wire.encode_error(exc, self.max_frame, request_id=request_id)
        except Exception as exc:  # a server bug: propagate loudly, typed
            self.recorder.count("net.tcp.server_errors")
            return wire.encode_error(exc, self.max_frame, request_id=request_id)
        try:
            return wire.encode_reply(result, self.max_frame, request_id=request_id)
        except WireError as exc:
            # The reply itself cannot cross the wire (too large, or an
            # unencodable type).  Tell the caller the truth.
            return wire.encode_error(exc, self.max_frame, request_id=request_id)

    def _locked_call(self, sender: str, command: str, params: dict) -> Any:
        """Call the handler, under the dispatch lock unless ``command``
        is read-only; a lock not acquired within the timeout is a busy
        signal."""
        if command in READ_ONLY_COMMANDS:
            return self.handler(sender, command, params)
        if not self._dispatch_lock.acquire(timeout=self.lock_timeout):
            self.recorder.count("net.tcp.busy")
            raise MessageDropped(f"{self.name}: dispatch busy, retry")
        try:
            return self.handler(sender, command, params)
        finally:
            self._dispatch_lock.release()


def _recv_exact(conn: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on a clean EOF at a frame boundary
    (or before ``n`` is complete — the caller treats both as hang-up)."""
    if n == 0:
        return b""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = conn.recv(min(remaining, 1 << 16))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
