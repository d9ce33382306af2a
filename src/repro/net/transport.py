"""Client-side TCP transport: the simulated network's shape, real sockets.

:class:`TcpNetwork` presents the same surface the rest of the stack
already programs against — ``send(sender, dest, payload)``, ``attach`` /
``detach`` / ``reattach``, a ``clock``, a ``recorder``, the per-port
server registry — but ``send`` is a pooled wire call to a real daemon and
``attach`` *starts* one (:class:`repro.net.server.NetServer`).  Because
:class:`repro.sim.rpc.Transaction` consults ``network.transaction_class``,
every existing client — ``StableClient``, ``HybridBlockClient``, the
sharding router, ``client/api.FileClient`` — runs over sockets unchanged.

:class:`TcpTransaction` is the transaction layer for this wire: the same
``call(port, command, ...)`` interface, with per-call socket timeouts,
bounded whole-port retry sweeps with exponential backoff (daemons mid-
restart), and companion failover on refused / reset / timed-out
connections in the shared deterministic :func:`repro.sim.rpc.
failover_order`.

Connections are :class:`PipelinedConnection` objects: every request
frame carries a fresh correlation id (wire version 2) and a caller may
have *several* requests in flight on one socket before collecting any
reply.  Replies are demultiplexed by id under a shared-reader scheme —
whichever waiter arrives first reads frames off the socket and delivers
them to their owners — so the synchronous one-call-at-a-time facade the
rest of the stack uses pays no extra thread, while pipelined callers get
many requests in flight on one socket (the daemon answers them in
order).

Failure mapping keeps the simulation's error contract:

* connection refused / reset / timed out → :class:`~repro.errors.
  ServerUnreachable` → fail over to the next server on the port;
* a server's busy signal → :class:`~repro.errors.MessageDropped` → retry
  the same server, as the Amoeba transaction primitive retransmits.

Like Amoeba, delivery is at-least-once at the edges: a pooled connection
that dies after the request was written may have been served, and the
retry/failover then re-executes — idempotence is the server's concern, as
the paper states.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable

from repro.errors import MessageDropped, ServerUnreachable
from repro.net import wire
from repro.net.server import NetServer
from repro.obs import NULL_RECORDER
from repro.sim.network import NetworkStats
from repro.sim.rpc import Transaction, _registry, failover_order

# Transaction-layer retry schedule: how many whole-port sweeps, and the
# backoff before sweep k (seconds, doubling).
DEFAULT_RETRY_SWEEPS = 4
DEFAULT_RETRY_BACKOFF = 0.05

DEFAULT_CALL_TIMEOUT = 10.0


class WallClock:
    """Real time behind the simulated clock's interface.

    ``now`` is elapsed microseconds since construction — components built
    for the logical clock (disks charging ticks, recorders stamping
    spans) keep working, their durations just become wall durations.
    ``advance`` is a no-op: wall time advances itself.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self._events = 0
        self._lock = threading.Lock()

    @property
    def now(self) -> int:
        return int((time.monotonic() - self._t0) * 1_000_000)

    def advance(self, ticks: int = 1) -> int:
        if ticks < 0:
            raise ValueError(f"cannot advance clock by {ticks}")
        return self.now

    def timestamp(self) -> int:
        with self._lock:
            self._events += 1
            return (self.now << 20) | (self._events & 0xFFFFF)

    def reset(self) -> None:
        with self._lock:
            self._t0 = time.monotonic()
            self._events = 0


class TcpNetwork:
    """A deployment's view of real localhost (or LAN) TCP networking.

    Node names map to ``(host, tcp_port)`` addresses; one paper port maps
    to the set of node names serving it (``_port_registry``, the same
    attribute the simulated registry lives under).  ``attach`` starts a
    daemon for the node and registers its address, so ``StablePair``,
    ``ShardedBlockService`` and ``RpcEndpoint`` construct real daemons
    without knowing it.  ``detach``/``reattach`` stop and restart the
    daemon — a crash and recovery that clients experience as connection
    resets and refusals, not simulation flags.
    """

    # Consulted by Transaction.__new__: transactions on this network are
    # TcpTransactions.  Set after the class definition below.
    transaction_class: type | None = None

    def __init__(
        self,
        host: str = "127.0.0.1",
        recorder=None,
        clock: WallClock | None = None,
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        retry_sweeps: int = DEFAULT_RETRY_SWEEPS,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        lock_timeout: float | None = None,
    ) -> None:
        self.host = host
        self.clock = clock if clock is not None else WallClock()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.call_timeout = call_timeout
        self.max_frame = max_frame
        self.retry_sweeps = retry_sweeps
        self.retry_backoff = retry_backoff
        # How long a daemon lets one request wait for its dispatch lock
        # before answering busy; None keeps each daemon's own default.
        self.lock_timeout = lock_timeout
        self.stats = NetworkStats()
        # Exact under concurrency: the benchmark gate compares message
        # counts across transports, and unsynchronised ``+=`` from many
        # client threads loses increments.
        self._stats_lock = threading.Lock()
        self._port_registry: dict[int, list[str]] = {}
        self._addresses: dict[str, tuple[str, int]] = {}
        self._daemons: dict[str, NetServer] = {}
        self._dispatch_groups: dict[str, threading.Lock] = {}
        self._topology_lock = threading.Lock()
        # Connection pools are per thread: frames on one socket are never
        # interleaved, and no cross-thread locking sits on the hot path.
        self._pools = threading.local()

    # -- topology (server side) -------------------------------------------

    def attach(self, name: str, handler: Callable[[str, Any], Any]) -> None:
        """Host ``name`` as a real daemon.

        ``handler(sender, payload)`` is the simulated-network handler
        shape (``payload`` is a :class:`repro.sim.rpc.Request`); the
        daemon adapts decoded frames to it.  Re-attaching replaces the
        handler and restarts the daemon on its existing TCP port.
        """

        def dispatch(sender: str, command: str, params: dict) -> Any:
            from repro.sim.rpc import Request

            return handler(sender, Request(command, params))

        with self._topology_lock:
            daemon = self._daemons.get(name)
            if daemon is not None:
                daemon.stop()
                daemon.handler = dispatch
            else:
                extra = (
                    {} if self.lock_timeout is None
                    else {"lock_timeout": self.lock_timeout}
                )
                daemon = NetServer(
                    name,
                    dispatch,
                    host=self.host,
                    recorder=self.recorder,
                    max_frame=self.max_frame,
                    dispatch_lock=self._dispatch_groups.get(name),
                    **extra,
                )
                self._daemons[name] = daemon
            daemon.start()
            self._addresses[name] = daemon.address

    def share_dispatch_lock(self, names: list[str]) -> None:
        """Serialise the named daemons behind one dispatch lock.

        Declared *before* the nodes attach.  Replicated file servers need
        this: they share the registry and capability issuer in memory (as
        the sim's cooperative scheduler implicitly serialises them), so
        their daemons must not run commands concurrently with each other.
        """
        lock = threading.Lock()
        with self._topology_lock:
            for name in names:
                self._dispatch_groups[name] = lock

    def detach(self, name: str) -> None:
        """Stop a node's daemon (crash): connections reset, new ones are
        refused, clients fail over."""
        with self._topology_lock:
            daemon = self._daemons.get(name)
        if daemon is not None:
            daemon.stop()

    def reattach(self, name: str) -> None:
        """Restart a detached node's daemon on its original TCP port.
        A name that never attached (a pure client) is a no-op."""
        with self._topology_lock:
            daemon = self._daemons.get(name)
        if daemon is not None:
            daemon.start()

    def register(self, name: str, host: str, port: int) -> None:
        """Client-side address registration for a daemon that lives in
        another process (``repro connect`` uses this)."""
        with self._topology_lock:
            self._addresses[name] = (host, port)

    def listen_port(self, port: int, name: str) -> None:
        """Record that ``name`` serves paper port ``port`` (client side);
        server side this happens through RpcEndpoint registration."""
        with self._topology_lock:
            self._port_registry.setdefault(port, [])
            if name not in self._port_registry[port]:
                self._port_registry[port].append(name)

    def close(self) -> None:
        """Stop every daemon this network hosts and drop this thread's
        pooled connections."""
        with self._topology_lock:
            daemons = list(self._daemons.values())
        for daemon in daemons:
            daemon.stop()
        self._drop_pool()

    # -- introspection ------------------------------------------------------

    def nodes(self) -> list[str]:
        with self._topology_lock:
            return sorted(self._addresses)

    def is_up(self, name: str) -> bool:
        with self._topology_lock:
            daemon = self._daemons.get(name)
        return daemon is not None and daemon.running

    def address_of(self, name: str) -> tuple[str, int] | None:
        with self._topology_lock:
            return self._addresses.get(name)

    def daemon(self, name: str) -> NetServer | None:
        with self._topology_lock:
            return self._daemons.get(name)

    def reachable(self, sender: str, dest: str) -> bool:
        """Best-effort reachability: for locally hosted daemons, whether
        the daemon runs; for remote registrations, whether an address is
        known (only a real connect can tell more)."""
        with self._topology_lock:
            if dest in self._daemons:
                return self._daemons[dest].running
            return dest in self._addresses

    # -- delivery (client side) ---------------------------------------------

    def send(self, sender: str, dest: str, payload: Any, size: int = 0) -> Any:
        """One request/reply exchange with ``dest`` over a pooled
        connection.  Raises the error the server shipped, or
        :class:`ServerUnreachable` on connection failure."""
        address = self.address_of(dest)
        if address is None:
            self.stats.unreachable += 1
            raise ServerUnreachable(f"{dest}: no TCP address registered")
        pool = self._pool()
        conn = pool.get(dest)
        fresh = conn is None
        try:
            if conn is None:
                conn = self.connection(dest)
            try:
                raw_type, body, sent = conn.call(
                    sender, payload.command, payload.params
                )
            except ConnectionError:
                # Dead connection — distinct from a timeout, which is a
                # slow (possibly still-executing) server and is never
                # retried here.
                conn.close()
                pool.pop(dest, None)
                if fresh:
                    raise
                # The pooled connection was stale (the daemon restarted
                # since we last used it).  One retry on a fresh
                # connection; at-least-once, as documented.
                self.recorder.count("net.tcp.reconnects")
                conn = self.connection(dest)
                raw_type, body, sent = conn.call(
                    sender, payload.command, payload.params
                )
        except socket.timeout:
            self.recorder.count("net.tcp.timeouts")
            self.stats.unreachable += 1
            if conn is not None:
                conn.close()
            pool.pop(dest, None)
            raise ServerUnreachable(f"{dest}: call timed out") from None
        except (ConnectionError, OSError) as exc:
            self.recorder.count("net.tcp.conn_errors")
            self.stats.unreachable += 1
            if conn is not None:
                conn.close()
            pool.pop(dest, None)
            raise ServerUnreachable(f"{dest}: {exc}") from None
        with self._stats_lock:
            self.stats.messages += 2  # request + reply, as the sim counts
            self.stats.bytes += sent + len(body)
        if self.recorder.enabled:
            self.recorder.count("net.tcp.requests")
            self.recorder.count("net.tcp.bytes_out", sent)
            self.recorder.count("net.tcp.bytes_in", wire.HEADER_SIZE + len(body))
            span = self.recorder.current_span
            if span is not None:
                span.inc("net.tcp.messages", 2)
        if raw_type == wire.FRAME_ERROR:
            raise wire.decode_error(body)
        return wire.decode_value(body)

    def connection(self, dest: str) -> "PipelinedConnection":
        """This thread's pipelined connection to ``dest``, creating (and
        pooling) it if absent.  Direct users pipeline with ``submit`` /
        ``result``; :meth:`send` rides the same object one call at a
        time."""
        pool = self._pool()
        conn = pool.get(dest)
        if conn is not None and not conn.closed:
            return conn
        address = self.address_of(dest)
        if address is None:
            raise ServerUnreachable(f"{dest}: no TCP address registered")
        conn = PipelinedConnection(
            self._connect(dest, address), dest, self.max_frame
        )
        pool[dest] = conn
        return conn

    def _connect(self, dest: str, address: tuple[str, int]) -> socket.socket:
        sock = socket.create_connection(address, timeout=self.call_timeout)
        if sock.getsockname() == sock.getpeername():
            # Linux self-connect quirk: connecting to a dead ephemeral
            # port can land on our own socket.  That daemon is down.
            sock.close()
            raise ConnectionRefusedError(f"{dest}: self-connect, daemon down")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.recorder.count("net.tcp.connections")
        return sock

    def _pool(self) -> dict[str, "PipelinedConnection"]:
        pool = getattr(self._pools, "pool", None)
        if pool is None:
            pool = {}
            self._pools.pool = pool
        return pool

    def _drop_pool(self) -> None:
        pool = getattr(self._pools, "pool", None)
        if pool:
            for conn in pool.values():
                conn.close()
            pool.clear()


class PipelinedConnection:
    """One TCP connection carrying any number of in-flight exchanges.

    ``submit`` writes a request frame tagged with a fresh correlation id
    and returns the id immediately; ``result`` blocks until that id's
    reply (or error frame) arrives.  Replies are collected under a
    *shared reader*: whichever waiter gets there first reads frames off
    the socket, delivers each to the pending entry its id names, and
    hands the reader role on.  No background thread exists — a purely
    synchronous caller (``submit`` immediately followed by ``result``)
    costs exactly what the old one-exchange-at-a-time socket did.

    A connection failure or timeout poisons the connection: every
    pending and future call raises, and the owner reconnects (the
    at-least-once edge the module docstring describes).
    """

    __slots__ = (
        "sock", "dest", "max_frame", "_send_lock", "_cond", "_pending",
        "_reading", "_next_id", "_dead", "_closed",
    )

    def __init__(
        self,
        sock: socket.socket,
        dest: str = "?",
        max_frame: int = wire.DEFAULT_MAX_FRAME,
    ) -> None:
        self.sock = sock
        self.dest = dest
        self.max_frame = max_frame
        self._send_lock = threading.Lock()
        self._cond = threading.Condition()
        # id -> [done, frame_type, body]
        self._pending: dict[int, list] = {}
        self._reading = False
        self._next_id = 1
        self._dead: Exception | None = None
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed or self._dead is not None

    @property
    def in_flight(self) -> int:
        with self._cond:
            return len(self._pending)

    def call(
        self, sender: str, command: str, params: dict
    ) -> tuple[int, bytes, int]:
        """One synchronous exchange: returns (frame type, body, bytes
        sent)."""
        request_id, sent = self.submit(sender, command, params)
        frame_type, body = self.result(request_id)
        return frame_type, body, sent

    def submit(self, sender: str, command: str, params: dict) -> tuple[int, int]:
        """Write one request frame; returns (request id, bytes written).
        Several submissions may be outstanding at once."""
        with self._cond:
            if self._dead is not None:
                raise self._dead
            if self._closed:
                raise ConnectionResetError(f"{self.dest}: connection closed")
            request_id = self._next_id
            self._next_id = (self._next_id % wire.MAX_REQUEST_ID) + 1
            # Register before sending: a reply cannot outrun its entry.
            self._pending[request_id] = [False, 0, b""]
        try:
            frame = wire.encode_request(
                sender, command, params, self.max_frame, request_id=request_id
            )
        except Exception:
            # Nothing reached the wire: the connection stays healthy,
            # only this request's entry is withdrawn.
            with self._cond:
                self._pending.pop(request_id, None)
            raise
        try:
            with self._send_lock:
                self.sock.sendall(frame)
        except Exception as exc:
            self._poison(exc)
            raise
        return request_id, len(frame)

    def result(self, request_id: int) -> tuple[int, bytes]:
        """Block until the reply for ``request_id`` arrives; returns
        (frame type, body).  Safe to call from any thread, in any order
        relative to other pending ids."""
        while True:
            with self._cond:
                slot = self._pending.get(request_id)
                if slot is None:
                    raise wire.BadFrame(
                        f"{self.dest}: request id {request_id} is not pending"
                    )
                if slot[0]:
                    del self._pending[request_id]
                    return slot[1], slot[2]
                if self._dead is not None:
                    del self._pending[request_id]
                    raise self._dead
                if self._reading:
                    self._cond.wait()
                    continue
                self._reading = True
            try:
                frame_type, reply_id, body = self._read_frame()
            except Exception as exc:
                self._poison(exc)
                raise
            with self._cond:
                self._reading = False
                slot = self._pending.get(reply_id)
                if slot is not None:
                    slot[0] = True
                    slot[1] = frame_type
                    slot[2] = body
                self._cond.notify_all()
            # An unsolicited id is dropped rather than fatal: an
            # at-least-once retransmit's late first answer may arrive
            # after its entry was abandoned.

    def _read_frame(self) -> tuple[int, int, bytes]:
        header = _recv_exact_or_raise(self.sock, wire.HEADER_SIZE)
        frame_type, reply_id, length = wire.decode_header(header, self.max_frame)
        body = _recv_exact_or_raise(self.sock, length)
        if frame_type == wire.FRAME_REQUEST:
            raise wire.BadFrame("peer sent a request frame as a reply")
        return frame_type, reply_id, body

    def _poison(self, exc: Exception | None) -> None:
        with self._cond:
            self._reading = False
            if self._dead is None:
                self._dead = (
                    exc
                    if exc is not None
                    else ConnectionResetError(f"{self.dest}: connection died")
                )
            self._cond.notify_all()

    def close(self) -> None:
        self._closed = True
        self._poison(ConnectionResetError(f"{self.dest}: connection closed"))
        try:
            self.sock.close()
        except OSError:
            pass


def _recv_exact_or_raise(sock: socket.socket, n: int) -> bytes:
    if n == 0:
        return b""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise ConnectionResetError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class TcpTransaction(Transaction):
    """The transaction layer over TCP: same ``call`` interface as the
    simulated :class:`~repro.sim.rpc.Transaction`.

    Within one *sweep*, servers on the port are tried in the shared
    deterministic failover order; busy signals retry the same server.
    A sweep that exhausts every server backs off (doubling, starting at
    the network's ``retry_backoff`` seconds) and tries again, up to
    ``retry_sweeps`` sweeps — covering the window where a daemon is
    restarting rather than gone.
    """

    def call(
        self,
        port: int,
        command: str,
        prefer: str | None = None,
        retries_on_drop: int = 3,
        **params: Any,
    ) -> Any:
        network: TcpNetwork = self.network
        nodes = failover_order(_registry(network).get(port, []), prefer)
        if not nodes:
            raise ServerUnreachable(f"no server registered on port {port:#x}")
        recorder = network.recorder
        if recorder.enabled:
            recorder.event("rpc." + command, port=port, client=self.client_node)
        from repro.sim.rpc import Request

        request = Request(command, params)
        last_error: Exception | None = None
        for sweep in range(max(1, network.retry_sweeps)):
            if sweep:
                recorder.count("net.tcp.retries")
                time.sleep(network.retry_backoff * (2 ** (sweep - 1)))
            for index, node in enumerate(nodes):
                for _ in range(retries_on_drop + 1):
                    try:
                        return network.send(self.client_node, node, request)
                    except MessageDropped as exc:
                        last_error = exc
                        recorder.count("rpc.retries")
                        continue  # busy signal: retry the same server
                    except ServerUnreachable as exc:
                        last_error = exc
                        if index + 1 < len(nodes):
                            recorder.count("net.tcp.failovers")
                        break  # fail over to the next server on the port
        assert last_error is not None
        raise last_error


TcpNetwork.transaction_class = TcpTransaction
