"""Per-thread span recording around the file service's layer functions.

The traced benchmark run wraps public functions of each layer (client,
wire codec, transport, daemon, service, OCC, store, stable pair, disk)
from outside the program: :func:`install_client` in the load process and
:func:`install_server` in the traced server launcher.  Every wrapped call
becomes one span ``(name, start, end, parent, op, ok, tag, size)`` kept in
a list owned by the calling thread, so threads never share a span stack
and no lock sits on the recording path.  Spans live in memory and are
written out once, by :meth:`Tracer.dump`, when the process ends.

Times are ``time.monotonic_ns()``, a system-wide clock on Linux, so spans
from the load process and the server process share one time axis.  Spans
cannot yet be stitched across processes (the wire carries no trace id), so
the analysis in :mod:`layers` divides layer totals by completed operations.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable

_now = time.monotonic_ns

# Span tuple fields, in order.
NAME, START, END, PARENT, OP, OK, TAG, SIZE = range(8)


class ThreadLog:
    """The spans one thread recorded, plus what identifies the thread."""

    __slots__ = (
        "serial", "thread_name", "spans", "stack", "op", "peer", "since",
        "quiet", "exchanges",
    )

    def __init__(self, serial: int, thread_name: str) -> None:
        # Unique in the process, unlike thread idents, which are reused.
        self.serial = serial
        self.thread_name = thread_name
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        # Server side: the remote (host, port) of the connection this
        # daemon thread serves; the load process leaves it unset.
        self.peer: tuple[str, int] | None = None
        # When this thread started serving that connection.
        self.since = 0
        # Span groups currently open on this thread (see Tracer.wrap).
        self.quiet: set[str] = set()
        # Request/reply exchanges this thread completed on the wire.
        self.exchanges = 0


class Tracer:
    """Records spans per thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.logs: list[ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._local = threading.local()
        # Connections this process dialled: [local socket address,
        # serial of the dialling thread, time].  Ports are reused, so an
        # address names a dialler only together with a time.
        self.origins: list[list] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def log(self) -> ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            thread = threading.current_thread()
            with self._logs_lock:
                log = ThreadLog(len(self.logs), thread.name)
                self.logs.append(log)
            self._local.log = log
        return log

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def tag_id(self, tag: str | None) -> int:
        if tag is None:
            return -1
        ident = self._tag_ids.get(tag)
        if ident is None:
            with self._logs_lock:
                ident = self._tag_ids.get(tag)
                if ident is None:
                    ident = len(self.tags)
                    self.tags.append(tag)
                    self._tag_ids[tag] = ident
        return ident

    def set_op(self, op: int) -> None:
        """Label the calling thread's following spans with operation ``op``."""
        self.log().op = op

    def record(self, name_id: int, start: int, end: int, size: int = 0) -> None:
        """Add a span whose times were taken by the caller."""
        log = self.log()
        parent = log.stack[-1] if log.stack else -1
        log.spans.append((name_id, start, end, parent, log.op, True, -1, size))

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        group: str | None = None,
        tag: Callable[..., str | None] | None = None,
        size: Callable[..., int] | None = None,
        exchanges: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``group``: calls made while a span of the same group is open on
        this thread are passed through unrecorded (the codec's entry
        points call one another).  ``tag(*args, **kwargs)`` labels the
        span; ``size(result, *args, **kwargs)`` gives it a byte or item
        count.  ``exchanges``: the span's size is instead the number of
        wire exchanges the thread completed while it was open, whether
        or not the call then raised.
        """
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            log = tracer.log()
            if group is not None:
                if group in log.quiet:
                    return fn(*args, **kwargs)
                log.quiet.add(group)
            stack = log.stack
            spans = log.spans
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            label = tracer.tag_id(tag(*args, **kwargs)) if tag else -1
            before = log.exchanges
            ok = False
            result = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = _now()
                stack.pop()
                if group is not None:
                    log.quiet.discard(group)
                if exchanges:
                    amount = log.exchanges - before
                else:
                    amount = size(result, *args, **kwargs) if size and ok else 0
                spans[index] = (nid, start, end, parent, log.op, ok, label, amount)

        self.patch(owner, attr, traced)

    # -- output ------------------------------------------------------------

    def document(self, counters: dict | None = None) -> dict:
        with self._logs_lock:
            logs = list(self.logs)
        return {
            "names": self.names,
            "tags": self.tags,
            "origins": self.origins,
            "counters": counters or {},
            "threads": [
                {
                    "serial": log.serial,
                    "name": log.thread_name,
                    "peer": "%s:%d" % log.peer if log.peer else None,
                    "since": log.since,
                    # Still-open spans stay as null: parents are indices.
                    "spans": list(log.spans),
                }
                for log in logs
            ],
        }

    def dump(self, path: str, counters: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.document(counters), fh, separators=(",", ":"))


class TimedLock:
    """A dispatch-lock proxy that records how long each acquire waited."""

    def __init__(self, lock: Any, tracer: Tracer) -> None:
        self._lock = lock
        self._tracer = tracer
        self._wait = tracer.name_id("daemon.lock_wait")

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        start = _now()
        got = self._lock.acquire(blocking, timeout)
        self._tracer.record(self._wait, start, _now(), int(got))
        return got

    def release(self) -> None:
        self._lock.release()


def _install_codec_and_transport(tracer: Tracer) -> None:
    """Wrap what both processes run: the wire codec and the transport."""
    from repro.net import transport, wire

    def frame_size(result: bytes, *args: Any, **kwargs: Any) -> int:
        return len(result)

    for attr in ("encode_request", "encode_reply", "encode_error"):
        tracer.wrap(wire, attr, "wire.encode", group="wire", size=frame_size)

    def payload_size(result: Any, payload: bytes, *args: Any) -> int:
        return len(payload) + wire.HEADER_SIZE

    for attr in ("decode_request", "decode_value", "decode_error"):
        tracer.wrap(wire, attr, "wire.decode", group="wire", size=payload_size)

    # A send span's size is its completed exchanges (0 or 1), each the 2
    # messages TcpNetwork.stats counts, including an exchange answered
    # with an error frame.  A send the wrapper missed shows up as a
    # cross-check mismatch against those stats.
    tracer.wrap(
        transport.TcpNetwork,
        "send",
        "transport.send",
        tag=lambda network, sender, dest, payload, *a, **k: payload.command,
        exchanges=True,
    )
    call = transport.PipelinedConnection.call

    @functools.wraps(call)
    def counted_call(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = call(self, *args, **kwargs)
        tracer.log().exchanges += 1
        return result

    tracer.patch(transport.PipelinedConnection, "call", counted_call)

    connect = transport.TcpNetwork._connect

    @functools.wraps(connect)
    def remembered_connect(self: Any, dest: str, address: Any) -> Any:
        # Timed before the connect: the server may accept before the
        # connect returns here.
        at = _now()
        sock = connect(self, dest, address)
        local = "%s:%d" % sock.getsockname()[:2]
        tracer.origins.append([local, tracer.log().serial, at])
        return sock

    tracer.patch(transport.TcpNetwork, "_connect", remembered_connect)


def install_client(tracer: Tracer) -> None:
    """Wrap the load process's layers: client library, codec, transport."""
    from repro.client.api import FileClient

    _install_codec_and_transport(tracer)
    tracer.wrap(FileClient, "transact", "client.transact")
    tracer.wrap(FileClient, "snapshot_read", "client.snapshot_read")
    tracer.wrap(FileClient, "_call", "client.rpc")


def install_server(tracer: Tracer) -> dict[str, list]:
    """Wrap every server-side layer; returns the live objects whose own
    counters the analysis cross-checks (filled in as they are built)."""
    from repro.block import fdisk, stable
    from repro.core import cache, service, store
    from repro.net import server, transport

    _install_codec_and_transport(tracer)
    live: dict[str, list] = {"networks": [], "caches": [], "services": []}

    def registering(cls: type, key: str) -> None:
        init = cls.__init__

        @functools.wraps(init)
        def registered_init(self: Any, *args: Any, **kwargs: Any) -> None:
            init(self, *args, **kwargs)
            live[key].append(self)

        tracer.patch(cls, "__init__", registered_init)

    registering(transport.TcpNetwork, "networks")
    registering(cache.PageCache, "caches")
    registering(service.FileService, "services")

    # Daemon: each request frame as a span (its decode, the locked
    # section and its reply encode), lock waits through a proxy, the
    # locked section as a span tagged with the command, and which
    # connection each thread serves.
    init = server.NetServer.__init__

    @functools.wraps(init)
    def timed_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        self._dispatch_lock = TimedLock(self._dispatch_lock, tracer)

    tracer.patch(server.NetServer, "__init__", timed_init)
    tracer.wrap(server.NetServer, "_dispatch", "daemon.dispatch")
    tracer.wrap(
        server.NetServer,
        "_locked_call",
        "daemon.request",
        tag=lambda daemon, sender, command, params: command,
    )
    serve_connection = server.NetServer._serve_connection

    @functools.wraps(serve_connection)
    def noted_serve(self: Any, conn: Any) -> None:
        log = tracer.log()
        try:
            log.peer = conn.getpeername()[:2]
            log.since = _now()
        except OSError:
            pass
        serve_connection(self, conn)

    tracer.patch(server.NetServer, "_serve_connection", noted_serve)

    svc = service.FileService
    for attr in (
        "commit", "create_version", "write_page", "snapshot_read",
        "checkpoint_registry",
    ):
        tracer.wrap(svc, attr, "service." + attr)

    # OCC, resolved where FileService.commit looks it up.
    tracer.wrap(service, "serialise", "occ.serialise")

    tracer.wrap(store.PageStore, "flush", "store.flush", size=lambda n, *a, **k: n)
    tracer.wrap(
        cache.PageCache, "get", "store.cache_get",
        size=lambda page, *a, **k: 0 if page is None else 1,
    )

    for attr in (
        "allocate", "allocate_write", "write", "write_many", "read", "free",
        "test_and_set", "lock", "unlock",
    ):
        tracer.wrap(stable.StableClient, attr, "stable." + attr)
    for attr in dir(stable.StableServer):
        if attr.startswith("cmd_companion_"):
            tracer.wrap(stable.StableServer, attr, "stable.companion")

    frame = fdisk._FRAME.size
    tracer.wrap(fdisk.FDisk, "sync_journal", "disk.sync")
    tracer.wrap(fdisk.FDisk, "write", "disk.write")
    tracer.wrap(fdisk.FDisk, "write_many", "disk.write")
    tracer.wrap(
        fdisk.FDisk, "_append_records", "disk.journal_append",
        size=lambda result, disk, bodies, *a, **k: sum(
            frame + len(body) for body in bodies
        ),
    )
    return live


def program_counters(live: dict[str, list]) -> dict[str, int]:
    """The program's own counters, for the traced-count cross-check."""
    return {
        "messages": sum(n.stats.messages for n in live["networks"]),
        "cache_hits": sum(c.stats.hits for c in live["caches"]),
        "cache_misses": sum(c.stats.misses for c in live["caches"]),
        "serialise_runs": sum(s.metrics.serialise_runs for s in live["services"]),
        "fast_commits": sum(s.metrics.fast_commits for s in live["services"]),
        "snapshot_reads": sum(s.metrics.snapshot_reads for s in live["services"]),
    }
