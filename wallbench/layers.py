"""Per-layer metrics from the span logs of one traced run.

Inputs are the two :meth:`tracer.Tracer.document` dicts (load process and
server process) and the measured window.  Spans cannot be stitched across
processes yet, so each per-operation figure is a layer total divided by
the operations completed in the window, split by kind as far as a thread
can tell:

* load process: every span belongs to the client operation that
  encloses it (exact);
* server threads serving a load-process connection: the file-service
  command of the enclosing request frame decides (``snapshot_read`` is a
  read, every other command belongs to a commit), for the frame's decode
  and reply encode as much as for its handler;
* stable-pair threads serving those threads: counted as commit work
  (reads only reach the block tier on a page-cache miss);
* work rooted in the server's main thread is the TABLE checkpoint loop of
  ``repro serve``; it is reported on its own and never as commit cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tracer import END, NAME, OK, OP, PARENT, SIZE, START, TAG

READ_COMMANDS = {"snapshot_read"}

# name -> unit, in report order.  Every traced run prints all of them.
PER_LAYER_UNITS = {
    "client.rpcs_per_commit": "count",
    "client.redos_per_commit": "count",
    "client.self_us_per_op": "us",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.us_per_commit": "us",
    "wire.bytes_per_commit": "B",
    "wire.bytes_per_read": "B",
    "transport.send_p50_us": "us",
    "transport.send_p99_us": "us",
    "transport.messages_per_commit": "count",
    "transport.messages_per_read": "count",
    "transport.errors": "count",
    "daemon.lock_wait_p50_us": "us",
    "daemon.lock_wait_p99_us": "us",
    "daemon.handler_us": "us",
    "service.commit_self_us": "us",
    "service.create_version_self_us": "us",
    "service.write_page_self_us": "us",
    "service.snapshot_read_self_us": "us",
    "service.fast_commit_ratio": "ratio",
    "service.checkpoint_us_per_s": "us/s",
    "occ.serialise_per_commit": "count",
    "occ.serialise_us": "us",
    "occ.conflict_ratio": "ratio",
    "store.flush_us": "us",
    "store.pages_per_flush": "count",
    "store.cache_hit_ratio": "ratio",
    "store.block_reads_per_read": "count",
    "stable.calls_per_commit": "count",
    "stable.tas_us": "us",
    "stable.allocate_us": "us",
    "stable.write_many_us": "us",
    "stable.companion_us": "us",
    "disk.syncs_per_commit": "count",
    "disk.sync_us": "us",
    "disk.write_us": "us",
    "disk.journal_bytes_per_user_byte": "B/B",
    "trace.overhead_commit_per_s": "1/s",
    "trace.overhead_read_p50_ms": "ms",
    "trace.counter_mismatches": "count",
    "single.client_messages_per_commit": "count",
    "single.client_messages_spread": "count",
    "single.server_messages_per_commit": "count",
    "single.checkpoint_messages_per_s": "1/s",
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    ok: bool
    tag: str | None
    size: int
    op: int
    # Which thread recorded it: "client" (load process), "fs" (a server
    # thread serving a load-process connection), "stable" (a thread those
    # threads called into), "checkpoint" (work rooted in the server's main
    # thread) or "other".
    where: str
    # The work it belongs to: "commit", "read", "checkpoint" or "other".
    kind: str
    children: list["Span"] = field(default_factory=list)

    @property
    def us(self) -> float:
        return (self.end - self.start) / 1000.0

    @property
    def self_us(self) -> float:
        return self.us - sum(child.us for child in self.children)

    def descendants(self, name: str) -> list["Span"]:
        found = []
        for child in self.children:
            if child.name == name:
                found.append(child)
            else:
                found.extend(child.descendants(name))
        return found


def _thread_places(doc: dict, load_doc: dict) -> dict[int, str]:
    """Server side: where each thread (by serial) sits, following the
    chain of threads that dialled the connection it serves.  A dialler is
    the latest connect from that socket address, in either process,
    before the thread began serving it."""
    by_serial = {t["serial"]: t for t in doc["threads"]}
    dials: dict[str, list[tuple[int, int | None]]] = {}
    for address, serial, at in doc["origins"]:
        dials.setdefault(address, []).append((at, serial))
    for address, _, at in load_doc["origins"]:
        dials.setdefault(address, []).append((at, None))

    def dialler(thread: dict) -> tuple[int, int | None] | None:
        earlier = [d for d in dials.get(thread["peer"], ()) if d[0] <= thread["since"]]
        return max(earlier) if earlier else None

    places: dict[int, str] = {}
    for thread in doc["threads"]:
        seen = set()
        current = thread
        place = "other"
        while current is not None and current["serial"] not in seen:
            seen.add(current["serial"])
            if current["name"] == "MainThread":
                place = "checkpoint"
                break
            if current["peer"] is None:
                break
            found = dialler(current)
            if found is None:
                break
            if found[1] is None:  # dialled by the load process
                place = "fs" if current is thread else "stable"
                break
            current = by_serial.get(found[1])
        places[thread["serial"]] = place
    return places


_CLIENT_OPS = {"client.transact": "commit", "client.snapshot_read": "read"}
_PLACE_KINDS = {"stable": "commit", "checkpoint": "checkpoint"}


def spans_of(doc: dict, load_doc: dict | None = None) -> list[Span]:
    """All completed spans of a document, linked to their children and
    labelled with the thread and the kind of work they belong to.  A
    server document comes with the load process's, whose connects tell
    which server threads serve the load."""
    names = doc["names"]
    tags = doc["tags"]
    places = _thread_places(doc, load_doc) if load_doc is not None else {}
    out: list[Span] = []
    for thread in doc["threads"]:
        if load_doc is None:
            where = "client"
        else:
            where = places.get(thread["serial"], "other")
        raw = thread["spans"]
        built: list[Span | None] = [None] * len(raw)
        roots: list[Span] = []
        for index, item in enumerate(raw):
            if item is None:
                continue
            parent = built[item[PARENT]] if item[PARENT] >= 0 else None
            span = Span(
                names[item[NAME]], item[START], item[END], bool(item[OK]),
                tags[item[TAG]] if item[TAG] >= 0 else None, item[SIZE],
                item[OP], where, "other",
            )
            built[index] = span
            if parent is None:
                roots.append(span)
            else:
                parent.children.append(span)
            out.append(span)
        for root in roots:
            _label(root, _root_kind(root))
    return out


def _root_kind(root: Span) -> str:
    if root.where == "client":
        return _CLIENT_OPS.get(root.name, "other")
    if root.where == "fs" and root.name == "daemon.dispatch":
        # The command is known once the frame is decoded: it is the tag
        # of the locked section the frame ran.
        for child in root.children:
            if child.name == "daemon.request":
                return "read" if child.tag in READ_COMMANDS else "commit"
        return "other"
    return _PLACE_KINDS.get(root.where, "other")


def _label(root: Span, kind: str) -> None:
    pending = [root]
    while pending:
        span = pending.pop()
        span.kind = kind
        pending.extend(span.children)


def in_window(spans: list[Span], start: int, end: int) -> list[Span]:
    return [s for s in spans if start <= s.start < end]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    # ceil(q * n) in integers: 0.9 * 10 is 9.000000000000002 in floats.
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(
    client_spans: list[Span],
    server_spans: list[Span],
    window: tuple[int, int],
    commits: int,
    reads: int,
    user_bytes: int,
    redos: int,
) -> dict[str, float]:
    """Every per-layer metric over one measured window."""
    client = in_window(client_spans, *window)
    server = in_window(server_spans, *window)
    both = client + server
    seconds = (window[1] - window[0]) / 1e9

    def named(spans: list[Span], *names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    ops = named(client, "client.transact", "client.snapshot_read")
    ops = [s for s in ops if s.ok]
    sends = named(both, "transport.send")
    wire = named(both, "wire.encode", "wire.decode")
    encodes = named(both, "wire.encode")
    fs_requests = [s for s in named(server, "daemon.request") if s.where == "fs"]
    lock_waits = [
        c.us for s in fs_requests for c in s.children if c.name == "daemon.lock_wait"
    ]
    handler = [
        s.us - sum(c.us for c in s.children if c.name == "daemon.lock_wait")
        for s in fs_requests
    ]
    service_commits = named(server, "service.commit")
    serialises = named(server, "occ.serialise")
    flushes = [s for s in named(server, "store.flush") if s.size > 0]
    gets = named(server, "store.cache_get")
    stable_calls = [
        s for s in server
        if s.name.startswith("stable.") and s.name != "stable.companion"
    ]

    def kind(spans: list[Span], which: str) -> list[Span]:
        return [s for s in spans if s.kind == which]

    def self_us(name: str) -> float:
        return _mean([s.self_us for s in named(server, name) if s.ok])

    def mean_us(spans: list[Span]) -> float:
        return _mean([s.us for s in spans])

    return {
        "client.rpcs_per_commit": _per(
            len(kind(named(client, "client.rpc"), "commit")), commits
        ),
        "client.redos_per_commit": _per(redos, commits),
        "client.self_us_per_op": _per(
            sum(s.us - sum(t.us for t in s.descendants("transport.send")) for s in ops),
            len(ops),
        ),
        "wire.encode_us": mean_us(encodes),
        "wire.decode_us": mean_us(named(both, "wire.decode")),
        "wire.us_per_commit": _per(sum(s.us for s in kind(wire, "commit")), commits),
        "wire.bytes_per_commit": _per(
            sum(s.size for s in kind(encodes, "commit")), commits
        ),
        "wire.bytes_per_read": _per(sum(s.size for s in kind(encodes, "read")), reads),
        "transport.send_p50_us": percentile([s.us for s in sends], 0.50),
        "transport.send_p99_us": percentile([s.us for s in sends], 0.99),
        "transport.messages_per_commit": _per(messages(kind(sends, "commit")), commits),
        "transport.messages_per_read": _per(messages(kind(sends, "read")), reads),
        "transport.errors": float(len([s for s in sends if not s.ok])),
        "daemon.lock_wait_p50_us": percentile(lock_waits, 0.50),
        "daemon.lock_wait_p99_us": percentile(lock_waits, 0.99),
        "daemon.handler_us": _mean(handler),
        "service.commit_self_us": self_us("service.commit"),
        "service.create_version_self_us": self_us("service.create_version"),
        "service.write_page_self_us": self_us("service.write_page"),
        "service.snapshot_read_self_us": self_us("service.snapshot_read"),
        "service.fast_commit_ratio": _per(
            len(fast_commits(service_commits)),
            len([s for s in service_commits if s.ok]),
        ),
        "service.checkpoint_us_per_s": sum(
            s.us for s in named(server, "service.checkpoint_registry")
        ) / seconds,
        "occ.serialise_per_commit": _per(len(serialises), commits),
        "occ.serialise_us": mean_us(serialises),
        "occ.conflict_ratio": _per(
            len([s for s in service_commits if not s.ok]), len(service_commits)
        ),
        "store.flush_us": mean_us(flushes),
        "store.pages_per_flush": _per(sum(s.size for s in flushes), len(flushes)),
        "store.cache_hit_ratio": _per(sum(s.size for s in gets), len(gets)),
        "store.block_reads_per_read": _per(
            len(kind(named(server, "stable.read"), "read")), reads
        ),
        "stable.calls_per_commit": _per(len(kind(stable_calls, "commit")), commits),
        "stable.tas_us": mean_us(named(server, "stable.test_and_set")),
        "stable.allocate_us": mean_us(named(server, "stable.allocate")),
        "stable.write_many_us": mean_us(named(server, "stable.write_many")),
        "stable.companion_us": mean_us(named(server, "stable.companion")),
        "disk.syncs_per_commit": _per(
            len(kind(named(server, "disk.sync"), "commit")), commits
        ),
        "disk.sync_us": mean_us(named(server, "disk.sync")),
        "disk.write_us": mean_us(named(server, "disk.write")),
        "disk.journal_bytes_per_user_byte": _per(
            sum(s.size for s in kind(named(server, "disk.journal_append"), "commit")),
            user_bytes,
        ),
    }


def messages(sends: list[Span]) -> int:
    """Messages of ``transport.send`` spans: 2 per completed exchange,
    counting exchanges answered with an error frame."""
    return 2 * sum(s.size for s in sends)


def fast_commits(service_commits: list[Span]) -> list[Span]:
    """Commits that settled without running serialise: the pure
    test-and-set path."""
    return [
        s for s in service_commits
        if s.ok and not any(c.name == "occ.serialise" for c in s.children)
    ]


def single_client_metrics(
    client_spans: list[Span], server_spans: list[Span], window: tuple[int, int]
) -> tuple[dict[str, float], list[int]]:
    """The single-client pass: client messages of each commit, and
    server messages per commit with the checkpoint loop's apart."""
    client = in_window(client_spans, *window)
    server = in_window(server_spans, *window)
    per_op: dict[int, int] = {}
    for s in client:
        if s.name == "client.transact" and s.ok:
            per_op.setdefault(s.op, 0)
    for s in client:
        if s.name == "transport.send" and s.op in per_op:
            per_op[s.op] += messages([s])
    counts = [per_op[op] for op in sorted(per_op)]
    commits = len(counts)
    sends = [s for s in server if s.name == "transport.send"]
    seconds = (window[1] - window[0]) / 1e9
    metrics = {
        "single.client_messages_per_commit": _per(sum(counts), commits),
        "single.client_messages_spread": float(max(counts) - min(counts))
        if counts else 0.0,
        "single.server_messages_per_commit": _per(
            messages([s for s in sends if s.kind == "commit"]), commits
        ),
        "single.checkpoint_messages_per_s": messages(
            [s for s in sends if s.kind == "checkpoint"]
        ) / seconds,
    }
    return metrics, counts


def cross_check(
    client: list[Span], client_messages: int, server_doc: dict,
    server: list[Span],
) -> dict:
    """Traced call counts against the program's own counters, whole
    process lifetimes, plus the server spans that no rule gave a kind
    (expected none).  Returns {check: (traced, expected)}."""
    counters = server_doc["counters"]

    def count(name: str, pred=lambda s: True) -> int:
        return len([s for s in server if s.name == name and pred(s)])

    def sends(spans: list[Span]) -> list[Span]:
        return [s for s in spans if s.name == "transport.send"]

    commits = [s for s in server if s.name == "service.commit"]
    return {
        "client messages": (messages(sends(client)), client_messages),
        "server messages": (messages(sends(server)), counters["messages"]),
        "server spans without a kind": (
            len([s for s in server if s.kind == "other"]), 0
        ),
        "cache hits": (count("store.cache_get", lambda s: s.size == 1),
                       counters["cache_hits"]),
        "cache misses": (count("store.cache_get", lambda s: s.size == 0),
                         counters["cache_misses"]),
        "serialise runs": (count("occ.serialise"), counters["serialise_runs"]),
        "fast commits": (len(fast_commits(commits)), counters["fast_commits"]),
        "snapshot reads": (count("service.snapshot_read", lambda s: s.ok),
                           counters["snapshot_reads"]),
    }
