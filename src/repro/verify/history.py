"""Operation-history recording and serializability checking.

The file service and the client library emit an append-only stream of
:class:`HistoryEvent` records into a shared :class:`HistoryRecorder`:
``create``/``begin``/``read``/``write``/``append``/``commit``/``abort``
events carry the version capability object numbers involved, ``crash`` and
``restart`` mark server failures, and ``snapshot_read`` records every read
of a *committed* version's page (including reads the client cache served
locally after the §5.4 validation test — exactly the reads a broken cache
protocol would corrupt).

:func:`check_history` then validates the recorded run:

1. **Serializable reads** — the commit order (the order in which the
   service's commit critical section fired, which equals the commit-
   reference chain) is replayed file by file; every page a *committed*
   update read must carry the value the replay holds just before that
   update's position.  A lost update, a double commit, or a commit that
   skipped the serialisability test shows up here as a read that matches
   no serial execution.
2. **Snapshot isolation** — every ``snapshot_read`` of committed version V
   must return exactly the replayed state of V: committed versions are
   immutable, so any other answer means a cache or history-pruning bug.
3. **Aborted updates leave no durable effect** — aborted versions must not
   appear in the commit order, a version must not both commit and abort,
   and (when the caller supplies a post-run audit of the real pages) the
   final durable state must equal the replayed state of the committed
   updates alone.
4. **Commit lineage** — a committed version's recorded base must itself be
   a committed version: post-crash recovery must never expose a version
   page grafted onto freed or uncommitted blocks.
5. **Lease staleness bound** — a cached read served under a live read
   lease (recorded with its clock tick and lease TTL) may lag the commit
   that superseded the version it served by at most the TTL.

6. **Stale placement** — elastic deployments record ``cutover`` events
   (a shard retired at a placement-epoch bump, ``base`` = its port) and
   ``shard_serve`` events (a block operation a shard actually answered,
   ``base`` = the serving port).  No shard may serve *anything* after its
   own cutover: the retirement stamp plus the atomic fence make this
   impossible by construction, and this pass proves each run kept it.

Files that saw structural surgery the recorder only summarises
(``structure`` events: removes, splits, moves — they renumber sibling path
names) are checked for the ordering invariants but skipped for path-keyed
value checks; the soak workloads keep their page trees stable after setup
so every soak run gets the full check.

**Merge-typed files** (flagged by a ``merge_typed`` event at creation;
see :mod:`repro.merge`) relax invariant 1 deliberately: the service may
commit two concurrent updates of the root entry table by semantically
merging them, so a committed update's reads reflect its *base* snapshot,
not the serial state at its commit position.  For those files the checker
switches to the merge semantics themselves: reads of the root page are
validated against the version's base snapshot plus its own writes, and
each commit's root-table contribution is folded into the serial state by
replaying the same observed-remove merge the service performed — base
snapshot → merge against every committed intermediate, in commit order.
A fold the or-set semantics reject (both sides rebound the same name)
where the history says both sides committed is a ``merge-divergence``
violation.  Every other page, and every non-merge-typed file, is checked
byte-for-byte exactly as before.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import MergeConflict
from repro.merge.orset import merge_tables


@dataclass(frozen=True)
class HistoryEvent:
    """One recorded operation.

    ``seq`` is a global sequence number: the simulation is cooperative and
    single-threaded between yields, so ``seq`` order is the real-time order
    of the operations' linearisation points (for commits, the test-and-set
    of the commit reference).
    """

    seq: int
    kind: str  # create|begin|read|write|append|structure|snapshot_read|commit|abort|crash|restart|cutover|shard_serve|merge_typed
    actor: str
    file: int | None = None
    version: int | None = None
    path: str | None = None
    value: bytes | None = None
    base: int | None = None
    # Clock reading at the event's linearisation point.  Commits record
    # it inside the critical section; lease-served cached reads record it
    # at serve time, together with the lease TTL — the pair is what the
    # staleness-bound check consumes.  None on events that predate leases
    # or never needed a clock.
    tick: int | None = None
    ttl: int | None = None


class HistoryRecorder:
    """An append-only operation log shared by every server and client.

    The recorder is duck-compatible with "no recorder": components guard
    every hook behind ``if self.history is not None`` so uninstrumented
    runs pay one attribute load per operation.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[HistoryEvent] = []
        self._seq = 0
        # Lock-free snapshot reads (TCP daemon) record concurrently
        # with commits; sequence numbers must stay unique and ordered.
        self._lock = threading.Lock()

    def record(
        self,
        kind: str,
        actor: str = "",
        file: int | None = None,
        version: int | None = None,
        path: str | None = None,
        value: bytes | None = None,
        base: int | None = None,
        tick: int | None = None,
        ttl: int | None = None,
    ) -> None:
        with self._lock:
            self._seq += 1
            self.events.append(
                HistoryEvent(
                    self._seq, kind, actor, file, version, path, value, base,
                    tick, ttl,
                )
            )

    def of_kind(self, kind: str) -> list[HistoryEvent]:
        return [event for event in self.events if event.kind == kind]

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class Violation:
    """One invariant the recorded history breaks."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass
class CheckResult:
    """What :func:`check_history` concluded about one run."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    committed_versions: int = 0
    aborted_versions: int = 0
    reads_checked: int = 0
    snapshot_reads_checked: int = 0
    lease_reads_checked: int = 0  # lease-stamped reads held to the TTL bound
    unknown_version_reads: int = 0  # reads of versions the log never saw minted
    merge_files_checked: int = 0  # files replayed under the merge semantics
    merge_folds: int = 0  # root-table merges performed during replay
    cutovers_seen: int = 0  # shard retirements (placement epoch bumps)
    shard_serves_checked: int = 0  # block ops checked against cutover order
    opaque_files: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violate(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind, detail))

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        line = (
            f"history check: {status}; {self.files_checked} files, "
            f"{self.committed_versions} committed / {self.aborted_versions} "
            f"aborted versions, {self.reads_checked} update reads + "
            f"{self.snapshot_reads_checked} snapshot reads checked"
        )
        if self.lease_reads_checked:
            line += f" ({self.lease_reads_checked} held to the lease bound)"
        if self.merge_files_checked:
            line += (
                f"; {self.merge_files_checked} merge-typed file(s), "
                f"{self.merge_folds} replay merge(s)"
            )
        if self.cutovers_seen:
            line += (
                f"; {self.cutovers_seen} cutover(s), "
                f"{self.shard_serves_checked} shard serves checked"
            )
        return line


# Event kinds that mutate a version's page tree in path-keyed ways the
# checker can replay (append extends the tree without renumbering).
_TRACKED_WRITES = ("write", "append", "create")

# The root page of a merge-typed file — the only page the service ever
# flags mergeable, and therefore the only path the replay fold applies to.
_MERGE_PATH = ""


def _fold_merge(
    prev: bytes | None,
    ours: bytes,
    theirs: bytes | None,
    result: "CheckResult",
    file: int,
    version: int,
) -> bytes:
    """Fold one committed intermediate into a merge-typed root table.

    ``prev`` is the table as of the intermediate's own base (the previous
    commit in serial order), ``theirs`` its published table, ``ours`` the
    table the version under replay carries so far.  Mirrors exactly the
    per-round merge the service performed while the version retried its
    test-and-set.
    """
    if theirs is None or theirs == prev:
        return ours  # the intermediate left the root table alone
    try:
        result.merge_folds += 1
        return merge_tables(prev if prev is not None else b"", ours, theirs)
    except MergeConflict as exc:
        result.violate(
            "merge-divergence",
            f"file {file}: committed version {version} required a root-"
            f"table merge the or-set semantics reject ({exc}) — the "
            f"service published a commit it should have conflicted",
        )
        return ours


def check_history(
    history: HistoryRecorder,
    final_state: dict[int, dict[str, bytes]] | None = None,
) -> CheckResult:
    """Validate a recorded run; see the module docstring for the invariants.

    ``final_state`` optionally maps file object → {path text → bytes} as
    audited from the real deployment after the run; when given, the durable
    state must equal the serial replay of the committed updates alone.
    """
    result = CheckResult()
    events = history.events

    version_file: dict[int, int] = {}  # version obj -> file obj
    version_events: dict[int, list[HistoryEvent]] = {}
    commit_seqs: dict[int, list[int]] = {}  # version -> seqs of commit events
    commit_tick: dict[int, int] = {}  # version -> clock reading at commit
    aborted: set[int] = set()
    begin_base: dict[int, int | None] = {}
    files: dict[int, dict] = {}  # file obj -> {"order": [version objs], ...}
    snapshot_reads: list[HistoryEvent] = []
    opaque: set[int] = set()
    merge_files: set[int] = set()  # files whose root table merges on commit

    for event in events:
        if event.version is not None and event.file is not None:
            version_file.setdefault(event.version, event.file)
        if event.file is not None:
            files.setdefault(event.file, {"order": []})
        if event.kind == "create":
            files[event.file]["order"].append(event.version)
            commit_seqs.setdefault(event.version, []).append(event.seq)
            version_events.setdefault(event.version, []).append(event)
            if event.tick is not None:
                commit_tick.setdefault(event.version, event.tick)
        elif event.kind == "begin":
            begin_base[event.version] = event.base
        elif event.kind in ("read", "write", "append"):
            version_events.setdefault(event.version, []).append(event)
        elif event.kind == "structure":
            if event.file is not None:
                opaque.add(event.file)
        elif event.kind == "merge_typed":
            if event.file is not None:
                merge_files.add(event.file)
        elif event.kind == "commit":
            commit_seqs.setdefault(event.version, []).append(event.seq)
            if event.tick is not None:
                commit_tick.setdefault(event.version, event.tick)
            file = version_file.get(event.version)
            if file is not None:
                files.setdefault(file, {"order": []})["order"].append(event.version)
        elif event.kind == "abort":
            if event.version in aborted:
                continue  # idempotent server-side cleanup
            aborted.add(event.version)
        elif event.kind == "snapshot_read":
            snapshot_reads.append(event)

    result.aborted_versions = len(aborted)
    result.opaque_files = sorted(opaque)

    # --- per-version sanity: commits are unique and exclusive of aborts ----
    for version, seqs in commit_seqs.items():
        if len(seqs) > 1:
            result.violate(
                "double-commit",
                f"version {version} committed {len(seqs)} times "
                f"(seqs {seqs})",
            )
        if version in aborted:
            result.violate(
                "commit-after-abort",
                f"version {version} both committed and aborted",
            )

    # --- per-file replay ----------------------------------------------------
    by_file_snapshots: dict[int, dict[int, dict[str, bytes]]] = {}
    replayed_state: dict[int, dict[str, bytes]] = {}
    for file, info in sorted(files.items()):
        order: list[int] = info["order"]
        if not order:
            continue
        result.files_checked += 1
        committed_set = set(order)
        result.committed_versions += len(order)

        # Commit lineage: every committed version grew from a committed one.
        for version in order[1:]:
            base = begin_base.get(version)
            if base is None:
                continue  # base version unknown to the log (e.g. pre-attach)
            if base not in committed_set:
                result.violate(
                    "uncommitted-base",
                    f"file {file}: version {version} committed on top of "
                    f"{base}, which never committed",
                )

        if file in opaque:
            continue  # structural surgery: path-keyed replay unsound

        merged_file = file in merge_files
        if merged_file:
            result.merge_files_checked += 1
        pos_index = {version: pos for pos, version in enumerate(order)}
        state: dict[str, bytes] = {}
        snapshots: dict[int, dict[str, bytes]] = {}
        for pos, version in enumerate(order):
            base = begin_base.get(version)
            base_snap = snapshots.get(base) if base is not None else None
            if pos == 0 and base is None:
                base_snap = {}  # the create itself grows from nothing
            overlay: dict[str, bytes] = {}
            for event in version_events.get(version, ()):
                if event.kind == "read":
                    # Merge-typed files are snapshot-isolated on the root
                    # table: the version legitimately read its *base*
                    # snapshot even though intermediates committed merges
                    # ahead of it.  Everything else must match the serial
                    # state (strict conflicts guarantee it does).
                    if merged_file and event.path == _MERGE_PATH:
                        if base_snap is None:
                            continue  # base outside the log: snapshot unknown
                        expected = overlay.get(event.path, base_snap.get(event.path))
                    else:
                        expected = overlay.get(event.path, state.get(event.path))
                    result.reads_checked += 1
                    if expected is not None and event.value != expected:
                        result.violate(
                            "non-serializable-read",
                            f"file {file}: committed version {version} read "
                            f"{event.value!r} at path '{event.path}' but the "
                            f"serial order holds {expected!r} (seq {event.seq})",
                        )
                elif event.kind in _TRACKED_WRITES:
                    overlay[event.path] = event.value
            if (
                merged_file
                and _MERGE_PATH in overlay
                and base is not None
                and base in pos_index
            ):
                # Re-derive the published root table the way the service
                # did: start from the version's own write (relative to its
                # base) and merge through every commit that landed between
                # its base and its own position, in serial order.
                cur = overlay[_MERGE_PATH]
                prev_snap = snapshots[base]
                for i in range(pos_index[base] + 1, pos):
                    other_snap = snapshots[order[i]]
                    cur = _fold_merge(
                        prev_snap.get(_MERGE_PATH),
                        cur,
                        other_snap.get(_MERGE_PATH),
                        result,
                        file,
                        version,
                    )
                    prev_snap = other_snap
                overlay[_MERGE_PATH] = cur
            state.update(overlay)
            snapshots[version] = dict(state)
        by_file_snapshots[file] = snapshots
        replayed_state[file] = state

    # --- snapshot reads against the immutable committed states -------------
    for event in snapshot_reads:
        file = event.file if event.file is not None else version_file.get(event.version)
        if file is None or file in opaque:
            continue
        snapshots = by_file_snapshots.get(file, {})
        if event.version in snapshots:
            result.snapshot_reads_checked += 1
            expected = snapshots[event.version].get(event.path)
            if expected is not None and event.value != expected:
                result.violate(
                    "stale-snapshot-read",
                    f"file {file}: read of committed version {event.version} "
                    f"at path '{event.path}' returned {event.value!r}, "
                    f"expected {expected!r} (seq {event.seq}, actor "
                    f"{event.actor})",
                )
        elif event.version in aborted:
            result.violate(
                "aborted-version-exposed",
                f"file {file}: snapshot read of aborted version "
                f"{event.version} at path '{event.path}' (seq {event.seq})",
            )
        else:
            result.unknown_version_reads += 1

    # --- lease staleness: a lease-served read lags by at most its TTL -------
    # A read stamped with (tick, ttl) was served from the client cache
    # under a live lease.  The version it served is superseded at the
    # *next* version's commit tick; the lease protocol guarantees the
    # grant happened no earlier than that commit minus nothing — i.e.
    # read tick − superseding commit tick ≤ TTL.  Events without ticks
    # (no-lease runs, multi-process clocks) are simply not checked.
    for event in snapshot_reads:
        if event.tick is None or event.ttl is None:
            continue
        file = event.file if event.file is not None else version_file.get(event.version)
        if file is None:
            continue
        order = files.get(file, {"order": []})["order"]
        if event.version not in order:
            continue  # unknown/aborted: flagged by the snapshot pass above
        result.lease_reads_checked += 1
        index = order.index(event.version)
        if index + 1 >= len(order):
            continue  # still the current version: staleness zero
        superseded_at = commit_tick.get(order[index + 1])
        if superseded_at is None:
            continue
        lag = event.tick - superseded_at
        if lag > event.ttl:
            result.violate(
                "lease-staleness",
                f"file {file}: lease-served read of version {event.version} "
                f"at tick {event.tick} lags the superseding commit of "
                f"version {order[index + 1]} (tick {superseded_at}) by "
                f"{lag} > lease ttl {event.ttl} (seq {event.seq}, actor "
                f"{event.actor})",
            )

    # --- stale placement: no shard serves after its own cutover -------------
    # A cutover event records the seq at which a port's pair was retired
    # and the map bumped; every shard_serve names the port that actually
    # answered.  seq order is linearisation order, so a serve with a
    # higher seq than its port's cutover means a client reached a retired
    # pair — the retirement fence leaked.
    cutover_at: dict[int, tuple[int, int | None]] = {}  # port -> (seq, epoch)
    for event in events:
        if event.kind == "cutover" and event.base is not None:
            cutover_at.setdefault(event.base, (event.seq, event.version))
    result.cutovers_seen = len(cutover_at)
    for event in events:
        if event.kind != "shard_serve" or event.base is None:
            continue
        result.shard_serves_checked += 1
        cut = cutover_at.get(event.base)
        if cut is not None and event.seq > cut[0]:
            result.violate(
                "stale-placement",
                f"port {event.base:#x} served {event.path!r} for "
                f"{event.actor} at seq {event.seq}, after its cutover at "
                f"seq {cut[0]} (placement epoch {cut[1]})",
            )

    # --- durable state must equal the committed replay ----------------------
    if final_state is not None:
        for file, audited in sorted(final_state.items()):
            if file in opaque or file not in replayed_state:
                continue
            state = replayed_state[file]
            for path, value in sorted(audited.items()):
                expected = state.get(path)
                if expected is not None and value != expected:
                    result.violate(
                        "durable-divergence",
                        f"file {file}: page '{path}' holds {value!r} after "
                        f"the run but the committed history replays to "
                        f"{expected!r} (aborted update leaked or committed "
                        f"write lost)",
                    )
    return result
