"""The benchmark's workloads: data layout, seeded op streams, expected state.

Every workload runs two client threads in a closed loop (each sends its
next operation only when the previous one returned).  Every page has
exactly one writing client, so the last acknowledged write to a page is
its expected content, with no dependence on commit order between clients.

A written page value starts with a 16-byte header ``(page id, writer,
sequence number)`` followed by seeded random bytes, so a read can be
matched to the exact write it returns.
"""

from __future__ import annotations

import bisect
import random
import struct
import threading
from collections import deque
from dataclasses import dataclass, replace

CLIENTS = 2
HEADER = struct.Struct(">IIQ")


@dataclass(frozen=True)
class Workload:
    """Sizes and mix of one workload.  ``shared_files`` means every file
    is shared and each client writes its own half of every file's pages;
    otherwise each client owns whole files (``files`` split evenly)."""

    name: str
    why: str
    files: int
    pages_per_file: int
    page_bytes: int
    pages_per_commit: int
    read_share: float
    shared_files: bool
    zipf_s: float = 0.0

    def owner(self, file: int, page: int) -> int:
        """The one client that ever writes this page."""
        if self.shared_files:
            return page * CLIENTS // self.pages_per_file
        return file * CLIENTS // self.files

    def page_id(self, file: int, page: int) -> int:
        return file * self.pages_per_file + page

    @property
    def total_pages(self) -> int:
        return self.files * self.pages_per_file

    def sizes(self) -> dict:
        return {
            "clients": CLIENTS,
            "files": self.files,
            "pages_per_file": self.pages_per_file,
            "page_bytes": self.page_bytes,
            "pages_per_commit": self.pages_per_commit,
            "read_share": self.read_share,
            "zipf_s": self.zipf_s,
        }

    def tiny(self) -> "Workload":
        """The same workload at self-test sizes."""
        return replace(
            self,
            files=min(self.files, 4),
            pages_per_file=min(self.pages_per_file, 4),
            pages_per_commit=min(self.pages_per_commit, 2),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="commit-small",
            why="the paper's small-file fast path: one 1 KiB page per commit "
            "on files no other client touches, so serialise never runs",
            files=128,
            pages_per_file=4,
            page_bytes=1024,
            pages_per_commit=1,
            read_share=0.0,
            shared_files=False,
        ),
        Workload(
            name="commit-shared",
            why="both clients commit 32 KiB to the same two files, racing on "
            "the commit reference: serialise/merge path and per-byte costs",
            files=2,
            pages_per_file=64,
            page_bytes=4096,
            pages_per_commit=8,
            read_share=0.0,
            shared_files=True,
        ),
        Workload(
            name="read-mostly",
            why="95% snapshot reads of a Zipf-skewed 512-page set that fits "
            "the server cache: per-RPC codec, socket and dispatch-lock cost",
            files=64,
            pages_per_file=8,
            page_bytes=4096,
            pages_per_commit=1,
            read_share=0.95,
            shared_files=True,
            zipf_s=1.1,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    kind: str  # "commit" or "read"
    file: int
    pages: tuple[int, ...]


class OpStream:
    """One client's operation sequence, drawn lazily from the seed.

    The stream depends only on (workload, seed, client): the closed loop
    decides how many operations are taken, never which.
    """

    def __init__(self, workload: Workload, seed: int, client: int) -> None:
        self.workload = workload
        self.client = client
        self.rng = random.Random(f"{workload.name}/{seed}/{client}")
        w = workload
        if w.shared_files:
            per = w.pages_per_file // CLIENTS
            self.own_pages = list(range(client * per, (client + 1) * per))
            self.own_files = list(range(w.files))
        else:
            per = w.files // CLIENTS
            self.own_pages = list(range(w.pages_per_file))
            self.own_files = list(range(client * per, (client + 1) * per))
        self._zipf = None
        if w.zipf_s:
            weights = [1.0 / (rank + 1) ** w.zipf_s for rank in range(w.files)]
            total = 0.0
            self._zipf = []
            for weight in weights:
                total += weight
                self._zipf.append(total)

    def _file(self) -> int:
        if self._zipf is not None:
            point = self.rng.random() * self._zipf[-1]
            return min(bisect.bisect_left(self._zipf, point), len(self._zipf) - 1)
        return self.rng.choice(self.own_files)

    def next(self) -> Op:
        w = self.workload
        if w.read_share and self.rng.random() < w.read_share:
            return Op("read", self._file(), (self.rng.randrange(w.pages_per_file),))
        pages = self.rng.sample(self.own_pages, w.pages_per_commit)
        return Op("commit", self._file(), tuple(sorted(pages)))

    def payload(self, page_id: int, seq: int) -> bytes:
        head = HEADER.pack(page_id, self.client, seq)
        return head + self.rng.randbytes(self.workload.page_bytes - HEADER.size)


def setup_payload(workload: Workload, seed: int, file: int, page: int) -> bytes:
    """Sequence-0 content of a page, written at set-up."""
    pid = workload.page_id(file, page)
    rng = random.Random(f"{workload.name}/{seed}/setup/{pid}")
    head = HEADER.pack(pid, workload.owner(file, page), 0)
    return head + rng.randbytes(workload.page_bytes - HEADER.size)


class Model:
    """The expected content of every page: the last acknowledged write,
    plus the few most recent writes a concurrent read may also return."""

    HISTORY = 4

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.acked: dict[int, int] = {}
        self.values: dict[int, deque] = {}
        # Writes whose transaction raised: the commit may or may not
        # have happened, so either value is acceptable afterwards.
        self.uncertain: dict[int, tuple[int, bytes]] = {}
        self._lock = threading.Lock()
        for f in range(workload.files):
            for p in range(workload.pages_per_file):
                pid = workload.page_id(f, p)
                self.acked[pid] = 0
                self.values[pid] = deque(
                    [(0, setup_payload(workload, seed, f, p))], maxlen=self.HISTORY
                )

    def issue(self, pid: int, seq: int, value: bytes) -> None:
        with self._lock:
            self.values[pid].append((seq, value))

    def ack(self, pid: int, seq: int) -> None:
        with self._lock:
            self.acked[pid] = seq
            self.uncertain.pop(pid, None)

    def fail(self, pid: int, seq: int) -> None:
        with self._lock:
            for s, value in self.values[pid]:
                if s == seq:
                    self.uncertain[pid] = (s, value)

    def expected(self, pid: int) -> bytes:
        with self._lock:
            seq = self.acked[pid]
            for s, value in self.values[pid]:
                if s == seq:
                    return value
        raise KeyError(f"page {pid}: acknowledged write {seq} not kept")

    def floor(self, pid: int) -> int:
        return self.acked[pid]

    def check_live(self, pid: int, floor: int, data: bytes) -> bool:
        """A read concurrent with writes: the returned value must be one of
        the page's writes, no older than the one acknowledged before the
        read began."""
        if len(data) < HEADER.size:
            return False
        got_pid, _, seq = HEADER.unpack_from(data)
        if got_pid != pid or seq < floor:
            return False
        with self._lock:
            return any(s == seq and v == data for s, v in self.values[pid])

    def check_quiet(self, pid: int, data: bytes) -> bool:
        """A read with no write in flight: exactly the last acknowledged
        write, or the value of a write whose outcome is unknown."""
        if data == self.expected(pid):
            return True
        with self._lock:
            maybe = self.uncertain.get(pid)
        return maybe is not None and maybe[1] == data

    def corrupt(self, pid: int) -> None:
        """Self-test hook: make the expected value of one page wrong."""
        with self._lock:
            seq = self.acked[pid]
            values = self.values[pid]
            for i, (s, value) in enumerate(values):
                if s == seq:
                    values[i] = (s, value[:-1] + bytes([value[-1] ^ 0xFF]))
