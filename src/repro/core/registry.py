"""The file table: how servers find files and versions.

§5.4.1: "Access paths to committed versions go through the replicated file
table, and a chain of version pages on stable storage, hence version access
and file access can be guaranteed as long as one or more servers are
operational."

The registry maps file object numbers to an *entry block* — the block
number of **some committed version page** of the file.  The entry may be
stale: the current version is found by following commit references from the
entry, and the entry is advanced lazily.  That is what lets any replicated
server resolve any file, and what makes registry staleness harmless.

Uncommitted versions are also registered (version object number → version
page block) so capabilities can be validated; these entries are expendable
("uncommitted versions need not be salvaged in a server crash").

The registry is shared by all file server replicas — it models the
*replicated file table* — and can be serialised into a block of stable
storage (:meth:`FileRegistry.serialize`) so a cold-started server can
recover the whole file system from disk, reproducing the §4 recovery path.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field

from repro.errors import NoSuchFile, NoSuchVersion
from repro.core.page import NIL

_ENTRY = struct.Struct(">QIQBQ")  # obj, entry block, secret, flags, parent
_HEADER = struct.Struct(">4sI")  # magic, entry count
_MAGIC = b"AFT1"

# Bits of the entry flags byte.
_FLAG_SUPER = 0x01
_FLAG_MERGEABLE = 0x02


@dataclass
class FileEntry:
    """One file known to the service."""

    obj: int
    entry_block: int  # block of some committed version page (maybe stale)
    secret: int  # capability-check secret for the file object
    is_super: bool = False  # root is an internal node of the system tree
    parent_obj: int = 0  # enclosing super-file (0 = top level)
    # Directory-typed file: its root page data is an entry table whose
    # concurrent rewrites the merge policy may reconcile (repro.merge).
    # The authoritative copy of the flag rides on every page header
    # (surviving disk recovery); this one makes the typing visible to
    # registry consumers (fsck, stats) without a page load.
    mergeable: bool = False
    # Commit counter for client-cache leases: bumped by every commit
    # publication, read by the lease fast-renewal path.  In-memory only —
    # a deliberately volatile hint, like the current-version hints: -1
    # means "cannot vouch" (set after a registry restore), and a lease
    # carrying -1 is never fast-renewed, only fully re-validated.
    epoch: int = 0


@dataclass
class VersionEntry:
    """One live (usually uncommitted) version known to the service."""

    obj: int
    file_obj: int
    root_block: int  # the version page's block
    secret: int
    status: str = "uncommitted"  # uncommitted | committed | aborted
    owner: str = ""  # client node that owns the update (for GC / crash)
    update_port: int = 0  # the port identifying this update (lock value)
    server: str = ""  # the server process managing the update


@dataclass
class FileRegistry:
    """The shared file table of a file service (all replicas see one)."""

    files: dict[int, FileEntry] = field(default_factory=dict)
    versions: dict[int, VersionEntry] = field(default_factory=dict)
    _next_obj: int = 1

    def __post_init__(self) -> None:
        # Lock-free snapshot reads can lazily mint version entries (after
        # a registry restore) while a commit allocates objects; the
        # counter must never hand out the same number twice.
        self._obj_lock = threading.Lock()

    # -- object numbers -----------------------------------------------------

    def fresh_obj(self) -> int:
        with self._obj_lock:
            obj = self._next_obj
            self._next_obj += 1
            return obj

    # -- files ----------------------------------------------------------------

    def add_file(self, entry: FileEntry) -> None:
        self.files[entry.obj] = entry
        self._next_obj = max(self._next_obj, entry.obj + 1)

    def file(self, obj: int) -> FileEntry:
        try:
            return self.files[obj]
        except KeyError:
            raise NoSuchFile(f"file object {obj} unknown") from None

    def drop_file(self, obj: int) -> None:
        self.files.pop(obj, None)
        for version in list(self.versions.values()):
            if version.file_obj == obj:
                del self.versions[version.obj]

    # -- versions ----------------------------------------------------------------

    def add_version(self, entry: VersionEntry) -> None:
        self.versions[entry.obj] = entry
        self._next_obj = max(self._next_obj, entry.obj + 1)

    def version(self, obj: int) -> VersionEntry:
        try:
            return self.versions[obj]
        except KeyError:
            raise NoSuchVersion(f"version object {obj} unknown") from None

    def drop_version(self, obj: int) -> None:
        self.versions.pop(obj, None)

    def version_by_block(self, block: int) -> VersionEntry | None:
        """The version whose version page lives in ``block``, if known.

        Aborted tombstones are skipped: their blocks are freed and the
        numbers may have been reused by newer versions.

        Iterates a snapshot: lock-free snapshot reads (TCP daemon)
        walk this table while a concurrent commit inserts entries, and a
        live dict iterator would raise ``RuntimeError`` mid-read.
        """
        for entry in list(self.versions.values()):
            if entry.root_block == block and entry.status != "aborted":
                return entry
        return None

    def live_version_roots(self) -> set[int]:
        """Root blocks of all non-aborted versions (the GC's extra roots)."""
        return {
            v.root_block for v in self.versions.values() if v.status != "aborted"
        }

    # -- persistence (the replicated file table on stable storage) -------------

    def serialize(self) -> bytes:
        """Pack the *file* entries (the durable part) into a table block.

        Version entries are deliberately not persisted: committed versions
        are reachable from file entries via commit references, and
        uncommitted ones are expendable by design.
        """
        body = _HEADER.pack(_MAGIC, len(self.files))
        for entry in sorted(self.files.values(), key=lambda e: e.obj):
            flags = (_FLAG_SUPER if entry.is_super else 0) | (
                _FLAG_MERGEABLE if entry.mergeable else 0
            )
            body += _ENTRY.pack(
                entry.obj,
                entry.entry_block,
                entry.secret,
                flags,
                entry.parent_obj,
            )
        return body

    @staticmethod
    def deserialize(raw: bytes) -> "FileRegistry":
        magic, count = _HEADER.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise ValueError("not a serialised file table")
        registry = FileRegistry()
        offset = _HEADER.size
        for _ in range(count):
            obj, entry_block, secret, flags, parent = _ENTRY.unpack_from(
                raw, offset
            )
            offset += _ENTRY.size
            registry.add_file(
                FileEntry(
                    obj,
                    entry_block,
                    secret,
                    bool(flags & _FLAG_SUPER),
                    parent,
                    mergeable=bool(flags & _FLAG_MERGEABLE),
                )
            )
        return registry

    def restore_from(self, other: "FileRegistry") -> None:
        """Adopt the durable file entries of a deserialised table."""
        self.files = dict(other.files)
        # The epoch counters died with the old in-memory table and the
        # restored entry blocks may be arbitrarily stale; mark every
        # epoch "unknown" so no pre-restore lease can ever fast-renew
        # against a rolled-back entry block.
        for entry in self.files.values():
            entry.epoch = -1
        self.versions = {}
        self._next_obj = max(
            [self._next_obj] + [obj + 1 for obj in self.files]
        )


# Sentinel for "no entry block yet".
NO_BLOCK = NIL
