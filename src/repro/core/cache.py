"""Page caches (§5.4).

"The Amoeba File Service — by design — is especially suited for caching.
A version, from the moment of its creation, behaves like a private copy of
a file that cannot change without the owner's consent.  Both Amoeba File
Servers and their clients can therefore maintain a cache."

Two caches live here:

* :class:`PageCache` — a bounded LRU of deserialised pages keyed by block
  number, used *inside* file servers.  Blocks written by copy-on-write are
  immutable once shared, so cache entries never go stale except for version
  pages (whose commit-reference/lock fields change in place); the page
  store invalidates those explicitly.
* :class:`ClientFileCache` — a client-held cache of pages of "the most
  recent version it has had locally", keyed by path name.  On reuse the
  client asks a server to validate the entry against the current version
  (the serialisability test of §5.4); the server returns the path names to
  discard, and "it is not necessary to transmit pages while making the
  serialisability test".  For a file nobody else touched, the test is a
  null operation and every page stays valid.

Client caches "do not have to be write-through": dirty pages are kept
locally and flushed just before commit (the page store's deferred-write
mode implements the same idea server-side).

On top of the validation protocol sits the *read lease*: a server may
grant a :class:`Lease` — the file's current epoch number plus a TTL in
clock units — alongside a validation answer.  While the lease is live the
client serves cached pages with **zero** network traffic; any commit bumps
the file's epoch, so the first post-expiry validation either fast-renews
(epoch unchanged: one tiny message, no page-tree work at all) or returns
the usual discard list.  See docs/CACHING.md for the staleness bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.capability import Capability
from repro.core.page import Page
from repro.core.pathname import PagePath
from repro.obs import NULL_RECORDER


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0  # pages dropped by the client cache's budget

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class Lease:
    """A server's promise that cached pages of a file's current version
    may be served locally for ``ttl`` clock units.

    ``epoch`` is the file's commit counter at grant time: every commit
    bumps it, so a client presenting its leased epoch lets the server
    answer "nothing changed" without reading any page tree.  ``epoch``
    is ``-1`` when the server cannot vouch for its counter (right after
    a registry restore); such a lease still serves local reads but never
    fast-renews.
    """

    epoch: int
    ttl: int


class PageCache:
    """A bounded LRU cache of deserialised pages by block number.

    Thread-safe: the TCP daemon serves snapshot reads without the
    dispatch lock, so a read's LRU bookkeeping can race a commit's
    ``put``/``invalidate`` on the same server.  OrderedDict reordering is
    not atomic, hence the internal mutex (uncontended in the simulation
    and the threaded transport, where dispatch is already serialised).
    """

    def __init__(self, capacity: int = 1024, recorder=None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.stats = CacheStats()
        self._pages: OrderedDict[int, Page] = OrderedDict()
        self._mutex = threading.Lock()

    def get(self, block: int) -> Page | None:
        # Stats move under the mutex too: the lock-free async read path
        # races put/invalidate here, and `stats.hits += 1` is a read-
        # modify-write that loses updates when interleaved.
        with self._mutex:
            page = self._pages.get(block)
            if page is not None:
                self._pages.move_to_end(block)
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if page is None:
            if self.recorder.enabled:
                self.recorder.count("cache.misses")
            return None
        if self.recorder.enabled:
            self.recorder.count("cache.hits")
        return page

    def put(self, block: int, page: Page) -> None:
        with self._mutex:
            self._pages[block] = page
            self._pages.move_to_end(block)
            while len(self._pages) > self.capacity:
                self._pages.popitem(last=False)

    def invalidate(self, block: int) -> None:
        with self._mutex:
            died = self._pages.pop(block, None) is not None
            if died:
                self.stats.invalidations += 1
        if died and self.recorder.enabled:
            self.recorder.count("cache.invalidations")

    def clear(self) -> None:
        with self._mutex:
            self._pages.clear()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._pages)

    def __contains__(self, block: int) -> bool:
        with self._mutex:
            return block in self._pages


@dataclass
class ClientCacheEntry:
    """A client's cached pages for one file, plus its lease state.

    A lease is live while ``clock.now < lease_expires``; ``lease_expires``
    is stamped from the clock reading taken *before* the granting RPC was
    sent, which is what makes the staleness bound provable (the version
    could not have been superseded before that instant and still be
    granted on).
    """

    file_cap: Capability
    version_cap: Capability  # the version the pages came from
    pages: dict[PagePath, bytes] = field(default_factory=dict)
    lease_epoch: int | None = None  # file epoch at the last lease grant
    lease_expires: int = -1  # clock reading the lease dies at
    lease_ttl: int = 0  # granted duration (the staleness bound)

    def lease_live(self, now: int) -> bool:
        return self.lease_epoch is not None and now < self.lease_expires


class ClientFileCache:
    """A client-side per-file page cache with server-assisted validation.

    Usage pattern (see :class:`repro.client.api.FileClient`):

    1. after working on a version, ``remember`` its pages;
    2. before the next update, ``revalidate`` against the service — the
       server replies with the path names whose pages must be discarded
       (an empty list for unshared files: the null-operation case);
    3. ``get`` serves page reads without network traffic.

    Entries are keyed by ``(service port, file object)``: object numbers
    are allocated per deployment, so a client talking to two deployments
    (or holding capabilities minted by different services) must not let
    file 7 of one alias file 7 of the other.

    The cache is bounded by a total *page* budget: files are kept in LRU
    order and whole cold files are evicted (with their lease) once the
    budget is exceeded — per-file granularity, because validation and
    leases are per-file.  A single file larger than the whole budget is
    kept; the budget is a target, not a hard invariant.
    """

    def __init__(self, max_pages: int = 1024) -> None:
        if max_pages < 1:
            raise ValueError("cache page budget must be positive")
        self.max_pages = max_pages
        self._entries: OrderedDict[tuple[int, int], ClientCacheEntry] = OrderedDict()
        self._total_pages = 0
        self.stats = CacheStats()

    @staticmethod
    def _key(file_cap: Capability) -> tuple[int, int]:
        return (file_cap.port, file_cap.obj)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_pages(self) -> int:
        return self._total_pages

    def remember(
        self,
        file_cap: Capability,
        version_cap: Capability,
        pages: dict[PagePath, bytes],
    ) -> None:
        """Install or replace the cache entry for a file."""
        key = self._key(file_cap)
        old = self._entries.pop(key, None)
        if old is not None:
            self._total_pages -= len(old.pages)
        self._entries[key] = ClientCacheEntry(file_cap, version_cap, dict(pages))
        self._total_pages += len(pages)
        self._evict()

    def entry(self, file_cap: Capability) -> ClientCacheEntry | None:
        entry = self._entries.get(self._key(file_cap))
        if entry is not None:
            self._entries.move_to_end(self._key(file_cap))
        return entry

    def get(self, file_cap: Capability, path: PagePath) -> bytes | None:
        entry = self._entries.get(self._key(file_cap))
        if entry is None or path not in entry.pages:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(self._key(file_cap))
        self.stats.hits += 1
        return entry.pages[path]

    def put(self, file_cap: Capability, path: PagePath, data: bytes) -> None:
        entry = self._entries.get(self._key(file_cap))
        if entry is not None:
            if path not in entry.pages:
                self._total_pages += 1
            entry.pages[path] = data
            self._entries.move_to_end(self._key(file_cap))
            self._evict()

    def set_lease(self, file_cap: Capability, lease: Lease, granted_at: int) -> None:
        """Attach a freshly granted lease; ``granted_at`` must be the
        clock reading taken before the granting request was sent."""
        entry = self._entries.get(self._key(file_cap))
        if entry is None:
            return
        entry.lease_epoch = lease.epoch
        entry.lease_expires = granted_at + lease.ttl
        entry.lease_ttl = lease.ttl

    def apply_discards(
        self, file_cap: Capability, discards: list[PagePath], new_version: Capability
    ) -> int:
        """Drop the pages the server said are stale; returns how many died.

        A discard path also kills every cached page *below* it, because a
        structural change (M) invalidates the whole subtree's path names.
        """
        entry = self._entries.get(self._key(file_cap))
        if entry is None:
            return 0
        dead = [
            path
            for path in entry.pages
            if any(bad.is_ancestor_of(path) for bad in discards)
        ]
        for path in dead:
            del entry.pages[path]
            self.stats.invalidations += 1
        self._total_pages -= len(dead)
        entry.version_cap = new_version
        return len(dead)

    def drop(self, file_cap: Capability) -> None:
        entry = self._entries.pop(self._key(file_cap), None)
        if entry is not None:
            self._total_pages -= len(entry.pages)

    def _evict(self) -> None:
        """Evict least-recently-used files until within the page budget.

        The most-recently-touched entry is never evicted — the caller
        just used it, and evicting it would make a put self-defeating.
        """
        while self._total_pages > self.max_pages and len(self._entries) > 1:
            _, victim = self._entries.popitem(last=False)
            self._total_pages -= len(victim.pages)
            self.stats.evictions += len(victim.pages)
