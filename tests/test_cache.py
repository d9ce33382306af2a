"""Caching (§5.4): server page cache, client cache, validation."""

import pytest

from repro.core.cache import ClientFileCache, PageCache
from repro.core.page import Page
from repro.core.pathname import PagePath
from repro.client.api import FileClient

ROOT = PagePath.ROOT


# ---------------------------------------------------------------------------
# the server-side page cache
# ---------------------------------------------------------------------------


def test_page_cache_hit_miss_accounting():
    cache = PageCache(capacity=4)
    page = Page(data=b"x")
    assert cache.get(1) is None
    cache.put(1, page)
    assert cache.get(1) is page
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_page_cache_lru_eviction():
    cache = PageCache(capacity=2)
    cache.put(1, Page(data=b"1"))
    cache.put(2, Page(data=b"2"))
    cache.get(1)  # 1 is now most recent
    cache.put(3, Page(data=b"3"))  # evicts 2
    assert cache.get(2) is None
    assert cache.get(1) is not None
    assert cache.get(3) is not None


def test_page_cache_invalidate():
    cache = PageCache(capacity=2)
    cache.put(1, Page(data=b"1"))
    cache.invalidate(1)
    assert cache.get(1) is None
    assert cache.stats.invalidations == 1
    cache.invalidate(99)  # absent: no count
    assert cache.stats.invalidations == 1


def test_page_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        PageCache(capacity=0)


def test_page_cache_stats_exact_under_thread_barrage():
    """Counter updates happen under ``_mutex``: a barrage of concurrent
    gets against concurrent puts must account for every single call.
    (Regression: hits/misses were read-modify-written outside the lock
    and lost increments on the TCP daemon's lock-free read path.)"""
    import sys
    import threading

    cache = PageCache(capacity=64)
    cache.put(1, Page(data=b"present"))
    threads, per_thread = 8, 4000
    start = threading.Barrier(threads)

    def barrage(churn_key):
        start.wait()
        for _ in range(per_thread):
            cache.get(1)  # hit
            cache.get(999)  # miss
            cache.put(churn_key, Page(data=b"churn"))
            cache.invalidate(churn_key)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force frequent preemption
    try:
        workers = [
            threading.Thread(target=barrage, args=(100 + i,))
            for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert cache.stats.hits == threads * per_thread
    assert cache.stats.misses == threads * per_thread
    assert cache.stats.invalidations == threads * per_thread


def test_page_cache_stat_updates_run_under_the_mutex():
    """Deterministic form of the lost-update regression: a stats object
    whose read-modify-write window is widened with a sleep (a GIL yield
    point) loses increments unless ``get`` updates it while holding
    ``_mutex``.  On the GIL'd interpreter the raw race above only bites
    at loop back-edges, so this pins the locking discipline directly."""
    import threading
    import time

    class WideWindowStats:
        """CacheStats with a yawning gap between reading ``hits``/
        ``misses`` and storing the incremented value."""

        invalidations = 0
        evictions = 0

        def __init__(self):
            self._hits = 0
            self._misses = 0

        @property
        def hits(self):
            value = self._hits
            time.sleep(0.0005)  # yield mid increment
            return value

        @hits.setter
        def hits(self, value):
            self._hits = value

        @property
        def misses(self):
            value = self._misses
            time.sleep(0.0005)
            return value

        @misses.setter
        def misses(self, value):
            self._misses = value

    cache = PageCache(capacity=8)
    cache.stats = WideWindowStats()
    cache.put(1, Page(data=b"x"))
    threads, per_thread = 4, 25
    start = threading.Barrier(threads)

    def barrage():
        start.wait()
        for _ in range(per_thread):
            cache.get(1)  # hit
            cache.get(999)  # miss

    workers = [threading.Thread(target=barrage) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert cache.stats.hits == threads * per_thread
    assert cache.stats.misses == threads * per_thread


# ---------------------------------------------------------------------------
# the server-side validation command
# ---------------------------------------------------------------------------


def test_validate_cache_null_op_for_unshared_file(fs):
    """"For files that are not shared [...] the serialisability test is a
    null operation, and all pages in the cache will always be valid."""
    cap = fs.create_file(b"private")
    cached = fs.current_version(cap)
    discards, current = fs.validate_cache(cap, cached)
    assert discards == []
    assert current.obj == cached.obj


def test_validate_cache_reports_written_paths(fs):
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(4):
        fs.append_page(setup.version, ROOT, b"c%d" % i)
    fs.commit(setup.version)
    cached = fs.current_version(cap)
    # Someone else writes child 2.
    other = fs.create_version(cap)
    fs.write_page(other.version, PagePath.of(2), b"changed")
    fs.commit(other.version)
    discards, current = fs.validate_cache(cap, cached)
    assert discards == [PagePath.of(2)]
    assert current.obj != cached.obj


def test_validate_cache_accumulates_across_versions(fs):
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(4):
        fs.append_page(setup.version, ROOT, b"c%d" % i)
    fs.commit(setup.version)
    cached = fs.current_version(cap)
    for page in (0, 3):
        other = fs.create_version(cap)
        fs.write_page(other.version, PagePath.of(page), b"new")
        fs.commit(other.version)
    discards, _ = fs.validate_cache(cap, cached)
    assert set(discards) == {PagePath.of(0), PagePath.of(3)}


def test_validate_cache_transfers_no_pages(fs, cluster):
    """"It is not necessary to transmit pages while making the
    serialisability test" — an unshared file's validation reads nothing."""
    cap = fs.create_file(b"data")
    cached = fs.current_version(cap)
    fs.store.cache.clear()
    disk = cluster.pair.disk_a
    reads_before = disk.stats.reads + cluster.pair.disk_b.stats.reads
    fs.validate_cache(cap, cached)
    reads_after = disk.stats.reads + cluster.pair.disk_b.stats.reads
    # One fresh read of the version page to see the commit reference; no
    # page-tree pages at all.
    assert reads_after - reads_before <= 1


def test_flag_bits_cache_avoids_tree_reads(fs, cluster):
    """"This allows serialisability tests without having to read the page
    tree": validating against a version committed by this server reads no
    page-tree pages at all — the flag administration is cached."""
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(8):
        fs.append_page(setup.version, ROOT, b"c%d" % i)
    fs.commit(setup.version)
    cached = fs.current_version(cap)
    writer = fs.create_version(cap)
    fs.write_page(writer.version, PagePath.of(3), b"w")
    fs.commit(writer.version)
    fs.store.cache.clear()  # drop the page cache; keep the flag cache
    disk = cluster.pair.disk_a
    reads_before = disk.stats.reads + cluster.pair.disk_b.stats.reads
    discards, _ = fs.validate_cache(cap, cached)
    reads = disk.stats.reads + cluster.pair.disk_b.stats.reads - reads_before
    assert discards == [PagePath.of(3)]
    # Only the chain-walk reads of the two version pages; no tree pages.
    assert reads <= 2


def test_validation_delegated_to_committing_server(cluster2):
    """"It can delegate the task to the server holding the most recent
    version for efficiency": a cold server forwards the test to the server
    whose flag cache is warm, reading no page-tree pages itself."""
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"root")
    setup = fs0.create_version(cap)
    for i in range(4):
        fs0.append_page(setup.version, ROOT, b"c%d" % i)
    fs0.commit(setup.version)
    cached = fs0.current_version(cap)
    # fs1 commits the write: ITS flag cache is the warm one.
    writer = fs1.create_version(cap)
    fs1.write_page(writer.version, PagePath.of(2), b"w")
    fs1.commit(writer.version)
    fs0.store.cache.clear()
    fs0._write_paths_cache.clear()
    from repro.sim.rpc import Request

    forwarded = []
    cluster2.network.tracer = lambda s, d, p: forwarded.append(
        (s, d, p.command if isinstance(p, Request) else "")
    )
    discards, _ = fs0.validate_cache(cap, cached)
    cluster2.network.tracer = None
    assert discards == [PagePath.of(2)]
    assert ("fs0", "fs1", "validate_cache") in forwarded


def test_validation_falls_back_when_delegate_dead(cluster2):
    fs0, fs1 = cluster2.fs(0), cluster2.fs(1)
    cap = fs0.create_file(b"root")
    cached = fs0.current_version(cap)
    writer = fs1.create_version(cap)
    fs1.write_page(writer.version, ROOT, b"w")
    fs1.commit(writer.version)
    fs1.crash()
    fs0._write_paths_cache.clear()
    discards, _ = fs0.validate_cache(cap, cached)
    assert discards == [ROOT]


def test_flag_bits_cache_survives_crash_via_disk(fs, cluster):
    """The flags are also on disk, so a restarted server (empty flag
    cache) computes the same answer by reading the tree."""
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(4):
        fs.append_page(setup.version, ROOT, b"c%d" % i)
    fs.commit(setup.version)
    cached = fs.current_version(cap)
    writer = fs.create_version(cap)
    fs.write_page(writer.version, PagePath.of(1), b"w")
    fs.commit(writer.version)
    fs.crash()
    fs.restart()
    assert fs._write_paths_cache == {}
    discards, _ = fs.validate_cache(cap, cached)
    assert discards == [PagePath.of(1)]


# ---------------------------------------------------------------------------
# the client-side cache
# ---------------------------------------------------------------------------


def test_client_cache_roundtrip(cluster):
    client = FileClient(cluster.network, "host", cluster.service_port)
    cap = client.create_file(b"v1")
    assert client.read(cap) == b"v1"  # miss, fetch
    messages_before = cluster.network.stats.messages
    assert client.read(cap) == b"v1"  # revalidate (null) + cache hit
    # The hit still costs the validation round trip, but no page read.
    assert client.stats.cache_hits >= 1


def test_client_cache_discard_on_remote_change(cluster, cluster2):
    net = cluster2.network
    writer = FileClient(net, "writer", cluster2.service_port)
    reader = FileClient(net, "reader", cluster2.service_port)
    cap = writer.create_file(b"v1")
    assert reader.read(cap) == b"v1"
    writer.transact(cap, lambda u: u.write(ROOT, b"v2"))
    assert reader.read(cap) == b"v2"  # discard detected via validation
    assert reader.cache.stats.invalidations >= 1


def test_client_cache_entry_management():
    from repro.capability import Capability

    cache = ClientFileCache()
    cap = Capability(1, 2, 3, 4)
    version = Capability(1, 9, 3, 4)
    cache.remember(cap, version, {ROOT: b"root", PagePath.of(1): b"one"})
    assert cache.get(cap, ROOT) == b"root"
    assert cache.get(cap, PagePath.of(2)) is None
    cache.put(cap, PagePath.of(2), b"two")
    assert cache.get(cap, PagePath.of(2)) == b"two"
    cache.drop(cap)
    assert cache.entry(cap) is None


def test_client_cache_discard_kills_subtree():
    from repro.capability import Capability

    cache = ClientFileCache()
    cap = Capability(1, 2, 3, 4)
    v1 = Capability(1, 8, 3, 4)
    v2 = Capability(1, 9, 3, 4)
    cache.remember(
        cap,
        v1,
        {
            PagePath.of(1): b"a",
            PagePath.of(1, 0): b"b",
            PagePath.of(2): b"c",
        },
    )
    dead = cache.apply_discards(cap, [PagePath.of(1)], v2)
    assert dead == 2
    assert cache.get(cap, PagePath.of(2)) == b"c"
    assert cache.entry(cap).version_cap == v2


def test_client_cache_keys_by_port_and_obj():
    """Same object number at two service ports must not collide.
    (Regression: entries were keyed by ``file_cap.obj`` alone.)"""
    from repro.capability import Capability

    cache = ClientFileCache()
    cap_a = Capability(port=1000, obj=7, rights=0xFF, check=1)
    cap_b = Capability(port=2000, obj=7, rights=0xFF, check=2)
    cache.remember(cap_a, Capability(1000, 8, 0xFF, 1), {ROOT: b"service A"})
    cache.remember(cap_b, Capability(2000, 9, 0xFF, 2), {ROOT: b"service B"})
    assert cache.get(cap_a, ROOT) == b"service A"
    assert cache.get(cap_b, ROOT) == b"service B"
    assert len(cache) == 2
    cache.drop(cap_a)
    assert cache.entry(cap_a) is None
    assert cache.get(cap_b, ROOT) == b"service B"


def test_client_cache_no_cross_deployment_collision():
    """End to end: one application cache shared by clients of two
    deployments (a sharded one and a plain one) whose file services
    mint the same object numbers at different ports."""
    from repro.testbed import build_cluster, build_sharded_cluster

    sharded = build_sharded_cluster(shards=2, servers=1, seed=3)
    plain = build_cluster(servers=1, seed=5)
    client_a = FileClient(sharded.network, "app", sharded.service_port)
    client_b = FileClient(plain.network, "app", plain.service_port)
    client_b.cache = client_a.cache  # one shared application cache
    cap_a = client_a.create_file(b"on the sharded service")
    cap_b = client_b.create_file(b"on the plain service")
    assert cap_a.obj == cap_b.obj  # same object number...
    assert cap_a.port != cap_b.port  # ...different service ports
    assert client_a.read(cap_a) == b"on the sharded service"
    assert client_b.read(cap_b) == b"on the plain service"
    # Both reads again, now cache-served: still no cross-talk.
    assert client_a.read(cap_a) == b"on the sharded service"
    assert client_b.read(cap_b) == b"on the plain service"
    assert len(client_a.cache) == 2


def test_client_cache_page_budget_evicts_lru_file():
    from repro.capability import Capability

    cache = ClientFileCache(max_pages=4)
    caps = [Capability(1, obj, 3, 4) for obj in (10, 11, 12)]
    for i, cap in enumerate(caps):
        version = Capability(1, 100 + i, 3, 4)
        cache.remember(
            cap, version, {PagePath.of(0): b"a", PagePath.of(1): b"b"}
        )
    # 3 files x 2 pages against a budget of 4: the least recently used
    # file (the first) is evicted whole.
    assert cache.total_pages <= 4
    assert cache.entry(caps[0]) is None
    assert cache.get(caps[1], PagePath.of(0)) == b"a"
    assert cache.get(caps[2], PagePath.of(0)) == b"a"
    assert cache.stats.evictions == 2  # both pages of the evicted file


def test_client_cache_eviction_follows_recency():
    from repro.capability import Capability

    cache = ClientFileCache(max_pages=2)
    cap_a = Capability(1, 10, 3, 4)
    cap_b = Capability(1, 11, 3, 4)
    cache.remember(cap_a, Capability(1, 100, 3, 4), {ROOT: b"a"})
    cache.remember(cap_b, Capability(1, 101, 3, 4), {ROOT: b"b"})
    cache.get(cap_a, ROOT)  # A is now most recent
    cache.put(cap_b, PagePath.of(1), b"bb")  # B over budget: A evicted
    assert cache.entry(cap_a) is None
    assert cache.get(cap_b, PagePath.of(1)) == b"bb"


def test_client_cache_never_evicts_the_file_being_filled():
    """A single file larger than the whole budget stays cached (the
    eviction loop never removes the most recently used entry)."""
    from repro.capability import Capability

    cache = ClientFileCache(max_pages=2)
    cap = Capability(1, 10, 3, 4)
    pages = {PagePath.of(i): b"p%d" % i for i in range(5)}
    cache.remember(cap, Capability(1, 100, 3, 4), pages)
    assert cache.entry(cap) is not None
    assert cache.get(cap, PagePath.of(4)) == b"p4"
