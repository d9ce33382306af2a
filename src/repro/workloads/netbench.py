"""The wire-transport benchmark behind ``BENCH_net.json``.

Two passes over the same service code:

* **parity** — one fixed mixed workload (commits plus snapshot reads)
  run *sequentially* on the simulated network and on the TCP daemons.
  Sequential execution makes the message count exact and deterministic,
  and both transports must produce the *same* number: same protocol,
  same operations, no retries.  This is the gated half of the benchmark
  — a count drift means the wire protocol grew chatter.

* **contended** — the 8-client mixed workload, run concurrently on the
  TCP daemons: two committer clients stream multi-page commits while six
  reader clients time every snapshot read.  Reads skip the daemon's
  dispatch lock, so the read tail measures how little a read waits
  behind commits in flight.

A note on wall-clock: every daemon and client here shares one CPython
interpreter, so aggregate throughput is GIL-bound.  Tail latency is the
honest measure of where the waiting happens, so that is what the
benchmark reports; the raw wall seconds are included for completeness.
Neither is gated.
"""

from __future__ import annotations

import threading
import time

from repro.core.pathname import PagePath

ROOT = PagePath.ROOT

# -- parity workload (sequential, deterministic) ----------------------------

PARITY_CLIENTS = 8
PARITY_COMMITS = 2
PARITY_PAGES = 4
PARITY_READS = 50

# -- contended workload (concurrent: the 8-client mixed workload) -----------

COMMITTERS = 2
READERS = 6
COMMITS_PER_COMMITTER = 10
PAGES_PER_COMMIT = 96
PAGE_BYTES = 4096
READS_PER_READER = 300


def _parity_ops(client, index: int) -> None:
    """One client's share of the parity workload."""
    cap = client.create_file(b"parity file %d" % index)

    def fill(update, round_: int) -> None:
        update.write(ROOT, b"round %d root from client %d" % (round_, index))
        for page in range(PARITY_PAGES - 1):
            update.append_page(ROOT, b"round %d page %d" % (round_, page))

    for round_ in range(PARITY_COMMITS):
        client.transact(cap, lambda u, r=round_: fill(u, r))
        for _ in range(PARITY_READS):
            client.snapshot_read(cap)


def _run_parity(network, service_port, make_client) -> int:
    before = network.stats.messages
    for i in range(PARITY_CLIENTS):
        _parity_ops(make_client(i), i)
    return network.stats.messages - before


def parity_sim() -> int:
    from repro.client.api import FileClient
    from repro.testbed import build_cluster

    cluster = build_cluster(servers=2, seed=1985)

    def make_client(i: int) -> FileClient:
        return FileClient(
            cluster.network, f"sim-c{i}", cluster.service_port, use_cache=False
        )

    return _run_parity(cluster.network, cluster.service_port, make_client)


def parity_tcp() -> int:
    from repro.client.api import FileClient
    from repro.net import build_tcp_cluster

    cluster = build_tcp_cluster(servers=2, seed=1985)
    try:

        def make_client(i: int) -> FileClient:
            return FileClient(
                cluster.network, f"tcp-c{i}", cluster.service_port, use_cache=False
            )

        return _run_parity(cluster.network, cluster.service_port, make_client)
    finally:
        cluster.stop()


def contended_tcp() -> dict:
    """The concurrent 8-client mixed workload; returns wall seconds and
    the reader-side latency distribution in milliseconds."""
    from repro.client.api import FileClient
    from repro.net import build_tcp_cluster

    cluster = build_tcp_cluster(servers=2, seed=1985)
    try:
        network = cluster.network
        errors: list[BaseException] = []
        latencies: list[list[float]] = [[] for _ in range(READERS)]

        def committer(index: int) -> None:
            try:
                client = FileClient(
                    network, f"commit-c{index}", cluster.service_port,
                    use_cache=False,
                )
                cap = client.create_file(b"committer %d" % index)
                for round_ in range(COMMITS_PER_COMMITTER):

                    def fill(update, r=round_):
                        update.write(ROOT, b"committer %d round %d" % (index, r))
                        for _ in range(PAGES_PER_COMMIT - 1):
                            update.append_page(ROOT, b"x" * PAGE_BYTES)

                    client.transact(cap, fill)
            except BaseException as exc:  # surface, don't swallow
                errors.append(exc)

        def reader(index: int) -> None:
            try:
                client = FileClient(
                    network, f"read-c{index}", cluster.service_port,
                    use_cache=False,
                )
                cap = client.create_file(b"reader %d" % index)
                client.transact(
                    cap, lambda u: u.write(ROOT, b"reader %d data" % index)
                )
                bucket = latencies[index]
                for _ in range(READS_PER_READER):
                    start = time.monotonic()
                    client.snapshot_read(cap)
                    bucket.append((time.monotonic() - start) * 1000.0)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=committer, args=(i,), name=f"netbench-w{i}")
            for i in range(COMMITTERS)
        ] + [
            threading.Thread(target=reader, args=(i,), name=f"netbench-r{i}")
            for i in range(READERS)
        ]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.monotonic() - start
        if errors:
            raise errors[0]

        merged = sorted(lat for bucket in latencies for lat in bucket)
        count = len(merged)
        return {
            "seconds": round(seconds, 4),
            "read_mean_ms": round(sum(merged) / count, 4),
            "read_p99_ms": round(merged[int(count * 0.99)], 4),
            "read_max_ms": round(merged[-1], 4),
        }
    finally:
        cluster.stop()


def run_netbench() -> dict:
    """The full measurement (the body of ``BENCH_net.json``)."""
    sim = parity_sim()
    threaded = parity_tcp()
    return {
        "workload": {
            "parity_clients": PARITY_CLIENTS,
            "parity_commits": PARITY_COMMITS,
            "parity_reads": PARITY_READS,
            "committers": COMMITTERS,
            "readers": READERS,
            "commits_per_committer": COMMITS_PER_COMMITTER,
            "pages_per_commit": PAGES_PER_COMMIT,
            "reads_per_reader": READS_PER_READER,
        },
        "parity": {
            "sim": sim,
            "threaded": threaded,
            # 0 when both transports move the same number of messages
            # for the same workload; gated at exactly zero.
            "mismatch": int(sim != threaded),
        },
        "contended": {"threaded": contended_tcp()},
    }


# Metrics the bench gate holds against the committed baseline.  Only the
# deterministic half is gated: sequential message-count parity between
# the simulator and TCP.  The contended latency numbers are wall-clock
# on shared machines — reported, never gated.
GATE = [
    "parity.mismatch",
    "parity.sim",
    "parity.threaded",
]

# Subtrees of the document that are wall-clock measurements: meaningful
# in the committed baseline as a record of the read tail, but not
# reproducible bit-for-bit.  Tooling that checks the baseline is
# regenerable strips these paths first.
WALLCLOCK = [
    "contended",
]


def netbench_document(schema: int = 1) -> dict:
    """``run_netbench`` in the committed ``BENCH_net.json`` shape —
    what both ``benchmarks/bench_json.py`` and ``repro serve --bench``
    emit."""
    document = run_netbench()
    document["schema"] = schema
    document["gate"] = list(GATE)
    document["wallclock"] = list(WALLCLOCK)
    return document
