"""Machine-readable benchmark trajectories: the ``BENCH_*.json`` baselines.

``results.txt`` is for people; this harness is for CI and for future PRs
that need to compare numbers instead of eyeballing tables.  Every
measurement runs on the deterministic simulation — logical clocks, seeded
RNGs, counted messages — so the JSON is bit-for-bit reproducible and the
regression gate can be tight.

Usage::

    PYTHONPATH=src python benchmarks/bench_json.py            # rewrite baselines
    PYTHONPATH=src python benchmarks/bench_json.py --check    # CI gate
    PYTHONPATH=src python benchmarks/bench_json.py --out DIR  # write elsewhere

``--check`` re-measures and compares every metric named in each file's
``gate`` list against the committed baseline: a value more than
``TOLERANCE_PCT`` percent *worse* (higher) fails the run.  Improvements
pass — refresh the baseline in the same PR that wins them.

Schema and workflow: docs/BENCHMARKS.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.client.api import FileClient  # noqa: E402
from repro.core.pathname import PagePath  # noqa: E402
from repro.testbed import build_cluster, build_sharded_cluster  # noqa: E402

ROOT = PagePath.ROOT
HERE = pathlib.Path(__file__).parent
TOLERANCE_PCT = 20.0
SCHEMA_VERSION = 1

# How many concurrent ready updates the group-commit claim is measured
# at — the ISSUE's "8 concurrent non-conflicting updates on one server".
GROUP_SIZE = 8


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def _costs_around(cluster, fn):
    """Run ``fn`` and return the deltas of the deployment-wide cost
    counters it moved: network messages, stable writes (disk A of every
    pair — companion B mirrors it), and logical ticks."""
    if cluster.shards is not None:
        disks = [pair.disk_a for pair in cluster.shards.pairs]
    else:
        disks = [cluster.pair.disk_a]
    msgs = cluster.network.stats.messages
    writes = sum(d.stats.writes for d in disks)
    ticks = cluster.clock.now
    fn()
    return {
        "messages": cluster.network.stats.messages - msgs,
        "stable_writes": sum(d.stats.writes for d in disks) - writes,
        "ticks": cluster.clock.now - ticks,
    }


def measure_fast_commit(n_pages: int) -> dict:
    """One sequential fast-path commit on a file of ``n_pages`` pages —
    claim C1's flat line, now as numbers a gate can hold."""
    cluster = build_cluster(seed=20)
    fs = cluster.fs()
    cap = fs.create_file(b"root")
    setup = fs.create_version(cap)
    for i in range(n_pages):
        fs.append_page(setup.version, ROOT, b"p%d" % i)
    fs.commit(setup.version)
    handle = fs.create_version(cap)
    fs.write_page(handle.version, PagePath.of(n_pages // 2), b"x")
    fs.store.flush()
    return _costs_around(cluster, lambda: fs.commit(handle.version))


def _group_workload(grouped: bool) -> dict:
    """GROUP_SIZE ready, non-conflicting updates on one file server,
    settled either one commit at a time (the seed path) or through one
    ``commit_group`` call."""
    cluster = build_cluster(seed=7)
    client = FileClient(cluster.network, "bench", cluster.service_port,
                        use_cache=False)
    cap = client.create_file(b"base")
    setup = client.begin(cap)
    paths = [setup.append_page(ROOT, b"init") for _ in range(GROUP_SIZE)]
    setup.commit()
    client.prefer_server = client.ping()
    updates = []
    for i, path in enumerate(paths):
        update = client.begin(cap)
        update.write(path, b"w%d" % i)
        updates.append(update)

    def settle():
        if grouped:
            outcomes = client.commit_group(updates)
            assert all(
                v.startswith("committed") for v in outcomes.values()
            ), outcomes
        else:
            for update in updates:
                update.commit()

    return _costs_around(cluster, settle)


def measure_group_commit() -> dict:
    sequential = _group_workload(grouped=False)
    grouped = _group_workload(grouped=True)
    reduction = {
        key: round(100.0 * (1.0 - grouped[key] / sequential[key]), 1)
        for key in sequential
    }
    return {
        "members": GROUP_SIZE,
        "sequential": sequential,
        "grouped": grouped,
        "reduction_pct": reduction,
    }


def measure_scale(ops: int = 24, shards: int = 4) -> dict:
    """Per-op commit cost of a fixed update workload on the sharded
    deployment — the trajectory that shows batching holding up as the
    storage fans out."""
    cluster = build_sharded_cluster(shards=shards, seed=9)
    client = FileClient(cluster.network, "bench", cluster.service_port,
                        use_cache=False)
    caps = []
    for i in range(3):
        cap = client.create_file(b"file%d" % i)
        setup = client.begin(cap)
        for j in range(4):
            setup.append_page(ROOT, b"p%d" % j)
        setup.commit()
        caps.append(cap)

    def workload():
        for op in range(ops):
            cap = caps[op % len(caps)]
            update = client.begin(cap)
            update.write(PagePath.of(op % 4), b"op%d" % op)
            update.commit()

    costs = _costs_around(cluster, workload)
    return {
        "shards": shards,
        "ops": ops,
        "total": costs,
        "per_op": {key: round(value / ops, 2) for key, value in costs.items()},
    }


def measure_hot_reads(files: int = 4, rounds: int = 16) -> dict:
    """Repeated reads of a warm working set, with and without leases.

    The leased client warms its cache once, then every further read is
    served locally while the lease is live — the gate holds the leased
    series at exactly 0 messages per read.  The leaseless client pays a
    validation round-trip per read, the seed's best case."""

    def series(lease_ticks: int | None) -> dict:
        cluster = build_cluster(seed=13)
        client = FileClient(cluster.network, "bench", cluster.service_port,
                            lease_ticks=lease_ticks)
        caps = [client.create_file(b"hot%d" % i) for i in range(files)]
        for i, cap in enumerate(caps):
            update = client.begin(cap)
            update.write(ROOT, b"hot data %d" % i)
            update.commit()
        # Warm the cache (and grant the leases) outside the measurement.
        for cap in caps:
            client.read(cap)

        def workload():
            for _ in range(rounds):
                for i, cap in enumerate(caps):
                    assert client.read(cap) == b"hot data %d" % i

        costs = _costs_around(cluster, workload)
        reads = rounds * files
        return {
            "reads": reads,
            "total": costs,
            "per_read": {
                key: round(value / reads, 4) for key, value in costs.items()
            },
        }

    return {
        "files": files,
        "rounds": rounds,
        "leased": series(lease_ticks=1_000_000),
        "leaseless": series(lease_ticks=None),
    }


# ---------------------------------------------------------------------------
# the two trajectory files
# ---------------------------------------------------------------------------


def bench_commit() -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "fast_commit": {str(n): measure_fast_commit(n) for n in (1, 8, 64)},
        "group_commit": measure_group_commit(),
        # Metrics the CI gate holds against this committed baseline:
        # more than TOLERANCE_PCT percent higher fails the build.
        "gate": [
            "fast_commit.64.messages",
            "fast_commit.64.ticks",
            "group_commit.grouped.messages",
            "group_commit.grouped.stable_writes",
            "group_commit.grouped.ticks",
        ],
    }


def bench_scale() -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "sharded_updates": measure_scale(),
        "hot_reads": measure_hot_reads(),
        "gate": [
            "sharded_updates.per_op.messages",
            "sharded_updates.per_op.ticks",
            # A leased hot-set read must stay a zero-message operation:
            # the baseline is 0, and compare() fails any nonzero value.
            "hot_reads.leased.per_read.messages",
            "hot_reads.leaseless.per_read.messages",
        ],
    }


def measure_rebalance(shards: int = 4, files: int = 3, pages: int = 4) -> dict:
    """Live migration of one shard under a concurrent read workload.

    A reader task and the migration generator interleave round-robin on
    the deterministic scheduler; every read's logical-tick latency is
    recorded.  The interesting numbers: how many pages streamed while
    traffic ran versus inside the cutover fence (the stall window), the
    message cost of the whole reshape, and the client-visible p99 read
    latency — the read that eats the ``PlacementStale`` retry after the
    epoch bump shows up in the tail, and the gate keeps it bounded."""
    from repro.block.rebalance import migrate_steps
    from repro.capability import new_port
    from repro.obs import Recorder
    from repro.sim.sched import Scheduler

    recorder = Recorder()
    # cache_capacity=1: reads actually reach the block layer, so the
    # reader feels the placement change instead of its page cache.
    cluster = build_sharded_cluster(
        shards=shards, seed=17, cache_capacity=1, recorder=recorder
    )
    fs = cluster.fs()
    caps = []
    for i in range(files):
        cap = fs.create_file(b"reb%d" % i)
        handle = fs.create_version(cap)
        for j in range(pages):
            fs.append_page(handle.version, ROOT, b"p%d.%d" % (i, j))
        fs.commit(handle.version)
        caps.append(cap)
    currents = [fs.current_version(cap) for cap in caps]

    service = cluster.shards
    stalls: list[int] = []
    done = {}

    def reader(rounds: int = 40):
        clock = cluster.clock
        for r in range(rounds):
            for i, current in enumerate(currents):
                before = clock.now
                data = fs.read_page(current, PagePath.of(r % pages))
                assert data == b"p%d.%d" % (i, r % pages), data
                stalls.append(clock.now - before)
                yield

    def migrator():
        report = yield from migrate_steps(
            service, 0, new_port(cluster.rng), node="bench-rebalancer"
        )
        done["report"] = report

    messages0 = cluster.network.stats.messages
    ticks0 = cluster.clock.now
    scheduler = Scheduler()
    scheduler.spawn("reader", reader())
    scheduler.spawn("migrator", migrator())
    scheduler.run()
    report = done["report"]
    assert report.epoch == 2, report

    ordered = sorted(stalls)
    p99 = ordered[int(0.99 * (len(ordered) - 1))]
    return {
        "shards": shards,
        "reads": len(stalls),
        "migration": {
            "pages_streamed": report.blocks_streamed,
            "cutover_blocks": report.cutover_blocks,
            "delta_rounds": report.delta_rounds,
            "messages": cluster.network.stats.messages - messages0,
            "ticks": cluster.clock.now - ticks0,
        },
        "reads_during_migration": {
            "p99_ticks": p99,
            "max_ticks": ordered[-1],
            "mean_ticks": round(sum(ordered) / len(ordered), 2),
        },
    }


def bench_rebalance() -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "live_migration": measure_rebalance(),
        "gate": [
            "live_migration.migration.pages_streamed",
            "live_migration.migration.messages",
            "live_migration.migration.ticks",
            "live_migration.reads_during_migration.p99_ticks",
        ],
    }


def bench_net() -> dict:
    """The wire-transport benchmark (real sockets).

    Only the deterministic half is gated: the sequential message-count
    parity between sim and the TCP daemons (``mismatch`` must stay 0,
    the absolute counts within tolerance).  The contended latency
    numbers are wall-clock on shared CI machines and are reported, not
    gated — the committed baseline records the contended read tail.
    """
    from repro.workloads.netbench import netbench_document

    return netbench_document(schema=SCHEMA_VERSION)


def bench_disk() -> dict:
    """The durable-disk benchmark (real files, real fsyncs).

    Gated half: the deterministic sync/write/message counters of the
    untuned and fixed-batch passes.  The sync-cost-tuned pass and the
    commits/sec speedup are wall-clock on whatever medium CI mounts —
    committed as the record of the tuning claim, reported, not gated.
    """
    from repro.workloads.diskbench import diskbench_document

    return diskbench_document(schema=SCHEMA_VERSION)


def bench_contention() -> dict:
    """The contention battery (semantic merges on vs off).

    Gated half: every history-checker verdict, every merge-on conflict
    count, the deterministic merge-off abort canaries, the sim/TCP final-
    state parity bit, and the two headline regression indicators — 0 means
    "merging strictly lowers the abort rate / strictly raises goodput on
    the hot-directory workload", and the gate pins them at 0.  Only the
    TCP pass's wall seconds are unguarded.
    """
    from repro.workloads.contention import contention_document

    return contention_document(schema=SCHEMA_VERSION)


BENCHES = {
    "BENCH_commit.json": bench_commit,
    "BENCH_scale.json": bench_scale,
    "BENCH_rebalance.json": bench_rebalance,
    "BENCH_net.json": bench_net,
    "BENCH_disk.json": bench_disk,
    "BENCH_contention.json": bench_contention,
}


# ---------------------------------------------------------------------------
# gate plumbing
# ---------------------------------------------------------------------------


def resolve(data: dict, dotted: str):
    node = data
    for part in dotted.split("."):
        node = node[part]
    return node


def deterministic_view(document: dict) -> dict:
    """The document minus the subtrees it declares as wall-clock
    measurements (its ``wallclock`` path list).  Gated metrics are
    always deterministic; the wall-clock subtrees are committed as a
    record of a claim but cannot be regenerated bit-for-bit, so
    staleness checks compare this view instead."""
    pruned = json.loads(json.dumps(document))
    for dotted in document.get("wallclock", []):
        node = pruned
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.get(part)
            if not isinstance(node, dict):
                break
        else:
            node.pop(parts[-1], None)
    return pruned


def compare(baseline: dict, fresh: dict, name: str) -> list[str]:
    """Regressions of gated metrics, as human-readable failure lines."""
    failures = []
    for dotted in baseline.get("gate", []):
        old = resolve(baseline, dotted)
        new = resolve(fresh, dotted)
        if old == 0:
            if new != 0:
                failures.append(f"{name}: {dotted} regressed 0 -> {new}")
            continue
        worse_pct = 100.0 * (new - old) / old
        if worse_pct > TOLERANCE_PCT:
            failures.append(
                f"{name}: {dotted} regressed {old} -> {new} "
                f"(+{worse_pct:.1f}%, tolerance {TOLERANCE_PCT:.0f}%)"
            )
    return failures


def write_baselines(out: pathlib.Path) -> None:
    for filename, produce in BENCHES.items():
        path = out / filename
        path.write_text(json.dumps(produce(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


def check_baselines(out: pathlib.Path) -> int:
    failures: list[str] = []
    for filename, produce in BENCHES.items():
        path = out / filename
        if not path.exists():
            print(f"MISSING baseline {path} — run bench_json.py to create it")
            return 2
        baseline = json.loads(path.read_text())
        fresh = produce()
        failures.extend(compare(baseline, fresh, filename))
        for dotted in baseline.get("gate", []):
            old, new = resolve(baseline, dotted), resolve(fresh, dotted)
            marker = "=" if new == old else ("<" if new < old else ">")
            print(f"  {filename}: {dotted}: {old} {marker} {new}")
    if failures:
        print("\nBENCH GATE FAILED:")
        for line in failures:
            print("  " + line)
        return 1
    print("bench gate ok")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(HERE), help="baseline directory")
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare fresh measurements against committed baselines",
    )
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)
    if args.check:
        return check_baselines(out)
    out.mkdir(parents=True, exist_ok=True)
    write_baselines(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
