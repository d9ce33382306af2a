"""Wall-clock benchmark of the served file service.

Usage (from the repository root)::

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

This process is the load generator.  It starts the real product, ``python
-m repro serve --data-dir <dir>`` (2 file servers, threaded daemons, the
durable file-backed disk), as one server process, then drives it with two
client threads, each a ``FileClient`` over ``repro.net.connect``, in a
closed loop.  The op stream comes from ``--seed``; the server only sees
the generated operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
workload twice, untraced and then with every layer wrapped (see
``tracer.py``), and prints the per-layer metrics, the tracing overhead and
the check of traced call counts against the program's own counters.

Every run is checked outside its timed window: each page is read back and
compared with the last acknowledged write, then the server is SIGKILLed,
restarted on the same data dir, and every page is read again.  Mismatches,
raised errors and lost writes count as failed operations.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give each
metric with its sample count, the host-noise record and the cross-check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import layers  # noqa: E402
from tracer import Tracer, install_client  # noqa: E402
from workloads import CLIENTS, WORKLOADS, Model, OpStream, Workload  # noqa: E402

# Seconds of load before each window opens: connections, caches and the
# server's current-version hints settle first.
WARMUP_S = 0.5
# Operations each client runs after set-up, before the server is killed
# and restarted: memory, stored bytes and recovery are measured on the
# state this fixed amount of work leaves, not on what the timed window
# happened to complete.
WORKLOAD_OPS = 20
# Deployments per untraced run, each with its own set-up, warm-up work,
# restart, share of the window and final restart; the reported figures
# are medians over them.
DEPLOYMENTS = 2
# After the window every page is read back at least this many times in
# all; on the commit workloads, which issue no reads in the window, this
# sweep gives the read figures.
READ_SWEEP_MIN = 1024
# Long enough for ``repro serve``'s 0.2 s TABLE checkpoint loop to write
# the file table: the sweep then times reads alone, and a SIGKILL finds
# every created file in the table.
CHECKPOINT_SETTLE_S = 0.3
# Commits of the single-client pass in the traced run.
SINGLE_COMMITS = 40
SPAWN_TIMEOUT_S = 60.0


# The bounded metrics are costs the program pays per unit of work, and
# set-up time in CPU seconds.  On a shared 2-vCPU virtual machine the
# speed of a CPU-second drifts by a fifth to a third over tens of
# seconds, so every timing of an operation, wall-clock or CPU, spreads by
# about a quarter between runs of the same code; those are printed, with
# their sample counts, but not bounded (see README.md).
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_trips_per_op": "count",
    "disk_writes_per_commit": "count",
    "disk_bytes_per_user_byte": "B/B",
    "server_rss_mb": "MB",
    "stored_bytes_per_user_byte": "B/B",
}
REPORT_ONLY_UNITS = {
    "setup_wall_s": "s",
    "cpu_ms_per_op": "ms",
    "commit_per_s": "1/s",
    "commit_p50_ms": "ms",
    "commit_p90_ms": "ms",
    "read_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "recover_wall_s": "s",
}


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on a data dir (traced when given a
    span output path)."""

    def __init__(self, data_dir: Path, log_dir: Path, spans_out: Path | None = None):
        self.data_dir = data_dir
        self.log_dir = log_dir
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None

    def start(self) -> str:
        serve = ["--data-dir", str(self.data_dir)]
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            cmd = [sys.executable, str(BENCH / "traced_serve.py"),
                   str(self.spans_out), *serve]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log_dir / "server.err", "ab") as err:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env,
                text=True,
            )
        # A server that never prints its spec is killed; the read below
        # then ends at EOF.
        watchdog = threading.Timer(SPAWN_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("REPRO_SPEC="):
                    return line.strip().split("=", 1)[1]
        finally:
            watchdog.cancel()
        raise RuntimeError("server exited before printing its spec")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL and reap."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def interrupt(self) -> None:
        """SIGINT (clean shutdown; a traced server writes its spans)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()


# ---------------------------------------------------------------------------
# the load process
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    errors: int = 0
    mismatches: int = 0
    lost: int = 0
    notes: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, attempted: int = 0, errors: int = 0, mismatches: int = 0,
            lost: int = 0, note: str | None = None) -> None:
        with self._lock:
            self.attempted += attempted
            self.errors += errors
            self.mismatches += mismatches
            self.lost += lost
            if note is not None and len(self.notes) < 20:
                self.notes.append(note)

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches + self.lost


def run_threads(fn: Callable[[int], Any], count: int = CLIENTS) -> list[Any]:
    """Run ``fn(i)`` on ``count`` threads; re-raise the first failure."""
    results: list[Any] = [None] * count
    failures: list[BaseException] = []

    def body(i: int) -> None:
        try:
            results[i] = fn(i)
        except BaseException as exc:  # re-raised in the caller below
            failures.append(exc)

    threads = [
        threading.Thread(target=body, args=(i,), daemon=True) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return results


class Deployment:
    """A server plus the load process's view of it: clients, file
    capabilities, the expected-state model and the op streams."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, tally: Tally,
                 networks: list | None = None):
        self.workload = workload
        self.work_dir = work_dir
        self.tally = tally
        self.networks = networks
        self.model = Model(workload, seed)
        self.streams = [OpStream(workload, seed, c) for c in range(CLIENTS)]
        self.seqs: dict[int, int] = {}
        self.caps: list = [None] * workload.files
        self.server: Server | None = None
        self.clients: list = []
        self.client_networks: list = []
        self.user_bytes = 0
        self._bytes_lock = threading.Lock()
        # What set-up actually built, for the report's sizes line.
        self.layout: dict[str, int] = {}

    # -- server lifecycle ------------------------------------------------------

    def spawn(self, spans_out: Path | None = None) -> None:
        self.server = Server(self.work_dir / "data", self.work_dir, spans_out)
        spec = self.server.start()
        self.client_networks = []
        self.clients = [self.open_client(spec, c) for c in range(CLIENTS)]

    def open_client(self, spec: str, index: int):
        from repro.client.api import FileClient
        from repro.net import connect

        network, port = connect(spec)
        self.client_networks.append(network)
        if self.networks is not None:
            self.networks.append(network)
        return FileClient(network, f"bench-client-{index}", port)

    def stop(self) -> None:
        if self.server is not None:
            self.server.kill()

    def add_user_bytes(self, amount: int) -> None:
        with self._bytes_lock:
            self.user_bytes += amount

    # -- set-up ------------------------------------------------------------------

    def build(self) -> None:
        """Create every file with its pages (sequence-0 content)."""
        from repro.core.pathname import PagePath

        w = self.workload

        def work(c: int) -> None:
            client = self.clients[c]
            mine = [
                f for f in range(w.files)
                if (f % CLIENTS if w.shared_files else w.owner(f, 0)) == c
            ]
            for f in mine:
                pages = [self.model.expected(w.page_id(f, p))
                         for p in range(w.pages_per_file)]
                cap = client.create_file(b"")
                client.transact(
                    cap,
                    lambda u, pages=pages: [
                        u.append_page(PagePath.ROOT, data) for data in pages
                    ],
                )
                self.caps[f] = cap
                self.add_user_bytes(sum(len(p) for p in pages))
                self.tally.add(attempted=2)

        run_threads(work)
        self.layout = {
            "files_built": sum(1 for cap in self.caps if cap is not None),
            "setup_bytes": self.user_bytes,
        }

    # -- operations ----------------------------------------------------------------

    def commit(self, client, c: int, file: int, pages: tuple[int, ...]) -> bool:
        from repro.core.pathname import PagePath
        from repro.errors import ReproError

        w = self.workload
        writes = []
        for page in pages:
            pid = w.page_id(file, page)
            seq = self.seqs.get(pid, 0) + 1
            self.seqs[pid] = seq
            value = self.streams[c].payload(pid, seq)
            self.model.issue(pid, seq, value)
            writes.append((pid, seq, PagePath.of(page), value))
        try:
            client.transact(
                self.caps[file],
                lambda u: [u.write(path, value) for _, _, path, value in writes],
            )
        except ReproError as exc:
            for pid, seq, _, _ in writes:
                self.model.fail(pid, seq)
            self.tally.add(attempted=1, errors=1, note=f"commit failed: {exc!r}")
            return False
        for pid, seq, _, _ in writes:
            self.model.ack(pid, seq)
        self.add_user_bytes(sum(len(value) for *_, value in writes))
        self.tally.add(attempted=1)
        return True

    def read(self, client, file: int, page: int, quiet: bool,
             after_restart: bool = False) -> bool:
        from repro.core.pathname import PagePath
        from repro.errors import ReproError

        pid = self.workload.page_id(file, page)
        floor = self.model.floor(pid)
        try:
            data = client.snapshot_read(self.caps[file], PagePath.of(page))
        except ReproError as exc:
            self.tally.add(attempted=1, errors=1, note=f"read failed: {exc!r}")
            return False
        good = (self.model.check_quiet(pid, data) if quiet
                else self.model.check_live(pid, floor, data))
        if not good:
            if after_restart:
                self.tally.add(attempted=1, lost=1,
                               note=f"page {pid}: acknowledged write lost")
            else:
                self.tally.add(attempted=1, mismatches=1,
                               note=f"page {pid}: read differs from the model")
            return False
        self.tally.add(attempted=1)
        return True

    # -- phases ------------------------------------------------------------------

    def closed_loop(self, seconds: float, warmup: float, tracer=None,
                    ops: int | None = None) -> "Window":
        """Both clients run the workload's op stream; returns what
        completed inside [start + warmup, start + warmup + seconds), with
        the counters at both edges.  With ``ops``, each client instead
        runs exactly that many operations."""
        start = time.monotonic_ns()
        w0 = start + int(warmup * 1e9)
        w1 = w0 + int(seconds * 1e9)
        records: list[list[tuple]] = [[] for _ in range(CLIENTS)]

        def work(c: int) -> None:
            client = self.clients[c]
            stream = self.streams[c]
            out = records[c]
            op_id = c << 32
            def more() -> bool:
                if ops is not None:
                    return len(out) < ops
                return time.monotonic_ns() < w1

            while more():
                op = stream.next()
                op_id += 1
                if tracer is not None:
                    tracer.set_op(op_id)
                redos = client.stats.redos
                t0 = time.monotonic_ns()
                if op.kind == "commit":
                    ok = self.commit(client, c, op.file, op.pages)
                    size = len(op.pages) * self.workload.page_bytes
                else:
                    ok = self.read(client, op.file, op.pages[0], quiet=False)
                    size = 0
                out.append((op.kind, t0, time.monotonic_ns(), ok, size,
                            client.stats.redos - redos))

        edges: list[dict[str, float]] = []

        def sample() -> None:
            for edge in (w0, w1):
                time.sleep(max(0.0, (edge - time.monotonic_ns()) / 1e9))
                edges.append(self.counters())

        sampler = threading.Thread(target=sample, daemon=True)
        if ops is None:
            sampler.start()
        run_threads(work)
        if ops is None:
            sampler.join()
            used = {name: edges[1][name] - edges[0][name] for name in edges[0]}
        else:
            w0, w1, used = start, time.monotonic_ns(), {}
        return Window(w0, w1, [r for rs in records for r in rs], used)

    def counters(self) -> dict[str, float]:
        """Running totals: CPU seconds of the server process plus this load
        process (the kernel leaves out time the hypervisor stole), the
        server's write calls and bytes into its files, and the clients'
        request/reply round trips."""
        pid = self.server.proc.pid
        io = proc_io(pid)
        return {
            "cpu_s": proc_cpu_s(pid) + time.process_time(),
            "disk_writes": io["syscw"],
            "disk_bytes": io["wchar"],
            "round_trips": sum(n.stats.messages for n in self.client_networks) / 2,
        }

    def read_back(self, passes: int = 1, after_restart: bool = False) -> "Window":
        """Both clients read every page ``passes`` times with no writer
        running; each value must be exactly the last acknowledged one
        (after a restart, a page that differs is a lost write)."""
        w = self.workload
        pages = [(f, p) for f in range(w.files) for p in range(w.pages_per_file)]
        records: list[list[tuple]] = [[] for _ in range(CLIENTS)]
        start = time.monotonic_ns()

        def work(c: int) -> None:
            client = self.clients[c]
            for _ in range(passes):
                for f, p in pages[c::CLIENTS]:
                    t0 = time.monotonic_ns()
                    ok = self.read(client, f, p, quiet=True,
                                   after_restart=after_restart)
                    records[c].append(("read", t0, time.monotonic_ns(), ok, 0, 0))

        run_threads(work)
        return Window(start, time.monotonic_ns(), [r for rs in records for r in rs])

    def kill_and_restart(self) -> tuple[float, int]:
        """SIGKILL the server, take the size of its data dir (nothing
        writes to it then), restart it on the same data dir, and time
        restart-to-first-successful-read.  Returns (recovery seconds,
        data-dir bytes)."""
        from repro.core.pathname import PagePath
        from repro.errors import ReproError

        self.server.kill()
        stored = self.data_bytes()
        started = time.monotonic()
        self.spawn()
        deadline = started + SPAWN_TIMEOUT_S
        while True:
            try:
                self.clients[0].snapshot_read(self.caps[0], PagePath.of(0))
                break
            except ReproError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        recover = time.monotonic() - started
        return recover, stored

    def data_bytes(self) -> int:
        total = 0
        for folder, _, files in os.walk(self.work_dir / "data"):
            for name in files:
                total += os.path.getsize(os.path.join(folder, name))
        return total


@dataclass
class Window:
    """Operation records ``(kind, start ns, end ns, ok, user bytes,
    redos)`` and the interval that counts."""

    start: int
    end: int
    records: list[tuple]
    # What each of ``Deployment.counters`` grew by inside the interval.
    used: dict[str, float] = field(default_factory=dict)

    def _inside(self) -> list[tuple]:
        return [r for r in self.records if r[3] and self.start <= r[2] < self.end]

    def latencies_ms(self, kind: str) -> list[float]:
        return [
            (t1 - t0) / 1e6 for k, t0, t1, ok, *_ in self.records
            if k == kind and ok and t0 >= self.start and t1 <= self.end
        ]

    def completed(self, kind: str) -> int:
        return sum(1 for r in self._inside() if r[0] == kind)

    def total(self, field_name: str) -> int:
        index = {"bytes": 4, "redos": 5}[field_name]
        return sum(r[index] for r in self._inside())

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


# ---------------------------------------------------------------------------
# one measured pass over a workload
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    metrics: dict[str, float]
    samples: dict[str, int]
    windows: list[Window]
    layout: dict[str, int]
    # CPU-steal ticks during each deployment.
    steal: list[int]
    # Every metric's value in each deployment.
    per: dict[str, list[float]]


def measure(workload: Workload, seed: int, seconds: float, run_dir: Path,
            tally: Tally, deployments: int, tracer=None,
            networks: list | None = None, after_window: Callable | None = None,
            ) -> Pass:
    """Measure ``deployments`` fresh deployments one after another, each
    getting ``seconds / deployments`` of the window.

    Each one: set up (timed), run ``WORKLOAD_OPS`` operations per client,
    take the server's peak memory, SIGKILL it, take the data dir's size,
    restart it (timed) and read every page back; then warm up, run the
    closed loop, sweep every page with reads, and SIGKILL, restart and
    read every page once more.  Every figure is a median over the
    deployments, except the commit percentiles and the read p99, which
    pool the deployments' samples.

    With ``tracer`` the server is the traced launcher, the first restart
    is left out, and ``after_window(deployment, window)`` runs before the
    server is stopped cleanly (which writes its spans); the last SIGKILL
    cycle then runs on a plain server."""
    per: dict[str, list[float]] = {
        name: [] for name in END_TO_END_UNITS | REPORT_ONLY_UNITS
    }
    commits: list[float] = []
    reads: list[float] = []
    windows: list[Window] = []
    layout: dict[str, int] = {}
    steal: list[int] = []
    for index in range(deployments):
        steal_before = host_steal()
        work_dir = run_dir / f"deploy-{index}"
        work_dir.mkdir(parents=True)
        deployment = Deployment(workload, seed, work_dir, tally, networks)
        try:
            started = time.monotonic()
            load_cpu = time.process_time()
            deployment.spawn(run_dir / "server-spans.json" if tracer else None)
            deployment.build()
            per["setup_wall_s"].append(time.monotonic() - started)
            # The server's whole life so far plus the load process's share.
            per["setup_s"].append(deployment.counters()["cpu_s"] - load_cpu)
            layout = deployment.layout
            deployment.closed_loop(0, 0, tracer, ops=WORKLOAD_OPS)
            per["server_rss_mb"].append(deployment.server.peak_rss_mb())
            if tracer is None:
                # Let the 0.2 s TABLE checkpoint record the last file
                # created: ``repro serve`` loses a file created less than
                # one checkpoint before a SIGKILL (see README.md).
                time.sleep(CHECKPOINT_SETTLE_S)
                recover, stored = deployment.kill_and_restart()
                per["recover_wall_s"].append(recover)
                per["stored_bytes_per_user_byte"].append(
                    stored / deployment.user_bytes
                )
                deployment.read_back(after_restart=True)
            window = deployment.closed_loop(seconds / deployments, WARMUP_S, tracer)
            windows.append(window)
            used = window.used
            ops = window.completed("commit") + window.completed("read")
            commit_count = max(1, window.completed("commit"))
            per["round_trips_per_op"].append(used["round_trips"] / max(1, ops))
            per["disk_writes_per_commit"].append(used["disk_writes"] / commit_count)
            per["disk_bytes_per_user_byte"].append(
                used["disk_bytes"] / max(1, window.total("bytes"))
            )
            per["cpu_ms_per_op"].append(used["cpu_s"] * 1e3 / max(1, ops))
            per["commit_per_s"].append(window.completed("commit") / window.seconds)
            commits += window.latencies_ms("commit")
            # The sweep starts once the TABLE checkpoint has written the
            # window's last commit, so it times reads alone.
            time.sleep(CHECKPOINT_SETTLE_S)
            sweep = deployment.read_back(
                math.ceil(READ_SWEEP_MIN / workload.total_pages)
            )
            read_window = window if window.latencies_ms("read") else sweep
            read_ms = read_window.latencies_ms("read")
            reads += read_ms
            per["read_p50_ms"].append(layers.percentile(read_ms, 0.50))
            per["read_per_s"].append(
                read_window.completed("read") / read_window.seconds
            )
            if after_window is not None:
                after_window(deployment, window)
                deployment.server.interrupt()
                deployment.spawn()
                deployment.read_back()
            deployment.kill_and_restart()
            deployment.read_back(after_restart=True)
        finally:
            deployment.stop()
        shutil.rmtree(work_dir)
        steal.append(host_steal() - steal_before)

    per["commit_p50_ms"].append(layers.percentile(commits, 0.50))
    per["commit_p90_ms"].append(layers.percentile(commits, 0.90))
    per["read_p99_ms"].append(layers.percentile(reads, 0.99))
    metrics = {
        name: statistics.median(values) if values else math.nan
        for name, values in per.items()
    }
    samples = {name: len(values) for name, values in per.items()}
    for name in ("commit_p50_ms", "commit_p90_ms"):
        samples[name] = len(commits)
    for name in ("read_p50_ms", "read_p99_ms"):
        samples[name] = len(reads)
    return Pass(metrics, samples, windows, layout, steal, per)


# ---------------------------------------------------------------------------
# host noise
# ---------------------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a process, all its threads."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_io(pid: int) -> dict[str, int]:
    """A process's I/O counters (``/proc/<pid>/io``): ``syscw`` and
    ``wchar`` count write calls and bytes into files; socket traffic,
    which goes through send/recv, is not in them."""
    with open(f"/proc/{pid}/io") as fh:
        return {k: int(v) for k, v in (line.split(":") for line in fh)}


def host_steal() -> int:
    """CPU-steal ticks of all CPUs so far."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def host_sample() -> dict[str, float]:
    """CPU steal ticks so far, one fixed calibration loop's time, and the
    load average.  Recorded to explain spread; never used to adjust."""
    steal = host_steal()
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    calibration_ms = (time.perf_counter() - started) * 1e3
    with open("/proc/loadavg") as fh:
        load1 = float(fh.read().split()[0])
    return {"steal_ticks": steal, "calibration_ms": calibration_ms, "load1": load1}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def run_untraced(workload: Workload, seed: int, seconds: float, run_dir: Path,
                 tally: Tally, report: list[str]) -> tuple[dict[str, float], dict]:
    result = measure(workload, seed, seconds, run_dir, tally, DEPLOYMENTS)
    for name, unit in (END_TO_END_UNITS | REPORT_ONLY_UNITS).items():
        note = " report only" if name in REPORT_ONLY_UNITS else ""
        each = " ".join(f"{v:.4g}" for v in result.per[name])
        report.append(
            f"{name:28s} {result.metrics[name]:12.4f} {unit:4s} "
            f"(n={result.samples[name]}; per deployment {each}){note}"
        )
    report.append(f"steal ticks per deployment: {result.steal}")
    return result.metrics, result.layout


def run_traced(workload: Workload, seed: int, seconds: float, run_dir: Path,
               tally: Tally, report: list[str]) -> tuple[dict[str, float], dict]:
    plain = measure(workload, seed, seconds, run_dir / "plain", tally,
                    deployments=1)

    tracer = Tracer()
    networks: list = []
    single: dict[str, int] = {}

    def single_client_pass(deployment: Deployment, window: Window) -> None:
        """One client, commits only, nothing else running."""
        stream = deployment.streams[0]
        client = deployment.clients[0]
        single["start"] = time.monotonic_ns()
        for op_id in range(1 << 40, (1 << 40) + SINGLE_COMMITS):
            op = stream.next()
            while op.kind != "commit":
                op = stream.next()
            tracer.set_op(op_id)
            deployment.commit(client, 0, op.file, op.pages)
        single["end"] = time.monotonic_ns()

    traced_dir = run_dir / "traced"
    install_client(tracer)
    try:
        traced = measure(workload, seed, seconds, traced_dir, tally,
                         deployments=1, tracer=tracer, networks=networks,
                         after_window=single_client_pass)
    finally:
        tracer.restore()
    server_doc = json.loads((traced_dir / "server-spans.json").read_text())
    client_doc = tracer.document()
    client_spans = layers.spans_of(client_doc)
    server_spans = layers.spans_of(server_doc, client_doc)
    window = traced.windows[0]
    metrics = layers.layer_metrics(
        client_spans, server_spans, (window.start, window.end),
        commits=window.completed("commit"),
        reads=window.completed("read"),
        user_bytes=window.total("bytes"),
        redos=window.total("redos"),
    )
    single_metrics, per_commit = layers.single_client_metrics(
        client_spans, server_spans, (single["start"], single["end"])
    )
    metrics.update(single_metrics)
    checks = layers.cross_check(
        client_spans, sum(n.stats.messages for n in networks), server_doc,
        server_spans,
    )
    metrics["trace.counter_mismatches"] = float(
        sum(1 for traced_count, own in checks.values() if traced_count != own)
    )
    metrics["trace.overhead_commit_per_s"] = (
        plain.metrics["commit_per_s"] - traced.metrics["commit_per_s"]
    )
    metrics["trace.overhead_read_p50_ms"] = (
        traced.metrics["read_p50_ms"] - plain.metrics["read_p50_ms"]
    )
    for name, unit in layers.PER_LAYER_UNITS.items():
        report.append(f"{name:36s} {metrics[name]:14.4f} {unit}")
    report.append(
        "tracing overhead: commit_per_s %.2f untraced vs %.2f traced; "
        "read_p50_ms %.4f untraced vs %.4f traced" % (
            plain.metrics["commit_per_s"], traced.metrics["commit_per_s"],
            plain.metrics["read_p50_ms"], traced.metrics["read_p50_ms"],
        )
    )
    for check, (traced_count, own) in checks.items():
        verdict = "ok" if traced_count == own else "MISMATCH"
        report.append(
            f"cross-check {check}: traced {traced_count}, program {own} {verdict}"
        )
    report.append(
        "single-client pass: client messages per commit %s; server %.2f per "
        "commit, plus TABLE-checkpoint traffic %.2f messages/s" % (
            sorted(set(per_commit)),
            single_metrics["single.server_messages_per_commit"],
            single_metrics["single.checkpoint_messages_per_s"],
        )
    )
    return metrics, traced.layout


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        run_dir: Path) -> tuple[dict, list[str]]:
    """One benchmark run; returns (the result object, report lines)."""
    tally = Tally()
    report = [
        f"workload {workload.name} seed {seed} seconds {seconds} "
        f"trace {int(trace)}",
    ]
    before = host_sample()
    if trace:
        metrics, layout = run_traced(workload, seed, seconds, run_dir, tally,
                                     report)
        units = layers.PER_LAYER_UNITS
        # The traced run is wrong if its wrappers missed calls or
        # background work leaked into a single-client commit.
        trace_ok = (metrics["trace.counter_mismatches"] == 0
                    and metrics["single.client_messages_spread"] == 0)
    else:
        metrics, layout = run_untraced(workload, seed, seconds, run_dir, tally,
                                       report)
        units = END_TO_END_UNITS
        trace_ok = True
    after = host_sample()
    report.insert(1, "sizes " + json.dumps(workload.sizes() | layout,
                                           sort_keys=True))
    report.append(
        "host: steal %d ticks during run; calibration loop %.1f ms before, "
        "%.1f ms after; load average %.2f before, %.2f after" % (
            after["steal_ticks"] - before["steal_ticks"],
            before["calibration_ms"], after["calibration_ms"],
            before["load1"], after["load1"],
        )
    )
    report.append(
        f"operations: {tally.attempted} attempted, {tally.errors} raised, "
        f"{tally.mismatches} wrong values, {tally.lost} lost after restart; "
        f"failed_ratio {tally.failed / max(1, tally.attempted):.6f}"
    )
    report.extend("  " + note for note in tally.notes)
    result = {
        "correct": tally.mismatches == 0 and tally.lost == 0 and trace_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, report


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"no file service sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = ROOT / ".wallbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # SIGTERM unwinds like an exception, so every server is still reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result, report = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            run_dir,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
