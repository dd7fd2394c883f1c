#!/usr/bin/env python3
"""procmine benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload mine_text --seed 1 --seconds 10 --trace 0

Run from the root of a procmine checkout. The first run builds the shipped
`procmine` CLI and the benchmark's own `pbench` binary (Release) into
$CARGO_TARGET_DIR (default .bench_build). Every input is generated from
--seed; the program only ever sees the generated files.

--trace 0 measures the end-to-end metrics on the shipped binary with tracing
off. --trace 1 is the separate traced run: `pbench layers` links the library
and times each layer from outside, around its public calls, and the run
prints a self-time ledger that adds up to the traced wall time.

Human-readable lines (environment stamp, metric table, ledger) come first;
the last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
See perfbench/README.md for the workloads and the metric catalog.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mine_text", "mine_store", "serve_feed")
RUN_LIMIT_S = 170  # a run must exit within 180 s; the build is exempt

# Input sizes. "full" is the benchmark; "tiny" is for smoke_test.py.
# The serve metrics come from three-tenant traffic: synth logs of 20, 40 and
# 100 activities (`tenant_executions` each, seeded from the workload's seed),
# of which a server life feeds the first `feed_executions`. On serve_feed,
# lives repeat for `serve_share` of --seconds and mine passes take the rest;
# before each life, `setup_lives` open-only lives time set-up. The batch
# workloads serve only in the traced run, where every layer is timed.
SCALES = {
    "full": {
        "mine_text": {"activities": 100, "executions": 100000},
        "mine_store": {"activities": 100, "executions": 240000,
                       "resident_mb": 64, "segment_events": None},
        "serve_feed": {"serve_share": 0.5, "setup_lives": 5},
        "tenants": (20, 40, 100),
        "tenant_executions": 60000,
        "feed_executions": 5000,  # 50 batches per tenant per server life
        "query_every": 10,
        "setups": 3,
    },
    "tiny": {
        "mine_text": {"activities": 12, "executions": 1500},
        "mine_store": {"activities": 12, "executions": 3000,
                       "resident_mb": 1, "segment_events": 4096},
        "serve_feed": {"serve_share": 0.5, "setup_lives": 2},
        "tenants": (6, 8, 12),
        "tenant_executions": 1000,
        "feed_executions": 1000,
        "query_every": 5,
        "setups": 2,
    },
}
BATCH_EXECUTIONS = 100
THREADS = 4

# Units of every metric this benchmark prints. The result line carries the
# GATED end-to-end metrics (BENCHMARK.json lists them with their bounds) and,
# when traced, every per-layer metric. The other end-to-end metrics and
# failed_frac (the result line's failed/attempted) are printed in the table
# only: on a shared 4-vCPU VM their run-to-run spread is wider than the
# largest bound a gated metric may have (see README.md).
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "wall_s_t1": "s", "calib_s": "s",
    "wall_t1_rel": "ratio", "peak_rss_mb": "MiB",
    "ack_p50_ms": "ms", "ack_p99_ms": "ms", "acked_exec_per_s": "exec/s",
    "query_p50_ms": "ms", "recover_s": "s",
}
GATED = ("setup_s", "wall_t1_rel", "peak_rss_mb")
BATCH_END_TO_END = ("setup_s", "wall_s", "wall_s_t1", "calib_s", "wall_t1_rel",
                    "peak_rss_mb")
PER_LAYER = {
    "log.read.s": "s", "log.read.cores": "cores", "log.read.mb_per_s": "MB/s",
    "mine.collect.s": "s", "mine.collect.cores": "cores",
    "mine.collect.pairs": "count", "mine.graph.s": "s", "mine.algo2.s": "s",
    "mine.reduce.s": "s", "mine.reduce.cores": "cores",
    "mine.reduce.distinct_sets": "count", "mine.reduce.memo_hit_ratio": "ratio",
    "mine.emit.s": "s", "log.store_write.s": "s",
    "log.segment.decode.s": "s", "log.segment.mb_per_s": "MB/s",
    "log.segment.loads": "count", "log.segment.hit_ratio": "ratio",
    "log.segment.peak_resident_mb": "MiB", "mine.ooc.s": "s",
    "mine.ooc.cores": "cores", "mine.ooc.windows": "count",
    "mine.ooc.self_s": "s", "serve.decode.p50_ms": "ms",
    "serve.apply.p50_ms": "ms", "serve.journal.p50_ms": "ms",
    "serve.journal.p99_ms": "ms", "serve.query.p50_ms": "ms",
    "serve.replay.s": "s", "serve.unattributed.p50_ms": "ms",
    "serve.shed_frac": "ratio", "trace.unattributed.s": "s",
    "trace.gap_frac": "ratio",
}


class BenchError(Exception):
    """A failure that stops the run without a result line."""


class Deadline(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def repeat_for(seconds, step, at_least=1):
    """Calls step() at least `at_least` times, then again while another call
    is predicted (at the mean call time so far) to end within `seconds`."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= at_least and elapsed + elapsed / done > seconds:
            return


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# --------------------------------------------------------------------------
# Build and environment


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds procmine, pbench and pbench_calib; returns their
    paths. Configuring every time (about a second once cached) picks up
    targets a changed CMakeLists.txt adds."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "serve").is_dir():
        raise BenchError(f"no procmine source tree at {ROOT}: run from a full checkout")
    cmake_dir = build_dir() / "cmake"
    configure = ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.call(configure, stdout=sys.stderr) != 0:
        raise BenchError("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.call(["cmake", "--build", str(cmake_dir), "-j", jobs,
                        "--target", "procmine_cli", "pbench", "pbench_calib"],
                       stdout=sys.stderr) != 0:
        raise BenchError("build failed")
    cache = (cmake_dir / "CMakeCache.txt").read_text()
    build_type = next((line.split("=", 1)[1] for line in cache.splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "")
    return {
        "procmine": cmake_dir / "procmine" / "tools" / "procmine",
        "pbench": cmake_dir / "pbench",
        "calib": cmake_dir / "pbench_calib",
        "build_type": build_type,
    }


def source_digest():
    """sha256 over the sources that make the measured binaries."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(bins, seed, loadavg):
    """The stamp every result carries. Refuses a build that is not optimized."""
    stamp = json.loads(subprocess.check_output([str(bins["pbench"]), "env"]))
    if not stamp["optimized"] or bins["build_type"] not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing to measure a build that is not optimized: "
                         f"build type {bins['build_type']!r}, optimized={stamp['optimized']}")
    try:
        commit = subprocess.check_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                         stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_mode": stamp["kernel_mode"],
        "build_type": bins["build_type"],
        "compiler": stamp["compiler"],
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
        "loadavg_at_start": loadavg,
    }


# --------------------------------------------------------------------------
# Processes


class Procs:
    """Every child this run starts, so a failure or the deadline stops them."""

    def __init__(self):
        self.live = []

    def spawn(self, cmd, cwd, stderr_path, stdout=subprocess.DEVNULL, cpu=None):
        """Starts `cmd`; with `cpu`, pinned to that one CPU."""
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        with open(stderr_path, "ab") as err:
            proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd, stdout=stdout,
                                    stderr=err, preexec_fn=pin)
        self.live.append(proc)
        return proc

    def reap(self, proc):
        """Waits for `proc`; returns (exit code, peak RSS in MiB)."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, cmd, cwd, stderr_path, cpu=None):
        """Runs to completion; returns (wall seconds, exit code, peak RSS MiB)."""
        start = time.perf_counter()
        proc = self.spawn(cmd, cwd, stderr_path, cpu=cpu)
        code, rss = self.reap(proc)
        return time.perf_counter() - start, code, rss

    def run_output(self, cmd, cwd, stderr_path, cpu=None):
        """Runs to completion; returns (wall seconds, exit code, stdout)."""
        start = time.perf_counter()
        proc = self.spawn(cmd, cwd, stderr_path, stdout=subprocess.PIPE, cpu=cpu)
        out = proc.stdout.read()
        code, _ = self.reap(proc)
        wall = time.perf_counter() - start
        proc.stdout.close()
        return wall, code, out

    def stop_all(self):
        for proc in list(self.live):
            proc.kill()
            proc.wait()
            self.live.remove(proc)


# --------------------------------------------------------------------------
# One run


class Run:
    def __init__(self, args, bins, work):
        self.args = args
        self.bins = bins
        self.work = work
        self.scale = SCALES[args.scale]
        self.procs = Procs()
        self.stderr = work / "stderr.log"
        self.samples = {}  # metric -> samples, in the metric's unit
        self.counts = {}   # metric -> sample count, when not len(samples)
        self.values = {}   # metric -> reported value
        self.attempted = 0
        self.failed = 0

    # -- bookkeeping

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")

    def record(self, name, value, samples, n=None):
        self.values[name] = value
        self.samples[name] = samples
        if n is not None:
            self.counts[name] = n

    def record_median(self, name, samples):
        self.record(name, median(samples), samples)

    def record_count(self, name, value):
        """A count or ratio taken once, from the first traced iteration."""
        self.record(name, value, [value])

    def procmine(self, *argv, cpu=None):
        return self.procs.run([self.bins["procmine"], *argv], self.work, self.stderr, cpu)

    def pbench(self, *argv):
        out = self.work / "pbench.json"
        out.unlink(missing_ok=True)
        _, code, _ = self.procs.run([self.bins["pbench"], *argv, f"--out={out}"],
                                    self.work, self.stderr)
        if code != 0 or not out.is_file():
            raise BenchError(f"pbench {argv[0]} exited {code}; see {self.stderr}")
        return json.loads(out.read_text())

    def seed_for(self, offset):
        return self.args.seed * 7919 + offset

    def synth(self, activities, executions, seed, out):
        wall, code, _ = self.procmine("synth", f"--activities={activities}",
                                      f"--executions={executions}", f"--seed={seed}",
                                      f"--out={out}")
        if code != 0:
            raise BenchError(f"procmine synth exited {code}")
        return wall

    def reference_dot(self, target):
        """The in-memory --threads=1 model every other pass must equal."""
        ref = self.work / "ref.dot"
        _, code, _ = self.procmine("mine", target, "--threads=1", f"--dot={ref}")
        if code != 0:
            raise BenchError(f"reference mine of {target} exited {code}")
        return ref.read_bytes()

    # -- batch mining

    def mine_passes(self, target, extra, reference, text_log, seconds, at_least=1,
                    threads_list=(THREADS, 1)):
        """Rounds of one pass per entry of `threads_list` (ABBA order), each a
        fresh process from input on disk to DOT written, for `seconds`. Next
        to each --threads=1 pass, pbench_calib runs over `text_log`; the
        pass's wall time over the calibration's is that round's ratio. Both
        run pinned to the same CPU, the next one each round: the cores of a
        shared host differ in speed from moment to moment, and a pair on one
        core sees the same speed."""
        walls = {THREADS: [], 1: [], "calib": []}
        rss = []
        dot = self.work / "pass.dot"
        calib_out = set()
        cpus = sorted(os.sched_getaffinity(0))
        os.sync()  # flush the generated inputs before timing

        def one_round():
            rounds = len(walls["calib"])
            cpu = cpus[rounds % len(cpus)]
            order = (*threads_list, "calib")
            if rounds % 2:
                order = order[::-1]
            for threads in order:
                if threads == "calib":
                    wall, code, out = self.procs.run_output(
                        [self.bins["calib"], text_log], self.work, self.stderr, cpu)
                    self.check(code == 0, f"pbench_calib {text_log.name}: exit {code}")
                    calib_out.add(out)
                    walls["calib"].append(wall)
                    continue
                dot.unlink(missing_ok=True)
                wall, code, peak = self.procmine("mine", target, f"--threads={threads}",
                                                 f"--dot={dot}", *extra,
                                                 cpu=cpu if threads == 1 else None)
                self.check(code == 0 and dot.is_file() and dot.read_bytes() == reference,
                           f"mine {target.name} --threads={threads}: exit {code} or "
                           f"DOT differs from the --threads=1 reference")
                walls[threads].append(wall)
                if threads == THREADS:
                    rss.append(peak)

        repeat_for(seconds, one_round, at_least)
        self.check(len(calib_out) == 1, "pbench_calib output differs between runs")
        return walls, rss

    def record_mine(self, walls, rss):
        if walls[THREADS]:
            self.record_median("wall_s", walls[THREADS])
        self.record_median("wall_s_t1", walls[1])
        self.record_median("calib_s", walls["calib"])
        self.record_median("wall_t1_rel",
                           [t1 / calib for t1, calib in zip(walls[1], walls["calib"])])
        self.record_median("peak_rss_mb", rss)

    # -- serving

    def serve_cmd(self, fsync=True):
        return [self.bins["procmine"], "serve", "--socket=s.sock", f"--threads={THREADS}",
                "--journal-dir=journal", "--registry-root=registry",
                *([] if fsync else ["--no-fsync"])]

    def fresh_serve_dirs(self):
        for sub in ("journal", "registry", "models"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
            (self.work / sub).mkdir()
        os.sync()  # the last life's writeback and deletes must not overlap this one

    def stop_server(self, server):
        server.send_signal(signal.SIGTERM)
        code, _ = self.procs.reap(server)
        self.check(code == 0, f"server drain exited {code}")

    def serve_life(self, spec, open_only=False):
        """Starts a server under a waiting `pbench feed` client. Set-up is
        server exec until the socket accepts and every tenant's session is
        open. Returns (set-up seconds, the running server, the feed result)."""
        self.fresh_serve_dirs()
        out = self.work / "feed.json"
        out.unlink(missing_ok=True)
        client = self.procs.spawn(
            [self.bins["pbench"], "feed", "--socket=s.sock", "--models-dir=models",
             f"--out={out}", f"--batch-executions={BATCH_EXECUTIONS}",
             f"--max-executions={spec['max_executions']}",
             f"--query-every={spec['query_every']}",
             *(["--open-only"] if open_only else []),
             *[f"--tenant={name}={path}" for name, path in spec["tenants"]]],
            self.work, self.stderr, stdout=subprocess.PIPE)
        ready = client.stdout.readline().strip()
        start = time.monotonic_ns()
        server = self.procs.spawn(self.serve_cmd(fsync=not open_only), self.work,
                                  self.stderr)
        code, _ = self.procs.reap(client)
        client.stdout.close()
        if ready != b"ready" or code != 0 or not out.is_file():
            raise BenchError(f"pbench feed exited {code}; see {self.stderr}")
        result = json.loads(out.read_text())
        return (result["t_open_ns"] - start) / 1e9, server, result

    def setup_life(self, spec):
        """A server life that only opens every session; returns its set-up
        seconds. Set-up is timed only here, each time after the sync in
        fresh_serve_dirs, never right after a feed, kill or replay. The
        server runs with --no-fsync: with fsync on, the three journal
        creates make set-up follow the shared disk's flush latency."""
        setup, server, _ = self.serve_life(spec, open_only=True)
        server.kill()
        self.procs.reap(server)
        return setup

    def serve_cycle(self, spec, feed):
        """One server life: feed every tenant in a closed loop, SIGKILL,
        restart, check every recovered model, drain. Adds to `feed`."""
        names = [name for name, _ in spec["tenants"]]
        _, server, result = self.serve_life(spec)
        killed = time.monotonic_ns()
        server.kill()
        _, rss = self.procs.reap(server)
        restarted = self.procs.spawn(self.serve_cmd(), self.work, self.stderr)
        recovered = self.pbench("recover", "--socket=s.sock", "--models-dir=models",
                                *[f"--session={name}" for name in names])
        recover_s = (recovered["t_done_ns"] - killed) / 1e9
        for name in names:
            self.check(name in recovered["matched"],
                       f"recovered model of {name} differs from the model before the kill")
        for error in recovered["errors"]:
            log(f"recover: {error}")
        self.stop_server(restarted)

        acked = 0
        for tenant in result["tenants"]:
            self.attempted += tenant["attempted"]
            self.failed += tenant["failed"]
            for error in tenant["errors"]:
                log(f"feed {tenant['name']}: {error}")
            feed["ack_ms"] += tenant["ack_ms"]
            feed["query_ms"] += tenant["query_ms"]
            feed["batches"] += tenant["batches"]
            feed["shed"] += tenant["shed"]
            acked += tenant["acked_executions"]
        feed["exec_per_s"].append(acked / result["feed_wall_s"])
        feed["recover_s"].append(recover_s)
        feed["rss"].append(rss)

    def serve_feed_loop(self, spec, seconds=0, setup_lives=0):
        """Server lives for `seconds` (at least one), each after
        `setup_lives` open-only lives, so set-up is sampled across the run."""
        feed = {"ack_ms": [], "query_ms": [], "batches": 0, "shed": 0,
                "exec_per_s": [], "recover_s": [], "setup_s": [], "rss": []}

        def cycle():
            for _ in range(setup_lives):
                feed["setup_s"].append(self.setup_life(spec))
            self.serve_cycle(spec, feed)

        repeat_for(seconds, cycle)
        return feed

    def record_feed(self, feed):
        acks = feed["ack_ms"]
        self.record("ack_p50_ms", percentile(acks, 50), acks)
        self.record("ack_p99_ms", percentile(acks, 99), acks)
        self.record_median("acked_exec_per_s", feed["exec_per_s"])
        self.record_median("query_p50_ms", feed["query_ms"])
        self.record_median("recover_s", feed["recover_s"])

    def feed_spec(self):
        """The three tenant logs every workload feeds."""
        tenants = []
        for i, activities in enumerate(self.scale["tenants"]):
            path = self.work / f"tenant{i}.txt"
            self.synth(activities, self.scale["tenant_executions"], self.seed_for(3 + i),
                       path)
            tenants.append((f"tenant{i}-a{activities}", path))
        return {"tenants": tenants, "max_executions": self.scale["feed_executions"],
                "query_every": self.scale["query_every"]}

    # -- workloads: inputs

    def inputs(self, workload, setups, feed):
        """Generates the workload's mining input (text log or store). Returns
        it with its reference DOT and the set-up samples: synth on mine_text,
        convert on mine_store. serve_feed times set-up in its own server
        lives and mines the widest tenant log of `feed`."""
        s = self.scale[workload]
        if workload == "mine_text":
            log_path = self.work / "log.txt"
            walls, digests = [], set()
            for _ in range(setups):
                log_path.unlink(missing_ok=True)
                os.sync()  # each set-up starts with nothing left to write back
                walls.append(self.synth(s["activities"], s["executions"],
                                        self.seed_for(1), log_path))
                digests.add(hashlib.sha256(log_path.read_bytes()).hexdigest())
            self.check(len(digests) == 1, "synth is not deterministic for one seed")
            return {"mine_target": log_path, "text_log": log_path, "mine_extra": [],
                    "ref": self.reference_dot(log_path), "setup": walls}
        if workload == "mine_store":
            log_path = self.work / "log.txt"
            self.synth(s["activities"], s["executions"], self.seed_for(2), log_path)
            store = self.work / "store"
            walls, manifests = [], set()
            extra = [f"--segment-events={s['segment_events']}"] if s["segment_events"] else []
            for _ in range(setups):
                shutil.rmtree(store, ignore_errors=True)
                os.sync()  # each set-up starts with nothing left to write back
                wall, code, _ = self.procmine("convert", log_path, store, "--to-store",
                                              *extra)
                if code != 0:
                    raise BenchError(f"procmine convert exited {code}")
                walls.append(wall)
                manifests.add((store / "MANIFEST.pms").read_bytes())
            self.check(len(manifests) == 1, "convert is not deterministic for one log")
            return {"mine_target": store, "text_log": log_path, "store": store,
                    "mine_extra": [f"--resident-mb={s['resident_mb']}"],
                    "ref": self.reference_dot(log_path), "setup": walls}
        widest = feed["tenants"][-1][1]
        return {"mine_target": widest, "text_log": widest, "mine_extra": [],
                "ref": self.reference_dot(widest), "setup": []}

    # -- untraced run

    def end_to_end(self, workload):
        """The untraced run; returns the names of the metrics it measured."""
        seconds = self.args.seconds
        if workload != "serve_feed":
            inp = self.inputs(workload, self.scale["setups"], None)
            walls, rss = self.mine_passes(inp["mine_target"], inp["mine_extra"],
                                          inp["ref"], inp["text_log"], seconds, at_least=2)
            self.record_median("setup_s", inp["setup"])
            self.record_mine(walls, rss)
            return {name: END_TO_END[name] for name in BATCH_END_TO_END}
        s = self.scale[workload]
        serve_seconds = seconds * s["serve_share"]
        feed_spec = self.feed_spec()
        # Server lives come before the mining input's reference pass, so
        # they serve in the same state of memory and page cache every run.
        feed = self.serve_feed_loop(feed_spec, serve_seconds, s["setup_lives"])
        inp = self.inputs(workload, self.scale["setups"], feed_spec)
        # Only --threads=1 passes: wall_s is a mine_* metric, and leaving out
        # the --threads=4 passes gives the gated ratio more rounds.
        walls, _ = self.mine_passes(inp["mine_target"], inp["mine_extra"], inp["ref"],
                                    inp["text_log"], seconds - serve_seconds, at_least=2,
                                    threads_list=(1,))
        self.record_median("setup_s", feed["setup_s"])
        self.record_mine(walls, feed["rss"])
        self.record_feed(feed)
        return {name: unit for name, unit in END_TO_END.items() if name != "wall_s"}

    # -- traced run

    def traced(self, workload):
        # Untraced references from this same run: one server life (the ack
        # latency the serve layers are subtracted from) and one pair of
        # mine passes (the wall_s the traced pass is compared with).
        spec = self.feed_spec()
        feed = self.serve_feed_loop(spec)
        ack_p50 = percentile(feed["ack_ms"], 50)
        inp = self.inputs(workload, 1, spec)
        walls, _ = self.mine_passes(inp["mine_target"], inp["mine_extra"], inp["ref"],
                                    inp["text_log"], 0)
        untraced_wall = median(walls[THREADS])

        argv = ["layers", f"--log={inp['text_log']}", f"--ref-dot={self.work / 'ref.dot'}",
                "--work=layers", f"--threads={THREADS}",
                f"--batch-executions={BATCH_EXECUTIONS}",
                f"--max-executions={spec['max_executions']}",
                f"--query-every={spec['query_every']}", f"--seconds={self.args.seconds}",
                *[f"--tenant={name}={path}" for name, path in spec["tenants"]]]
        if "store" in inp:
            argv.append(f"--store={inp['store']}")
            argv.append(f"--resident-mb={self.scale['mine_store']['resident_mb']}")
        (self.work / "layers").mkdir(exist_ok=True)
        traced = self.pbench(*argv)
        self.attempted += traced["checks"]["attempted"]
        self.failed += traced["checks"]["failed"]
        for error in traced["checks"]["errors"]:
            log(f"check failed: layers: {error}")
        self.layer_metrics(workload, traced, untraced_wall, ack_p50, feed)
        return PER_LAYER

    def layer_metrics(self, workload, traced, untraced_wall, ack_p50, feed):
        spans = traced["trace"]["spans"]
        counts = traced["counts"]
        wall = {name: span["wall_s"] for name, span in spans.items()}
        cpu = {name: span["cpu_s"] for name, span in spans.items()}
        iterations = len(traced["trace"]["windows_s"])

        def cores(name):
            return [c / w for c, w in zip(cpu[name], wall[name]) if w > 0]

        def ms(name):
            return [w * 1000 for w in wall[name]]

        self.record_median("log.read.s", wall["log.read"])
        self.record_median("log.read.cores", cores("log.read"))
        self.record_median("log.read.mb_per_s",
                           [counts["log_bytes"] / 1e6 / w for w in wall["log.read"]])
        self.record_median("mine.collect.s", wall["mine.collect"])
        self.record_median("mine.collect.cores", cores("mine.collect"))
        self.record_count("mine.collect.pairs", counts["collect_pairs"])
        self.record_median("mine.graph.s", wall["mine.graph"])
        self.record_median("mine.algo2.s", wall["mine.algo2"])
        # Reduce = Algorithm 2 minus the collect and graph steps it re-runs.
        reduce_wall, reduce_cores = [], []
        for i in range(iterations):
            w = wall["mine.algo2"][i] - wall["mine.collect"][i] - wall["mine.graph"][i]
            c = cpu["mine.algo2"][i] - cpu["mine.collect"][i] - cpu["mine.graph"][i]
            reduce_wall.append(w)
            if w > 0:
                reduce_cores.append(c / w)
        self.record_median("mine.reduce.s", reduce_wall)
        self.record_median("mine.reduce.cores", reduce_cores or [0.0])
        sets = counts["distinct_sets"]
        self.record_count("mine.reduce.distinct_sets", sets)
        self.record_count("mine.reduce.memo_hit_ratio", 1 - sets / counts["executions"])
        self.record_median("mine.emit.s", wall["mine.emit"])
        self.record_median("log.store_write.s", wall["log.store_write"])
        decode = wall["log.segment.decode"]
        self.record_median("log.segment.decode.s", decode)
        self.record_median("log.segment.mb_per_s",
                           [counts["segment_disk_bytes"] / 1e6 / w for w in decode])
        loads, hits = counts["segment_loads"], counts["segment_cache_hits"]
        self.record_count("log.segment.loads", loads)
        self.record_count("log.segment.hit_ratio", hits / max(1, hits + loads))
        self.record_count("log.segment.peak_resident_mb",
                          counts["segment_peak_resident_bytes"] / 2**20)
        ooc = wall["mine.ooc"]
        self.record_median("mine.ooc.s", ooc)
        self.record_median("mine.ooc.cores", cores("mine.ooc"))
        self.record_count("mine.ooc.windows", counts["ooc_windows"])
        # Out-of-core self time: minus the segment loads at the cold-pass rate.
        decode_per_segment = median(decode) / max(1, counts["segments"])
        self.record_median("mine.ooc.self_s", [o - loads * decode_per_segment for o in ooc])

        decode_ms, apply_ms = ms("serve.decode"), ms("serve.apply")
        self.record("serve.decode.p50_ms", percentile(decode_ms, 50), decode_ms)
        apply_self = [a - d for a, d in zip(apply_ms, decode_ms)]
        self.record("serve.apply.p50_ms", percentile(apply_self, 50), apply_self)
        journal_ms = ms("serve.journal")
        self.record("serve.journal.p50_ms", percentile(journal_ms, 50), journal_ms)
        self.record("serve.journal.p99_ms", percentile(journal_ms, 99), journal_ms)
        query_ms = ms("serve.query")
        self.record("serve.query.p50_ms", percentile(query_ms, 50), query_ms)
        # Sessions replay one after another: a recovery is the sum per iteration.
        tenants = len(wall["serve.replay"]) // iterations
        replay = [sum(wall["serve.replay"][i * tenants:(i + 1) * tenants])
                  for i in range(iterations)]
        self.record_median("serve.replay.s", replay)
        layered = (self.values["serve.decode.p50_ms"] + self.values["serve.apply.p50_ms"]
                   + self.values["serve.journal.p50_ms"])
        unattributed = ack_p50 - layered
        self.record("serve.unattributed.p50_ms", unattributed, [unattributed],
                    n=len(feed["ack_ms"]))
        shed = feed["shed"] / max(1, feed["batches"])
        self.record("serve.shed_frac", shed, [shed], n=feed["batches"])

        # The ledger: leaf spans never overlap, so their sum plus the
        # untraced remainder is the traced wall time.
        traced_wall = sum(traced["trace"]["windows_s"])
        rest = traced["trace"]["unattributed_s"]
        self.record("trace.unattributed.s", sum(rest), rest)
        # The traced equivalent of one wall_s pass (minus process start/exit).
        emits = wall["mine.emit"]
        if workload == "mine_store":
            traced_pass = [o + e for o, e in zip(ooc, emits[1::2])]
        else:
            traced_pass = [r + a + e for r, a, e in
                           zip(wall["log.read"], wall["mine.algo2"], emits[0::2])]
        self.record_median("trace.gap_frac",
                           [(t - untraced_wall) / untraced_wall for t in traced_pass])
        self.ledger = (traced_wall, wall)

    # -- output

    def print_table(self, names):
        print(f"{'metric':<28} {'value':>14} {'unit':<7} {'n':>6} {'q1':>12} {'q3':>12}")
        for name, unit in names.items():
            samples = self.samples[name]
            q1, q3 = quartiles(samples)
            n = self.counts.get(name, len(samples))
            print(f"{name:<28} {self.values[name]:>14.6g} {unit:<7} {n:>6} "
                  f"{q1:>12.6g} {q3:>12.6g}")
        print(f"{'failed_frac':<28} {self.failed / max(1, self.attempted):>14.6g} "
              f"{'ratio':<7} {self.attempted:>6}")

    def print_ledger(self):
        traced_wall, wall = self.ledger
        print(f"self-time ledger ({len(self.samples['trace.unattributed.s'])} traced "
              f"iterations; every span is a leaf, so self time = duration)")
        print(f"{'layer':<22} {'self_s':>10} {'share':>7} {'n':>6} {'q1_ms':>10} "
              f"{'median_ms':>10} {'q3_ms':>10}")
        total = 0.0
        for name in sorted(wall):
            spent = sum(wall[name])
            total += spent
            q1, q3 = quartiles(wall[name])
            print(f"{name:<22} {spent:>10.4f} {spent / traced_wall:>7.1%} {len(wall[name]):>6} "
                  f"{q1 * 1e3:>10.3f} {median(wall[name]) * 1e3:>10.3f} {q3 * 1e3:>10.3f}")
        rest = self.values["trace.unattributed.s"]
        print(f"{'trace.unattributed.s':<22} {rest:>10.4f} {rest / traced_wall:>7.1%}")
        print(f"{'= traced wall':<22} {total + rest:>10.4f} (measured {traced_wall:.4f})")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    return parser.parse_args()


def main():
    args = parse_args()
    loadavg = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    try:
        bins = build()
        env = environment(bins, args.seed, loadavg)
    except BenchError as error:
        log(f"perfbench: {error}")
        return 2

    def on_deadline(signum, frame):
        raise Deadline()

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(RUN_LIMIT_S)
    work = build_dir() / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args, bins, work)
    done = False
    try:
        names = run.traced(args.workload) if args.trace else run.end_to_end(args.workload)
        reported = names if args.trace else {name: END_TO_END[name] for name in GATED}
        done = True
    except (BenchError, Deadline) as error:
        log(f"perfbench: {error or 'run exceeded its time limit'}")
    finally:
        signal.alarm(0)
        run.procs.stop_all()
        if not done and run.stderr.is_file():  # what the programs said
            sys.stderr.write(run.stderr.read_text(errors="replace")[-4000:])
        shutil.rmtree(work, ignore_errors=True)
    if not done:
        return 1

    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    run.print_table(names)
    if args.trace:
        run.print_ledger()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.values[name], "unit": unit}
                    for name, unit in reported.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
