#!/usr/bin/env python3
"""The ConfMask repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload w1000_oneshot --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

It builds the CLI and the benchmark helper from source, runs one workload
and prints human-readable lines followed, as the last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, taken by the traced replicas in perfbench/layers.ml. Exits 1 when
any output check fails and 2 when the program cannot be built or run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

CLI = os.path.join("_build", "default", "bin", "confmask_cli.exe")
LAYERS = os.path.join("_build", "default", "perfbench", "layers.exe")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"

# The anonymization seed of every op: the paper's and the CLI's default.
# The workload seed varies the inputs (dialect per file, job sequence),
# not the algorithm's random choices; see README.md.
ALGO_SEED = 42
KH = 2
TENANT_KEY = "0x9e3779b97f4a7c15"
# A run stops starting ops at SOFT_CAP_S after the build; ops still in
# flight at RUN_CAP_S are killed and count as failed. The longest
# serve_mix request takes about 3 s, so the gap leaves in-flight work
# ample room, and RUN_CAP_S plus teardown stays well under 180 s.
SOFT_CAP_S = 120.0
RUN_CAP_S = 155.0
BUILD_CAP_S = 700.0
MIN_REQUESTS = 100  # so that p90 has 10 samples beyond it
TRACED_JOBS = 20  # serve_mix jobs replayed in-process by the traced run
SETUPS = 7  # set-ups per run; setup_s is their median

W1000 = {"net": "W1000", "kr": 6}
SMALL_NETS = ["A", "B", "C", "G"]
MEDIUM_NETS = ["D", "E", "F", "H"]
PII_SLOTS = (4, 9, 14, 15, 16)  # positions in a mix block that use PII

TIMED_LAYERS = [
    "configlang.parse", "configlang.print", "routing.baseline",
    "check.dataplane", "check.compare", "topo.anonymize", "equiv.fix",
    "anon.anonymize", "pii.scrub", "pii.resimulate", "verify.report",
    "redteam.audit", "io.write", "metrics.report",
]
COUNTERS = [
    "engine.spf_full", "engine.fib_build", "engine.fib_reuse",
    "compiled.build", "ospf.dijkstras", "fec.classes", "fec.traced",
    "fec.collapsed", "graphanon.rounds", "graphanon.stuck",
    "topo.fake_edges", "equiv.iterations", "equiv.delta_routers",
    "equiv.filters_added", "anon.iterations", "anon.filters_added",
    "anon.filters_removed", "anon.walks_skipped", "verify.policies",
    "redteam.attacks", "diskcache.hit", "diskcache.miss", "diskcache.write",
]
POOL_COUNTERS = ["pool.tasks", "pool.steals", "pool.nested_seq"]


class Failure(Exception):
    """A failed output check or a failed op; counted, never fatal."""


class Deadline:
    def __init__(self, workload, soft=SOFT_CAP_S, hard=RUN_CAP_S):
        self.workload = workload
        now = time.monotonic()
        self.soft_end = now + soft
        self.end = now + hard

    def left(self):
        return self.end - time.monotonic()

    def may_start(self):
        """False once the soft cap has passed: start no further op."""
        return time.monotonic() < self.soft_end

    def check(self):
        if self.left() <= 0:
            raise Failure(f"{self.workload}: run wall cap of {RUN_CAP_S:.0f} s hit")


def log(msg):
    print(msg, flush=True)


def fail_setup(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


# ---- processes ----

def run_proc(argv, cap, out_path, err_path=None):
    """Runs argv to completion; returns (exit code, wall s, CPU s, peak RSS MB).
    A process still running after cap seconds is killed and reported as
    exit code -9."""
    with open(out_path, "wb") as out, open(err_path or os.devnull, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(max(cap, 0.01), p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def helper(args, tmp, dl, what):
    out = os.path.join(tmp, f"{what}.out")
    err = os.path.join(tmp, f"{what}.err")
    rc, wall, _, _ = run_proc([LAYERS] + args, dl.left(), out, err)
    if rc != 0:
        with open(err, errors="replace") as f:
            raise Failure(f"{dl.workload}: {what} exited {rc}: {f.read()[-500:]}")
    with open(out) as f:
        return f.read(), wall


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            h.update(name.encode() + b"\0" + f.read() + b"\0")
    return h.hexdigest()


def log_setups(workload, setups, writes):
    log(f"{workload} set-ups (in setup_s): {' '.join(f'{w:.3f}' for w in setups)} s")
    log(f"{workload} input file writes (not in setup_s): {' '.join(f'{w:.3f}' for w in writes)} s")


# ---- statistics ----

def quantile(values, q):
    """Linear-interpolation quantile of a non-empty sample."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    return statistics.median(values)


# ---- one-shot workloads ----

def emit_inputs(nets, seed, tmp, dl, tag):
    """Writes the nets' inputs under tmp/tag; returns (that directory,
    generate-and-print s, file-write s)."""
    out = os.path.join(tmp, tag)
    text, _ = helper(["emit", "nets=" + ",".join(nets), f"seed={seed}", f"out={out}"], tmp, dl, "emit-" + tag)
    times = json.loads(text)
    return out, times["generate_s"], times["write_s"]


def anonymize_op(spec, in_dir, out_dir, tmp, dl, expected):
    """One `confmask anonymize` in a fresh process with telemetry off,
    plus its output checks. Returns (wall, cpu, rss)."""
    stdout = os.path.join(tmp, "anonymize.out")
    argv = [CLI, "anonymize", "--in", in_dir, "--out", out_dir, "--kr", str(spec["kr"]),
            "--kh", str(KH), "--jobs", "1", "--seed", str(ALGO_SEED)]
    rc, wall, cpu, rss = run_proc(argv, dl.left(), stdout, os.path.join(tmp, "anonymize.err"))
    dl.check()
    if rc != 0:
        raise Failure(f"{dl.workload}: confmask anonymize exited {rc}")
    with open(stdout) as f:
        lines = f.read().splitlines()
    if "functional equivalence: true" not in lines:
        raise Failure(f"{dl.workload}: functional equivalence not shown")
    k = [int(l.split(":")[1]) for l in lines if l.startswith("topology anonymity k:")]
    if not k or k[0] < spec["kr"]:
        raise Failure(f"{dl.workload}: topology anonymity k {k} below k_R={spec['kr']}")
    digest = dir_digest(out_dir)
    if digest != expected:
        raise Failure(f"{dl.workload}: output digest {digest[:12]} != recorded {expected[:12]}")
    return wall, cpu, rss


def oneshot_untraced(spec, seed, seconds, tmp, dl, expected):
    setups, writes = [], []
    for i in range(SETUPS):
        root, generate, write = emit_inputs([spec["net"]], seed, tmp, dl, f"in{i}")
        setups.append(generate)
        writes.append(write)
        if i > 0:
            shutil.rmtree(root)
    in_dir = os.path.join(tmp, "in0", spec["net"])
    walls, cpus, rss, failed = [], [], [], 0
    t0 = time.monotonic()
    # At least two ops; another one only if it is projected to end
    # within the measured seconds. None after the soft cap.
    while dl.may_start() and (len(walls) + failed < 2 or (
            walls and time.monotonic() - t0 + median(walls) <= seconds)):
        out_dir = os.path.join(tmp, "out")
        try:
            w, c, r = anonymize_op(spec, in_dir, out_dir, tmp, dl, expected)
            walls.append(w)
            cpus.append(c)
            rss.append(r)
        except Failure as e:
            log(f"FAILED {e}")
            failed += 1
            if dl.left() <= 0:
                break
        shutil.rmtree(out_dir, ignore_errors=True)
    attempted = len(walls) + failed
    log_setups(dl.workload, setups, writes)
    log(f"{dl.workload} op walls: {' '.join(f'{w:.3f}' for w in walls)} s")
    metrics = {"setup_s": (median(setups), "s", len(setups))}
    if walls:
        metrics.update({
            "anonymize_s": (median(walls), "s", len(walls)),
            "anonymize_cpu_s": (median(cpus), "s", len(cpus)),
            "peak_rss_mb": (median(rss), "MB", len(rss)),
            "jobs_per_s": (len(walls) / sum(walls), "1/s", len(walls)),
            "latency_p50_s": (median(walls), "s", len(walls)),
            # A 90th percentile needs 100 samples; a run has a few ops.
            "latency_p90_s": (max(walls), "s", len(walls),
                              "unresolved p90, reported as the largest op wall"),
        })
    return attempted, failed, metrics


def per_layer(report, scale=1.0):
    """Per-layer metrics from a layers.exe report; times and allocation
    divided by scale (the number of jobs the report covers)."""
    m = {}
    layers = report["layers"]
    for name in TIMED_LAYERS:
        l = layers.get(name, {"seconds": 0.0, "alloc_mw": 0.0, "top_heap_mb": 0.0})
        m[name + "_s"] = (l["seconds"] / scale, "s")
        m[name + ".alloc_mw"] = (l["alloc_mw"] / scale, "Mw")
        m[name + ".top_heap_mb"] = (l["top_heap_mb"], "MB")
    c = report["counters"]
    for name in COUNTERS:
        m[name] = (c.get(name, 0), "count")
    added, removed = c.get("anon.filters_added", 0), c.get("anon.filters_removed", 0)
    m["anon.filter_keep_ratio"] = (added / (added + removed) if added + removed else 0.0, "ratio")
    hit, miss = c.get("diskcache.hit", 0), c.get("diskcache.miss", 0)
    m["diskcache.hit_ratio"] = (hit / (hit + miss) if hit + miss else 0.0, "ratio")
    attributed = sum(l["seconds"] for l in layers.values())
    m["unattributed_s"] = ((report["wall_s"] - attributed) / scale, "s")
    return m


def replica_op(spec, in_dir, cli_out, pool, tmp, dl):
    """The traced replica of one op with a pool of the given size; its
    output directory must be byte-identical to the CLI's in cli_out.
    Returns (report, process wall s)."""
    rep_out = os.path.join(tmp, f"out-replica{pool}")
    rep_json = os.path.join(tmp, f"replica{pool}.json")
    rc, wall, _, _ = run_proc(
        [LAYERS, "oneshot", f"in={in_dir}", f"out={rep_out}", f"kr={spec['kr']}", f"kh={KH}",
         f"seed={ALGO_SEED}", f"pool={pool}"],
        dl.left(), rep_json, os.path.join(tmp, f"replica{pool}.err"))
    dl.check()
    if rc != 0:
        raise Failure(f"{dl.workload}: traced replica (pool {pool}) exited {rc}")
    with open(rep_json) as f:
        report = json.loads(f.read())
    if dir_digest(cli_out) != dir_digest(rep_out):
        raise Failure(f"{dl.workload}: traced replica (pool {pool}) output differs from confmask anonymize")
    if not report["functional_equivalence"] or report["min_degree_group"] < spec["kr"]:
        raise Failure(f"{dl.workload}: traced replica (pool {pool}) failed its invariants")
    return report, wall


def oneshot_traced(spec, seed, tmp, dl, expected):
    """One untraced op (--jobs 1), then the traced replica on the same
    inputs, once at one job (the layer spans and counters) and once with
    a pool of two (the pool counters and speedup, which the untraced
    workload does not exercise). All three outputs must be identical."""
    emit_inputs([spec["net"]], seed, tmp, dl, "in0")
    in_dir = os.path.join(tmp, "in0", spec["net"])
    cli_out = os.path.join(tmp, "out-cli")
    untraced, _, _ = anonymize_op(spec, in_dir, cli_out, tmp, dl, expected)
    report, traced = replica_op(spec, in_dir, cli_out, 1, tmp, dl)
    pooled, _ = replica_op(spec, in_dir, cli_out, 2, tmp, dl)
    m = per_layer(report)
    for name in POOL_COUNTERS:
        m[name] = (pooled["counters"].get(name, 0), "count")
    m["pool.speedup"] = (report["wall_s"] / pooled["wall_s"], "x")
    m["serve.handle_s"] = (0.0, "s")
    m["serve.transport_s"] = (0.0, "s")
    m["serve.rejected"] = (0, "count")
    m["trace_overhead_frac"] = (traced / untraced - 1.0, "frac")
    return 3, 0, m


# ---- serve_mix ----

def mix_sequence(seed):
    """Endless seeded job sequence in blocks of 20, each (net, kr, pii).
    Block b holds A, B, C, G, D, E, F, H three times each, one more small
    net and three more medium nets chosen by b: a quarter small nets,
    k_R alternating 2 and 6, PII on one small job and one job of each
    medium net. The multiset of jobs in the first n blocks is the same
    for every seed; the seed orders each block."""
    rng = random.Random(seed)
    b = 0
    while True:
        nets = (SMALL_NETS + [SMALL_NETS[b % 4]] + MEDIUM_NETS * 3
                + [MEDIUM_NETS[(b + i) % 4] for i in range(3)])
        block = [(net, 2 if (i + b) % 2 == 0 else 6, 1 if i in PII_SLOTS else 0)
                 for i, net in enumerate(nets)]
        rng.shuffle(block)
        yield from block
        b += 1


def job_key(net, kr, pii):
    return f"{net}-kr{kr}-pii{pii}"


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def call(self, obj, timeout):
        self.sock.settimeout(max(timeout, 1.0))
        self.file.write((json.dumps(obj) + "\n").encode())
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise Failure("daemon closed the connection")
        return json.loads(line)

    def close(self):
        try:
            self.file.close()
            self.sock.close()
        except OSError:
            pass


class Daemon:
    """A `confmask serve` child. stop() always tears it down: a shutdown
    op, then a kill; it returns the child's (CPU s, peak RSS MB)."""

    def __init__(self, tmp, tag, dl):
        self.sock = os.path.relpath(os.path.join(tmp, f"{tag}.sock"))
        cache = os.path.relpath(os.path.join(tmp, f"{tag}-cache"))
        self.log = open(os.path.join(tmp, f"{tag}.log"), "wb")
        self.proc = subprocess.Popen(
            [CLI, "serve", "--listen", "unix:" + self.sock, "--workers", "1", "--jobs", "1",
             "--cache", cache, "--tenant", "bench=" + TENANT_KEY],
            stdout=self.log, stderr=self.log)
        self.rusage = None
        while True:
            try:
                c = Conn(self.sock)
                ok = c.call({"op": "ping"}, 5.0).get("ok")
                c.close()
                if ok:
                    return
            except (OSError, ValueError, Failure):
                pass
            if self.proc.poll() is not None or dl.left() <= 0:
                self.stop()
                raise Failure(f"{dl.workload}: confmask serve did not come up")
            time.sleep(0.002)

    def stats(self):
        c = Conn(self.sock)
        try:
            return c.call({"op": "stats"}, 5.0)
        finally:
            c.close()

    def stop(self):
        if self.rusage is None:
            try:
                c = Conn(self.sock)
                c.call({"op": "shutdown"}, 5.0)
                c.close()
            except (OSError, ValueError, Failure):
                pass
            killer = threading.Timer(10.0, self.proc.kill)
            killer.start()
            try:
                _, status, ru = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = (ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)
            except ChildProcessError:  # already reaped by poll()
                self.rusage = (0.0, 0.0)
            finally:
                killer.cancel()
            self.log.close()
        return self.rusage


def serve_setup(seed, tmp, dl, tag):
    """Emits nets A-H and starts a daemon; returns (input root, daemon,
    set-up s = generate-and-print s + daemon start s, file-write s)."""
    in_root, generate, write = emit_inputs(SMALL_NETS + MEDIUM_NETS, seed, tmp, dl, "in-" + tag)
    t0 = time.perf_counter()
    daemon = Daemon(tmp, tag, dl)
    return in_root, daemon, generate + time.perf_counter() - t0, write


def drive_mix(daemon, in_root, seed, seconds, min_requests, max_requests, tmp, dl, expected):
    """Closed loop: one client process, two connections, each sending its
    next job when the previous response arrives."""
    seq = mix_sequence(seed)
    out = os.path.relpath(os.path.join(tmp, "out"))
    lock = threading.Lock()
    results = []  # (index, job, latency s, record seconds or None, error or None)
    state = {"issued": 0}
    t0 = time.monotonic()

    def next_job():
        with lock:
            n = state["issued"]
            done = n >= max_requests or (n >= min_requests and time.monotonic() - t0 >= seconds)
            # Past the soft cap a request is not sent: the run ends short
            # of min_requests, which is reported, not failed.
            if done or not dl.may_start():
                return None
            state["issued"] = n + 1
            return n, next(seq)

    def client():
        try:
            conn = Conn(daemon.sock)
        except OSError as e:
            with lock:
                results.append((-1, None, 0.0, None, f"connect: {e}"))
            return
        try:
            while True:
                item = next_job()
                if item is None:
                    return
                i, (net, kr, pii) = item
                req = {"op": "job", "id": f"j{i:04d}", "source": {"dir": os.path.relpath(os.path.join(in_root, net))},
                       "kr": kr, "kh": KH, "seed": ALGO_SEED, "pii": bool(pii), "out": out}
                if pii:
                    req["tenant"] = "bench"
                s = time.perf_counter()
                err, secs = None, None
                try:
                    resp = conn.call(req, dl.left())
                    lat = time.perf_counter() - s
                    if not resp.get("ok"):
                        err = f"response error {resp.get('error')}"
                    else:
                        rec = json.loads(resp["record"])
                        want = expected.get(job_key(net, kr, pii))
                        if rec.get("status") != "ok":
                            err = f"record status {rec.get('status')}: {rec.get('error')}"
                        elif rec.get("functional_equivalence") is not True:
                            err = "functional equivalence false"
                        elif rec.get("digest") != want:
                            err = f"digest {rec.get('digest')} != recorded {want}"
                        secs = rec.get("seconds")
                except (OSError, ValueError, KeyError, Failure) as e:
                    lat = time.perf_counter() - s
                    err = f"transport: {e}"
                with lock:
                    results.append((i, (net, kr, pii), lat, secs, err))
                if err and err.startswith("transport"):
                    return
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.monotonic() - t0
    if len(results) < min_requests:
        log(f"{dl.workload}: soft cap of {SOFT_CAP_S:.0f} s reached after {len(results)} "
            f"requests, {min_requests - len(results)} short of {min_requests}")
    results.sort(key=lambda r: r[0])
    for r in results:
        if r[4]:
            log(f"FAILED {dl.workload}: job {r[0]} {r[1]}: {r[4]}")
    return results, wall


def serve_untraced(seed, seconds, tmp, dl, expected, min_requests=MIN_REQUESTS, max_requests=10**9):
    setups, writes, daemons = [], [], []
    try:
        for i in range(SETUPS):
            in_root, daemon, setup, write = serve_setup(seed, tmp, dl, f"d{i}")
            daemons.append(daemon)
            setups.append(setup)
            writes.append(write)
            if i < SETUPS - 1:
                daemon.stop()
                shutil.rmtree(in_root)
        results, wall = drive_mix(daemon, in_root, seed, seconds, min_requests, max_requests, tmp, dl, expected)
    finally:
        for d in daemons:
            d.stop()
    cpu, rss = daemon.stop()
    ok = [r for r in results if not r[4]]
    failed = len(results) - len(ok)
    log_setups(dl.workload, setups, writes)
    metrics = {"setup_s": (median(setups), "s", len(setups))}
    if ok:
        lats = [r[2] for r in ok]
        metrics.update({
            "anonymize_s": (statistics.mean([r[3] for r in ok]), "s", len(ok)),
            "anonymize_cpu_s": (cpu / len(ok), "s", len(ok)),
            "peak_rss_mb": (rss, "MB", 1),
            "jobs_per_s": (len(ok) / wall, "1/s", len(ok)),
            "latency_p50_s": (median(lats), "s", len(lats)),
            "latency_p90_s": (quantile(lats, 0.9), "s", len(lats)),
        })
    return max(len(results), 1), failed + (0 if results else 1), metrics


def serve_traced(seed, tmp, dl, expected, traced_jobs=TRACED_JOBS):
    """The first traced_jobs jobs of the mix through the daemon (request
    latency, rejections), then replayed in-process: once through the
    stage-by-stage replica of Batch.execute, once through Serve.handle."""
    in_root, daemon, _, _ = serve_setup(seed, tmp, dl, "d0")
    try:
        results, _ = drive_mix(daemon, in_root, seed, 0, traced_jobs, traced_jobs, tmp, dl, expected)
        stats = daemon.stats()
    finally:
        daemon.stop()
    failed = sum(1 for r in results if r[4])
    head = results[:traced_jobs]
    jobs_file = os.path.join(tmp, "jobs.txt")
    with open(jobs_file, "w") as f:
        for i, (net, kr, pii), _, _, _ in head:
            f.write(f"j{i:04d} {os.path.join(in_root, net)} {kr} {pii}\n")
    text, _ = helper(["serve", f"requests={jobs_file}", f"work={os.path.join(tmp, 'trace')}", f"kh={KH}",
                      f"seed={ALGO_SEED}", f"key={TENANT_KEY}"], tmp, dl, "serve-replica")
    report = json.loads(text)
    transport = []
    for (i, job, lat, _, _), j in zip(head, report["jobs"]):
        want = expected.get(job_key(*job))
        if not (j["digest"] == j["handle_digest"] == want) or not j["functional_equivalence"]:
            log(f"FAILED {dl.workload}: traced job {i} {job}: digest {j['digest']} / {j['handle_digest']} != {want}")
            failed += 1
        transport.append(lat - j["handle_s"])
    n = len(report["jobs"])
    m = per_layer(report, scale=n)
    for name in POOL_COUNTERS:  # the daemon runs --jobs 1: pool off
        m[name] = (0, "count")
    m["pool.speedup"] = (0.0, "x")
    handle = [j["handle_s"] for j in report["jobs"]]
    m["serve.handle_s"] = (median(handle), "s")
    m["serve.transport_s"] = (median(transport), "s")
    m["serve.rejected"] = (int(stats.get("counters", {}).get("serve.rejected", 0)), "count")
    m["trace_overhead_frac"] = (sum(j["replica_s"] for j in report["jobs"]) / sum(handle) - 1.0, "frac")
    return len(results) + 2 * n, failed, m


# ---- command line ----

def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "confmask_cli.ml"))):
        fail_setup("run from the root of a confmask source checkout (dune-project and bin/ not found)")
    if shutil.which("dune") is None:
        fail_setup("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./bin/confmask_cli.exe", "./perfbench/layers.exe"],
                           env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=BUILD_CAP_S)
    except subprocess.TimeoutExpired:
        fail_setup("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail_setup("build failed")


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, tmp, expected):
    dl = Deadline(workload)
    if workload == "w1000_oneshot":
        want = expected["oneshot"][W1000["net"]]
        if trace:
            return oneshot_traced(W1000, seed, tmp, dl, want)
        return oneshot_untraced(W1000, seed, seconds, tmp, dl, want)
    if trace:
        return serve_traced(seed, tmp, dl, expected["serve"])
    return serve_untraced(seed, seconds, tmp, dl, expected["serve"])


def guarded(fn, workload):
    """Runs fn() -> (attempted, failed, metrics); a Failure that escapes
    (an op that could not even start) becomes one failed op."""
    try:
        return fn()
    except Failure as e:
        log(f"FAILED {e}")
        return 1, 1, {}
    except (OSError, ValueError, KeyError) as e:
        log(f"FAILED {workload}: {type(e).__name__}: {e}")
        return 1, 1, {}


def fresh_tmp():
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)


def cleanup(tmp):
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass


def report(workload, attempted, failed, metrics, names):
    missing = [n for n in names if n not in metrics]
    correct = failed == 0 and not missing
    for name, v in metrics.items():
        extra = f"  (n={v[2]}{', ' + v[3] if len(v) > 3 else ''})" if len(v) > 2 else ""
        log(f"{workload} {name} = {v[0]:.6g} {v[1]}{extra}")
    log(f"{workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics}}
    print(json.dumps(out), flush=True)
    return 0 if correct else 1


def self_test():
    """Tiny-scale harness check: net A one-shot and a 4-job mix pass with
    the recorded digests, and a corrupted recorded digest fails exactly
    the ops that carry it."""
    expected = load_expected()
    a = {"net": "A", "kr": 6}
    bad = "0" * 64
    mix = list(itertools.islice(mix_sequence(7), 4))
    corrupted = dict(expected["serve"], **{job_key(*mix[0]): bad})
    ok = True

    def check(label, result, want_failed):
        nonlocal ok
        attempted, failed, _ = result
        good = failed == (attempted if want_failed == "all" else want_failed)
        log(f"self-test {label}: attempted {attempted}, failed {failed} -> {'ok' if good else 'WRONG'}")
        ok = ok and good

    cases = [
        ("oneshot A", lambda t, dl: oneshot_untraced(a, 7, 0, t, dl, expected["oneshot"]["A"]), 0),
        ("oneshot A traced", lambda t, dl: oneshot_traced(a, 7, t, dl, expected["oneshot"]["A"]), 0),
        ("oneshot A corrupted digest", lambda t, dl: oneshot_untraced(a, 7, 0, t, dl, bad), "all"),
        ("mix 4 jobs", lambda t, dl: serve_untraced(7, 0, t, dl, expected["serve"], 4, 4), 0),
        ("mix 4 jobs traced", lambda t, dl: serve_traced(7, t, dl, expected["serve"], 4), 0),
        ("mix 4 jobs corrupted digest", lambda t, dl: serve_untraced(7, 0, t, dl, corrupted, 4, 4),
         mix.count(mix[0])),
    ]
    for label, fn, want_failed in cases:
        tmp = fresh_tmp()
        try:
            dl = Deadline("self-test " + label)
            check(label, guarded(lambda: fn(tmp, dl), label), want_failed)
        finally:
            cleanup(tmp)
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description="ConfMask repository benchmark")
    ap.add_argument("--workload", choices=["w1000_oneshot", "serve_mix"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    # A SIGTERM unwinds like an exception, so the daemon and the work
    # directory are still torn down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    build()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    expected = load_expected()
    tmp = fresh_tmp()
    try:
        attempted, failed, metrics = guarded(
            lambda: run_workload(args.workload, args.seed, args.seconds, args.trace, tmp, expected),
            args.workload)
    finally:
        cleanup(tmp)
    return report(args.workload, attempted, failed, metrics, names)


if __name__ == "__main__":
    sys.exit(main())
