#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of the mocc CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (rationales in perfbench/gen.py): sweep-baseline,
sweep-policy, serve-cache, train.

The first run builds the release `mocc` binary and the in-process
tracer (perfbench/tracer) into $CARGO_TARGET_DIR (default
`.bench_build`). Generated inputs, per-seed references and per-run
scratch live under `.perfbench_work/`.

--trace 0 drives the real `mocc` binary -- `mocc run`, `mocc train`
and the `mocc serve --socket` line protocol -- and reports the
end-to-end metrics: setup_s (CPU seconds of set-up: one `mocc
validate` over the workload's inputs, or a daemon's start until its
first `ping` reply; median of repeats), cpu_ms_per_unit (program CPU
milliseconds per unit of work: a cell, a request, a train iteration;
the median over cycles of the CLI workloads, over blocks of a fixed
number of requests for serve-cache). Wall-clock throughput and
latency (cells_per_s, requests_per_s, train_iters_per_s, process and
round-trip p50/p95), peak_rss_mb (of the program processes) and
error_rate are printed alongside. --trace 1 replays the same
inputs in-process through the tracer, which records spans around
calls into each crate's public functions, and reports the per-layer
metrics.

Every output is checked against a reference computed once per seed
in-process (`run_experiment` at one thread, `train_spec`). Human-
readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code
is nonzero if any correctness check failed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import gen  # noqa: E402

WORK = ".perfbench_work"
SETUP_REPEATS = 21
SERVE_SETUP_REPEATS = 9
# serve-cache measures daemon CPU and memory over the first this many
# requests, in four blocks: every `get` grows the ledger that `stats`
# rescans and every miss grows the store, so a fixed count keeps the
# work measured the same however fast the host runs.
SERVE_CPU_REQUESTS = 2000
SERVE_CPU_BLOCKS = 4
PROCESS_TIMEOUT_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


# ---- build ---------------------------------------------------------------


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "mocc-bench", "--bin", "mocc"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "tracer", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "mocc"), os.path.join(release, "perfbench-tracer")


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        # Both builds use the default features; the AVX2 kernels stay off.
        "simd_feature": False,
    }


# ---- processes -----------------------------------------------------------


# `perfbench-tracer spawn`, set once the tracer is built: program
# processes start from it so their rusage is their own (see spawn.rs).
SPAWN = []


def run_timed(cmd):
    """Runs one program process; returns (wall seconds, exit code,
    peak RSS in MiB, CPU seconds) -- peak and CPU time of the program
    itself."""
    fd, result = tempfile.mkstemp(dir=WORK)
    os.close(fd)
    try:
        with tempfile.TemporaryFile() as err:
            t0 = time.perf_counter()
            # Its own process group, so a timeout stops the program too.
            p = subprocess.Popen(SPAWN + [result] + cmd, stdout=subprocess.DEVNULL, stderr=err,
                                 start_new_session=True)
            try:
                code = p.wait(timeout=PROCESS_TIMEOUT_S)
            except BaseException:
                os.killpg(p.pid, signal.SIGKILL)
                p.wait()
                raise
            wall = time.perf_counter() - t0
            if code != 0:
                err.seek(0)
                tail = err.read().decode(errors="replace").strip()[-500:]
                log(f"perfbench: {' '.join(cmd)} exited {code}: {tail}")
        with open(result) as f:
            fields = f.read().split()
    finally:
        os.remove(result)
    if len(fields) != 2:  # the program never ran
        return wall, code or 1, 0.0, 0.0
    return wall, code, int(fields[1]) / 1024.0, float(fields[0])


def start_cpu_seconds(pid):
    """CPU time a live process has run so far, from the scheduler's
    per-thread accounting (nanosecond resolution). Only exact while no
    thread has exited, as during the daemon's start-up."""
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        with open(os.path.join(task_dir, tid, "schedstat")) as f:
            total += int(f.read().split()[0])
    return total / 1e9


def process_cpu_seconds(pid):
    """CPU time a live process has run so far, exited threads included
    (user + system time in clock ticks)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid):
    """A live process's peak resident set so far (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


# ---- inputs and references -----------------------------------------------


def inputs(workload, seed):
    root = os.path.join(WORK, "inputs", workload, str(seed))
    manifest = os.path.join(root, "manifest.json")
    if not os.path.exists(manifest):
        shutil.rmtree(root, ignore_errors=True)
        gen.generate(workload, seed, root)
    with open(manifest) as f:
        return json.load(f)


def reference(workload, seed, manifest, mocc, tracer):
    """The per-seed reference: computed once, untimed, by the tracer
    (in-process `run_experiment` at one thread per spec, `train_spec`),
    plus the serve store snapshot built through `mocc run --cache-dir`."""
    ref = os.path.join(WORK, "ref", workload, str(seed))
    done = os.path.join(ref, "done")
    if not os.path.exists(done):
        shutil.rmtree(ref, ignore_errors=True)
        os.makedirs(ref)
        man = os.path.join(WORK, "inputs", workload, str(seed), "manifest.json")
        r = subprocess.run([tracer, "reference", man, ref], stdout=sys.stderr, stderr=sys.stderr,
                           timeout=PROCESS_TIMEOUT_S)
        if r.returncode != 0:
            fail("reference computation failed", 1)
        if workload == "serve-cache":
            snap = os.path.join(ref, "snapshot")
            for _ in range(2):  # a put pass, then a hit pass: a realistic ledger
                for spec in manifest["warm"]:
                    _, code, _, _ = run_timed([mocc, "run", spec, "--threads", "2", "--cache-dir",
                                            snap, "--out", os.devnull])
                    if code != 0:
                        fail("building the store snapshot failed", 1)
        with open(done, "w") as f:
            f.write("ok\n")
    with open(os.path.join(ref, "meta.json")) as f:
        return ref, json.load(f)


def ref_bytes(ref, spec):
    return read_bytes(os.path.join(ref, "reports", os.path.basename(spec)))


# ---- workloads -----------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def unit(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1


def median_setup(cmds):
    """Set-up of a CLI workload: one `mocc validate` process over its
    inputs. Returns the medians over repeats of (CPU seconds, wall
    seconds)."""
    cpus, walls = [], []
    for _ in range(SETUP_REPEATS):
        wall, code, _, cpu = run_timed(cmds)
        if code != 0:
            fail("mocc validate rejected the generated specs", 1)
        cpus.append(cpu)
        walls.append(wall)
    return statistics.median(cpus), statistics.median(walls)


def run_cli(jobs, job_dir, setup_cmd, seconds, tally, rate_name):
    """A CLI workload: `jobs` -- (command, output file, expected bytes,
    units of work) -- run in turn, cycling until `seconds` have passed,
    each with a fresh `job_dir`; every output must equal the expected
    bytes. CPU per unit is the median over cycles, so a burst of load
    from elsewhere on the host moves one cycle, not the figure."""
    setup, setup_wall = median_setup(setup_cmd)
    walls, units, peaks, per_cycle = [], 0, [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        cycle_cpu, cycle_units = 0.0, 0
        for cmd, out, expected, work in jobs:
            os.makedirs(job_dir)
            wall, code, peak, used = run_timed(cmd)
            ok = code == 0 and read_bytes(out) == expected
            if code == 0 and not ok:
                log(f"perfbench: {' '.join(cmd)}: output differs from the reference")
            tally.unit(ok)
            walls.append(wall if ok else float("inf"))
            units += work if ok else 0
            cycle_units += work if ok else 0
            peaks.append(peak)
            cycle_cpu += used
            shutil.rmtree(job_dir)
        if cycle_units:
            per_cycle.append(cycle_cpu / cycle_units)
    finite = sum(w for w in walls if w != float("inf"))
    rate = units / finite if finite else 0.0
    return {
        "setup_s": setup,
        "cpu_ms_per_unit": statistics.median(per_cycle) * 1e3 if per_cycle else 0.0,
    }, {
        "setup_wall_s": ("s", setup_wall),
        "peak_rss_mb": ("MiB", max(peaks)),
        rate_name: ("1/s", rate),
        "process_p50_ms": ("ms", percentile(walls, 50) * 1e3),
        "process_p95_ms": ("ms", percentile(walls, 95) * 1e3),
    }


def run_sweeps(mocc, manifest, ref, meta, seconds, scratch, tally):
    job_dir = os.path.join(scratch, "job")
    out = os.path.join(job_dir, "report.json")
    jobs = [([mocc, "run", spec, "--threads", "2", "--out", out], out, ref_bytes(ref, spec),
             meta["cells"][spec]) for spec in manifest["specs"]]
    return run_cli(jobs, job_dir, [mocc, "validate"] + manifest["specs"], seconds, tally,
                   "cells_per_s")


def run_train(mocc, manifest, ref, meta, seconds, scratch, tally):
    spec = manifest["train"]
    zoo = os.path.join(scratch, "job")
    model = os.path.join(zoo, meta["train_name"], "model.json")
    jobs = [([mocc, "train", spec, "--zoo", zoo], model, read_bytes(os.path.join(ref, "model.json")),
             meta["train_iterations"])]
    return run_cli(jobs, zoo, [mocc, "validate", spec], seconds, tally, "train_iters_per_s")


def request(sock_path, line, timeout=60.0):
    """One request on a fresh connection; returns the reply line bytes
    (without the newline) or None on a transport error."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(sock_path)
        s.sendall(line)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                return None
            buf += chunk
        return buf[:-1]
    except OSError:
        return None
    finally:
        s.close()


class Daemon:
    """A `mocc serve --socket` process on a fresh copy of the snapshot."""

    def __init__(self, mocc, snapshot, scratch, tag):
        self.store = os.path.join(scratch, f"store-{tag}")
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(snapshot, self.store)
        # Relative to the checkout root: socket paths are limited to
        # about 100 bytes, and the checkout may sit deep.
        self.sock = os.path.join(os.path.relpath(scratch), f"s{tag}.sock")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [mocc, "serve", "--cache-dir", self.store, "--socket", self.sock, "--threads", "2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def wait_ready(self):
        """From spawn to the first `ping` reply: (daemon CPU seconds,
        wall seconds)."""
        deadline = self.t0 + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                fail("mocc serve exited during start-up", 1)
            if os.path.exists(self.sock):
                reply = request(self.sock, b'{"op":"ping"}\n', timeout=10)
                if reply == b'{"ok":true,"op":"ping"}':
                    return start_cpu_seconds(self.proc.pid), time.perf_counter() - self.t0
            time.sleep(0.0005)
        fail("mocc serve did not answer ping", 1)

    def stop(self):
        """Asks the daemon to shut down; returns its exit code."""
        if self.proc.poll() is None:
            request(self.sock, b'{"op":"shutdown"}\n', timeout=10)
        return self.proc.wait(timeout=60)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def serve_expected(manifest, ref, meta):
    """Per spec: request line, first-request reply, warm reply."""
    table = {}
    for spec in manifest["specs"]:
        with open(spec, "rb") as f:
            doc = f.read().strip()
        report = ref_bytes(ref, spec)
        n = meta["cells"][spec]
        misses = manifest["new_cells"].get(spec, 0)
        line = b'{"op":"run","spec":' + doc + b"}\n"

        def reply(h, m, report=report):
            return b'{"hits":%d,"misses":%d,"ok":true,"report":%s}' % (h, m, report)

        table[spec] = (line, reply(n - misses, misses), reply(n, 0))
    return table


def serve_clients(daemon, manifest, expected, seconds, tally):
    """Two closed-loop clients, one connection per request, no think
    time. Returns (round trips in seconds, completed requests, wall
    seconds, daemon CPU seconds per request: the median over the blocks
    of the first SERVE_CPU_REQUESTS)."""
    stats_line = b'{"op":"stats"}\n'
    deadline = time.perf_counter() + seconds
    results = [[] for _ in manifest["schedules"]]  # (rtt, ok) per client
    block = SERVE_CPU_REQUESTS // SERVE_CPU_BLOCKS
    marks, lock = [(process_cpu_seconds(daemon.proc.pid), 0)], threading.Lock()

    def client(schedule, mine):
        seen = set()
        for spec in schedule:
            if time.perf_counter() >= deadline:
                break
            line = stats_line if spec == "stats" else expected[spec][0]
            t0 = time.perf_counter()
            reply = request(daemon.sock, line)
            rtt = time.perf_counter() - t0
            if spec == "stats":
                ok = reply is not None and reply.startswith(b'{"hits":') and b'"ok":true' in reply
            else:
                want = expected[spec][1] if spec not in seen else expected[spec][2]
                seen.add(spec)
                ok = reply == want
                if not ok:
                    log(f"perfbench: wrong serve reply for {spec}: {(reply or b'')[:200]!r}")
            mine.append((rtt, ok))
            with lock:
                served = sum(len(r) for r in results)
                if len(marks) <= SERVE_CPU_BLOCKS and served >= len(marks) * block:
                    marks.append((process_cpu_seconds(daemon.proc.pid), served))

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client, args=(s, r))
               for s, r in zip(manifest["schedules"], results)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    rtts = [x for r in results for x in r]
    if len(marks) == 1:  # fewer requests than one block: use them all
        marks.append((process_cpu_seconds(daemon.proc.pid), len(rtts)))
    for _, ok in rtts:
        tally.unit(ok)
    done = sum(ok for _, ok in rtts)
    per_block = [(c1 - c0) / max(n1 - n0, 1) for (c0, n0), (c1, n1) in zip(marks, marks[1:])]
    return ([r if ok else float("inf") for r, ok in rtts], done, wall,
            statistics.median(per_block))


def cache_verify(mocc, store, tally):
    _, code, _, _ = run_timed([mocc, "cache", "verify", "--cache-dir", store])
    tally.unit(code == 0)


def run_serve(mocc, manifest, ref, meta, seconds, scratch, tally):
    snapshot = os.path.join(ref, "snapshot")
    expected = serve_expected(manifest, ref, meta)
    setups, setup_walls = [], []
    for k in range(SERVE_SETUP_REPEATS):
        d = Daemon(mocc, snapshot, scratch, f"setup{k}")
        try:
            cpu, wall = d.wait_ready()
            setups.append(cpu)
            setup_walls.append(wall)
            d.stop()
        finally:
            d.kill()
        shutil.rmtree(d.store, ignore_errors=True)
    d = Daemon(mocc, snapshot, scratch, "run")
    try:
        d.wait_ready()
        rtts, done, wall, cpu_per_request = serve_clients(d, manifest, expected, seconds, tally)
        rss = peak_rss_mb(d.proc.pid)
        code = d.stop()
        tally.unit(code == 0)
    finally:
        d.kill()
    cache_verify(mocc, d.store, tally)
    rate = done / wall
    p50, p95 = percentile(rtts, 50) * 1e3, percentile(rtts, 95) * 1e3
    log(f"perfbench: {len(rtts)} requests, {len(rtts) - int(0.95 * len(rtts))} beyond p95")
    return {
        "setup_s": statistics.median(setups),
        "cpu_ms_per_unit": cpu_per_request * 1e3,
    }, {
        "setup_wall_s": ("s", statistics.median(setup_walls)),
        "peak_rss_mb": ("MiB", rss),
        "requests_per_s": ("1/s", rate),
        "rtt_p50_ms": ("ms", p50),
        "rtt_p95_ms": ("ms", p95),
        "rtt_mean_ms": ("ms", statistics.fmean(rtts) * 1e3),
    }


RUNNERS = {
    "sweep-baseline": run_sweeps,
    "sweep-policy": run_sweeps,
    "serve-cache": run_serve,
    "train": run_train,
}

# The end-to-end metrics BENCHMARK.json lists, with their units: CPU
# time of the program processes. On a shared host wall-clock figures
# drift with other tenants' load by more than any useful bound, and
# peak memory follows the allocator's history of each seed's inputs,
# so throughput, latency and memory are printed but not gated.
UNITS = {
    "setup_s": "s",
    "cpu_ms_per_unit": "ms",
}


# ---- traced run ----------------------------------------------------------


def traced(workload, mocc, tracer, manifest, ref, meta, seconds, scratch, tally):
    """Per-layer metrics: the tracer's in-process replay, plus (for
    serve-cache) a short socket phase for the round trips that
    `serve.wait_ms` is measured against."""
    extra = []
    rtt_mean = None
    if workload == "serve-cache":
        _, named = run_serve(mocc, manifest, ref, meta, max(1.0, seconds / 2), scratch, tally)
        rtt_mean = named["rtt_mean_ms"][1]
        extra = ["--store", os.path.join(ref, "snapshot")]
    man = os.path.join(WORK, "inputs", workload, str(manifest["seed"]), "manifest.json")
    spans = os.path.join(WORK, "spans", f"{workload}-{manifest['seed']}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    r = subprocess.run(
        [tracer, "trace", man, ref, "--seconds", str(seconds), "--scratch", scratch,
         "--spans", spans] + extra,
        stdout=subprocess.PIPE, stderr=sys.stderr, timeout=PROCESS_TIMEOUT_S, text=True)
    if r.returncode != 0 or not r.stdout.strip():
        fail("the traced replay failed", 1)
    out = json.loads(r.stdout.strip().splitlines()[-1])
    print(f"spans of one traced pass: {spans}")
    tally.attempted += out["attempted"]
    tally.failed += out["failed"]
    metrics = out["metrics"]
    if rtt_mean is not None:
        metrics["serve.wait_ms"] = {
            "value": rtt_mean - metrics["serve.service_ms"]["value"], "unit": "ms"}
    return metrics


# ---- main ----------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "bench"))):
        fail("run from the root of a mocc checkout (no Cargo.toml / crates/bench here)")
    mocc, tracer = build()
    SPAWN[:] = [tracer, "spawn"]
    os.makedirs(WORK, exist_ok=True)
    host = host_fingerprint()
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload}: {gen.WORKLOADS[args.workload]}")

    manifest = inputs(args.workload, args.seed)
    ref, meta = reference(args.workload, args.seed, manifest, mocc, tracer)
    scratch = os.path.abspath(os.path.join(WORK, "runs", f"{args.workload}-{args.seed}-{os.getpid()}"))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(args.workload, mocc, tracer, manifest, ref, meta, args.seconds,
                             scratch, tally)
        else:
            values, named = RUNNERS[args.workload](mocc, manifest, ref, meta, args.seconds,
                                                   scratch, tally)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}
            for name, (unit, value) in named.items():
                print(f"  {name:<24} {value:.6g} {unit}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    error_rate = tally.failed / max(1, tally.attempted)
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<24} {error_rate:.6g} ratio ({tally.failed} of {tally.attempted} units)")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }, sort_keys=True))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
