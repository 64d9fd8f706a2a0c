"""Served benchmark of `tybec serve`.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `tybec` and the benchmark tool from
source, starts the real `tybec serve` on a loopback ephemeral port, and
drives one seeded workload at it from this single-threaded client, one
request at a time (closed loop). Every reply is checked against the
committed expected answers. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 additionally
replays the stream in-process (servebench/tool) and reports the
per-layer metrics instead. `--record` rewrites the expected answers instead of
measuring. See servebench/README.md.
"""

import argparse
import gzip
import json
import os
import re
import select
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

OUT = os.path.join(HERE, "out")
DESIGNS = os.path.join(OUT, "designs")
EXPECTED = os.path.join(HERE, "expected")
TYBEC = os.path.join("_build", "default", "bin", "tybec.exe")
TOOL = os.path.join("_build", "default", "servebench", "tool", "main.exe")

SETUP_SPAWNS = 9          # server start-ups per run; setup_s is their median
READY_TIMEOUT_S = 30.0
REPLY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
WORKERS = 2
# p99 needs at least 10 replies beyond it: with the nearest-rank
# quantile below that takes 1100 timed replies. A run that has fewer
# when --seconds are up keeps measuring until it has them, for at most
# MAX_TIMED_S seconds in all.
MIN_TIMED_REPLIES = 1100
MAX_TIMED_S = 90.0

# In-process replay length (requests after the warm-up) per workload:
# fixed, so the traced run's exact counts are the same on every run of a
# seed.
REPLAY = {"cost-cold": 384, "cost-hot": 2000, "explore-sweep": 200, "actuals": 96}

# Count metrics of the traced run, required equal across processes:
# the engine's in all four engine replays, the layers' in both layer
# replays.
ENGINE_EXACT = [
    "engine.response_cache.hit_ratio", "engine.parse_cache.hit_ratio",
    "dse.point_cache.hit_ratio",
]
LAYER_EXACT = [
    "ir.parse_minor_words", "front.derive_minor_words",
    "cost.evaluate_minor_words.pipe", "cost.evaluate_minor_words.par4",
    "cost.evaluate_minor_words.par16", "cost.evaluate_minor_words.par64",
    "sim.techmap_minor_words",
    "dse.points_evaluated", "dse.prune_ratio", "sim.anneal_moves",
]

END_TO_END = [("setup_s", "s"), ("req_per_s", "1/s"), ("p50_ms", "ms"),
              ("p99_ms", "ms"), ("server_rss_mb", "MB")]

PER_LAYER = [
    ("protocol.decode_us", "us"), ("protocol.request_bytes", "bytes"),
    ("protocol.encode_us", "us"),
    ("engine.submit_hit_us", "us"), ("engine.submit_miss_us", "us"),
    ("engine.response_cache.hit_ratio", "ratio"),
    ("engine.parse_cache.hit_ratio", "ratio"),
    ("daemon.wire_us", "us"),
    ("ir.parse_us", "us"), ("ir.validate_us", "us"), ("ir.analysis_us", "us"),
    ("ir.parse_minor_words", "words"),
    ("front.lower_us", "us"), ("front.derive_us", "us"),
    ("front.derive_minor_words", "words"),
] + [("cost.evaluate_us." + t, "us") for t in ("pipe", "par4", "par16", "par64")] + [
    ("cost.evaluate_minor_words." + t, "words") for t in ("pipe", "par4", "par16", "par64")
] + [
    ("cost.bounds_us", "us"),
    ("dse.sweep_us", "us"), ("dse.points_evaluated", "count"),
    ("dse.prune_ratio", "ratio"), ("dse.point_cache.hit_ratio", "ratio"),
    ("sim.techmap_us", "us"), ("sim.techmap_minor_words", "words"),
    ("sim.anneal_moves", "count"), ("sim.cyclesim_us", "us"),
    ("gc.minor_words_per_req", "words"), ("gc.major_words_per_req", "words"),
    ("trace.overhead_pct", "%"), ("closure.ratio", "ratio"),
]


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    for need in ("dune-project", os.path.join("bin", "tybec.ml"), "lib"):
        if not os.path.exists(need):
            raise BenchError("run from the repository root: %s is missing" % need)
    # no shared dune cache: the build writes nowhere but _build/
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/tybec.exe",
                        "./servebench/tool/main.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise BenchError("build failed")
    gen.ensure_designs(TOOL, DESIGNS)


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------

class Server:
    """One `tybec serve` process on an ephemeral loopback port.

    The server's stderr is a pipe: the start-up waits on it for the
    line that announces the bound port, then a thread keeps draining it
    so the server never blocks on a full pipe."""

    def __init__(self, tag):
        self.log_path = os.path.join(OUT, "server-%s.log" % tag)
        env = {k: v for k, v in os.environ.items() if not k.startswith("TYTRA_")}
        self.err = []
        self.drainer = None
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [TYBEC, "serve", "--addr", "127.0.0.1:0", "--workers", str(WORKERS),
             "--jobs", "1"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env)
        try:
            self.port = self._wait_port(t0)
            self._wait_healthy(t0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _stderr(self):
        return b"".join(self.err).decode(errors="replace")

    def _wait_port(self, t0):
        fd = self.proc.stderr.fileno()
        while True:
            left = t0 + READY_TIMEOUT_S - time.perf_counter()
            if left <= 0:
                raise BenchError("tybec serve did not announce its address")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                self.proc.wait()
                raise BenchError("tybec serve exited %s before binding:\n%s"
                                 % (self.proc.returncode, self._stderr()))
            self.err.append(chunk)
            m = re.search(rb"engine serving on 127\.0\.0\.1:(\d+)", b"".join(self.err))
            if m:
                self.drainer = threading.Thread(target=self._drain, args=(fd,), daemon=True)
                self.drainer.start()
                return int(m.group(1))

    def _drain(self, fd):
        for chunk in iter(lambda: os.read(fd, 65536), b""):
            self.err.append(chunk)

    def _wait_healthy(self, t0):
        # the port is announced once it listens, so the first probe
        # normally answers
        while time.perf_counter() - t0 < READY_TIMEOUT_S:
            try:
                status, body = exchange(self.port, b"GET /healthz HTTP/1.0\r\n\r\n")
                if status == 200 and body.strip() == b"ok":
                    return
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise BenchError("tybec serve exited %s before /healthz:\n%s"
                                 % (self.proc.returncode, self._stderr()))
            time.sleep(0.0001)
        raise BenchError("tybec serve never answered /healthz")

    def rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def _reaped(self):
        """After the process has exited: collect and keep its stderr."""
        if self.drainer is not None:
            self.drainer.join()
        self.proc.stderr.close()
        with open(self.log_path, "wb") as f:
            f.write(b"".join(self.err))

    def stop(self):
        """SIGTERM, reap, and require a clean drain with exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("tybec serve did not drain within %gs" % DRAIN_TIMEOUT_S)
        except BaseException:   # interrupted while waiting
            self.kill()
            raise
        self._reaped()
        err = self._stderr()
        if code != 0 or "drain:" not in err:
            raise BenchError("tybec serve exited %s without a clean drain:\n%s" % (code, err))

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self.proc.stderr.closed:
            self._reaped()


# The server answers one request per connection and closes it. Closing
# our end with a zero linger resets the connection instead of leaving it
# in TIME_WAIT, so thousands of requests a second do not run the loopback
# port range dry.
LINGER_RESET = struct.pack("ii", 1, 0)


def exchange(port, raw, timeout=REPLY_TIMEOUT_S):
    """One HTTP exchange on a fresh connection; (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, LINGER_RESET)
        s.sendall(raw)
        chunks = []
        while True:
            c = s.recv(262144)
            if not c:
                break
            chunks.append(c)
    data = b"".join(chunks)
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise OSError("truncated reply")
    status = int(head.split(b" ", 2)[1])
    return status, body


def post(port, body):
    b = body.encode()
    return exchange(port, b"POST /v1/submit HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(b) + b)


# ---------------------------------------------------------------------------
# Expected answers
# ---------------------------------------------------------------------------

SYNTH_TIME = re.compile(r"synthesis time: [0-9.]+ s")


def mask(body):
    """The reply as compared: synth replies lose their wall-clock fields."""
    text = body.decode(errors="replace")
    if '"op":"synth"' not in text:
        return text
    obj = json.loads(text)
    obj["text"] = SYNTH_TIME.sub("synthesis time: <masked> s", obj.get("text", ""))
    if isinstance(obj.get("data"), dict) and "synth_s" in obj["data"]:
        obj["data"]["synth_s"] = None
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def expected_path(workload):
    return os.path.join(EXPECTED, workload + ".jsonl.gz")


def load_expected(workload):
    path = expected_path(workload)
    if not os.path.exists(path):
        raise BenchError("no expected answers at %s (run with --record)" % path)
    with gzip.open(path, "rt") as f:
        return {e["id"]: e["body"] for e in map(json.loads, f)}


def check(expected, rid, status, body):
    """True iff the reply is the committed answer for request rid."""
    try:
        return status == 200 and expected.get(rid) == mask(body)
    except ValueError:   # a synth reply that is not JSON
        return False


def record(workload):
    items = gen.universe(workload, DESIGNS)
    srv = Server("record-" + workload)
    try:
        rows = []
        for rid, b in items:
            status, body = post(srv.port, b)
            if status != 200:
                raise BenchError("%s: HTTP %d: %s" % (rid, status, body[:300]))
            rows.append({"id": rid, "body": mask(body)})
    finally:
        srv.stop()
    os.makedirs(EXPECTED, exist_ok=True)
    with gzip.GzipFile(expected_path(workload), "wb", mtime=0) as f:
        for r in rows:
            f.write((json.dumps(r, sort_keys=True) + "\n").encode())
    log("%s: recorded %d expected replies" % (workload, len(rows)))


# ---------------------------------------------------------------------------
# Served phase
# ---------------------------------------------------------------------------

def quantile(xs, q):
    s = sorted(xs)
    return s[min(len(s) - 1, int(q * len(s)))]


def served(workload, seed, seconds):
    items = gen.universe(workload, DESIGNS)
    expected = load_expected(workload)
    setups = []
    for k in range(SETUP_SPAWNS - 1):
        srv = Server("%s-setup%d" % (workload, k))
        srv.stop()
        setups.append(srv.setup_s)
    attempted = failed = 0
    lat = []
    srv = Server(workload)
    try:
        setups.append(srv.setup_s)
        it = gen.stream(workload, seed, items)

        def one():
            nonlocal attempted, failed
            rid, b = items[next(it)]
            attempted += 1
            t0 = time.perf_counter()
            try:
                status, body = post(srv.port, b)
                ok = check(expected, rid, status, body)
            except OSError as e:   # timeouts included
                log("%s: %s" % (rid, e))
                ok = False
            dt = time.perf_counter() - t0
            if not ok:
                failed += 1
            return dt

        for _ in range(gen.WARMUP[workload]):
            one()
        t_start = time.perf_counter()
        t_end = t_start + seconds
        t_cap = t_start + max(seconds, MAX_TIMED_S)
        while True:
            t = time.perf_counter()
            if t >= t_end and len(lat) >= MIN_TIMED_REPLIES or t >= t_cap:
                break
            lat.append(one())
        elapsed = time.perf_counter() - t_start
        rss = srv.rss_mb()
    except BaseException:
        srv.kill()
        raise
    srv.stop()
    lat_ms = [x * 1000.0 for x in lat]
    p99 = quantile(lat_ms, 0.99)
    beyond = sum(1 for x in lat_ms if x > p99)
    if beyond < 10:
        raise BenchError("%d timed replies in %.0f s leave %d beyond p99, fewer than 10"
                         % (len(lat_ms), elapsed, beyond))
    # the sample count beside the percentiles, on stdout before the result
    print("%s: p50/p99 over %d timed replies, %d beyond p99; %d attempted, %d failed"
          % (workload, len(lat_ms), beyond, attempted, failed), flush=True)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "req_per_s": len(lat_ms) / elapsed,
            "p50_ms": statistics.median(lat_ms),
            "p99_ms": p99,
            "server_rss_mb": rss,
        },
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def tool(workload, mode, tag, *args):
    """One in-process replay (servebench/tool) in a fresh process."""
    out = os.path.join(OUT, "%s-%s-%s.json" % (workload, mode, tag))
    spans = ["--spans", os.path.join(OUT, "%s-spans-%s-%s.jsonl" % (workload, mode, tag))]
    r = subprocess.run([TOOL, mode, "--out", out] + list(args) + spans,
                       stdin=subprocess.DEVNULL)
    if r.returncode != 0:
        raise BenchError("%s replay %s exited %d" % (mode, tag, r.returncode))
    with open(out) as f:
        return json.load(f)


def same_counts(names, a, b, what):
    bad = [k for k in names if a["metrics"].get(k) != b["metrics"].get(k)]
    for k in bad:
        log("exact count %s differs between two %s processes: %r vs %r"
            % (k, what, a["metrics"].get(k), b["metrics"].get(k)))
    return not bad


def traced(workload, seed, srv_result):
    """In-process replays of the stream's first requests, each in a
    process of its own: the engine untraced and traced (decode, submit,
    encode), twice each and interleaved, then twice the engine's own steps
    for each response-cache miss (the layers)."""
    items = gen.universe(workload, DESIGNS)
    it = gen.stream(workload, seed, items)
    stream_path = os.path.join(OUT, "%s-stream.jsonl" % workload)
    misses_path = os.path.join(OUT, "%s-misses.txt" % workload)
    with open(stream_path, "w") as f:
        for _ in range(gen.WARMUP[workload] + REPLAY[workload]):
            f.write(items[next(it)][1] + "\n")
    plain, eng, plain2, eng2 = [
        tool(workload, "engine", "%s%d" % (("plain", "traced")[tr], k),
             "--stream", stream_path, "--trace", str(tr), "--misses", misses_path)
        for k in (1, 2) for tr in (0, 1)]
    la = tool(workload, "layers", "a", "--stream", stream_path, "--misses", misses_path)
    lb = tool(workload, "layers", "b", "--stream", stream_path, "--misses", misses_path)
    exact = (same_counts(ENGINE_EXACT, plain, eng, "engine")
             and same_counts(ENGINE_EXACT, plain, plain2, "engine")
             and same_counts(ENGINE_EXACT, plain, eng2, "engine")
             and same_counts(LAYER_EXACT, la, lb, "layer"))
    log("%s: warm Report.evaluate minor words on SOR 64^3 %s"
        % (workload, json.dumps(la["warm_evaluate_minor_words"])))
    pm, em, lm = plain["metrics"], eng["metrics"], la["metrics"]
    m = dict(lm)
    for k in ("protocol.decode_us", "protocol.encode_us", "engine.submit_hit_us",
              "engine.submit_miss_us"):
        m[k] = em[k]
    for k in ENGINE_EXACT + ["protocol.request_bytes", "gc.minor_words_per_req",
                             "gc.major_words_per_req"]:
        m[k] = pm[k]
    m["daemon.wire_us"] = srv_result["metrics"]["p50_ms"] * 1000.0 - pm["inproc_p50_us"]
    # a process's speed wanders by 10-20% on a shared host: compare the
    # faster of each pair
    m["trace.overhead_pct"] = (
        min(e["metrics"]["inproc_request_sum_s"] for e in (eng, eng2))
        / min(p["metrics"]["inproc_request_sum_s"] for p in (plain, plain2)) - 1.0) * 100.0
    m["closure.ratio"] = lm["blocking_sum_us"] / em["submit_miss_sum_us"]
    sources = dict(la["source"], **eng["source"])
    probed = sorted(k for k, v in sources.items() if v == "probe")
    lbm = lb["metrics"]
    engines = [e["metrics"] for e in (plain, eng, plain2, eng2)]
    failed = int(sum(e["failed"] for e in engines) + lm["failed"] + lbm["failed"])
    attempted = int(sum(e["requests"] for e in engines) + lm["replayed"] + lbm["replayed"])
    return m, attempted, failed, exact, probed


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description="Served benchmark of tybec serve.")
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the expected answers of the workload (all if none given)")
    a = ap.parse_args()
    # a SIGTERM unwinds like an error, so the server is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        os.makedirs(OUT, exist_ok=True)
        build()
        if a.record:
            for w in [a.workload] if a.workload else gen.WORKLOADS:
                record(w)
            return 0
        if not a.workload:
            ap.error("--workload is required")
        res = served(a.workload, a.seed, a.seconds)
        attempted, failed = res["attempted"], res["failed"]
        correct = failed == 0
        if a.trace:
            layer, att, fail, exact, probed = traced(a.workload, a.seed, res)
            # layers this stream never reaches are measured by the fixed
            # SOR probe instead; name them beside the result
            print("%s: from the fixed SOR probe, not this stream: %s"
                  % (a.workload, ", ".join(probed) or "none"), flush=True)
            attempted += att
            failed += fail
            correct = correct and fail == 0 and exact
            metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
        else:
            metrics = {n: {"value": res["metrics"][n], "unit": u} for n, u in END_TO_END}
    except BenchError as e:
        log("error: %s" % e)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
