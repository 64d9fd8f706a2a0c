"""Self-test of the benchmark's own checks.

    python3 servebench/selftest.py

Run from the repository root. Shows that
  - BENCHMARK.json lists the workloads and metrics the run reports;
  - the generator is deterministic: one seed gives byte-identical request
    streams in two separate processes, another seed a different stream;
  - the reply check counts a perturbed reply as a failure: a changed byte
    of an expected body, a non-200 status and a changed synth figure all
    fail, while a synth reply differing only in its wall-clock fields
    passes;
  - a served exchange whose reply is perturbed in flight is counted as a
    failed operation by the same path the timed loop uses.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402
import run  # noqa: E402

failures = []


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def compact(obj):
    """A reply body as the server writes it: compact JSON."""
    return json.dumps(obj, separators=(",", ":")).encode()


def stream_bytes(workload, seed, count=200):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
         "--seed", str(seed), "--count", str(count), "--designs", run.DESIGNS],
        check=True, stdout=subprocess.PIPE).stdout


def main():
    os.makedirs(run.OUT, exist_ok=True)
    run.build()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect([w["name"] for w in spec["workloads"]] == gen.WORKLOADS,
           "BENCHMARK.json names the generator's workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
           and [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json names the metrics run.py reports, with their units")
    for w in gen.WORKLOADS:
        a, b, c = stream_bytes(w, 11), stream_bytes(w, 11), stream_bytes(w, 12)
        expect(a == b, "%s: seed 11 gives byte-identical streams in two processes" % w)
        expect(a != c, "%s: seeds 11 and 12 give different streams" % w)

    for w in gen.WORKLOADS:
        expected = run.load_expected(w)
        rid, body = next(iter(expected.items()))
        raw = body.encode()
        if '"op":"synth"' in body:
            # the stored body is already masked; rebuild a live-looking reply
            obj = json.loads(body)
            obj["text"] = obj["text"].replace("<masked>", "0.37")
            obj["data"]["synth_s"] = 0.37
            raw = compact(obj)
        expect(run.check(expected, rid, 200, raw), "%s: the expected reply passes" % w)
        i = raw.index(b'"text":') + 12
        flipped = raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]
        expect(not run.check(expected, rid, 200, flipped), "%s: one flipped byte fails" % w)
        expect(not run.check(expected, rid, 500, raw), "%s: a non-200 status fails" % w)
        expect(not run.check(expected, "no/such/request", 200, raw),
               "%s: a reply to an unknown request fails" % w)

    synth = run.load_expected("actuals")
    rid = next(r for r in synth if r.endswith("synth-fast"))
    obj = json.loads(synth[rid])
    obj["text"] = obj["text"].replace("<masked>", "1.25")
    obj["data"]["synth_s"] = 1.25
    expect(run.check(synth, rid, 200, compact(obj)),
           "actuals: a synth reply differing only in wall-clock time passes")
    obj["data"]["fmax_mhz"] = obj["data"]["fmax_mhz"] + 1.0
    expect(not run.check(synth, rid, 200, compact(obj)),
           "actuals: a synth reply with another Fmax fails")

    # in flight: a real server answers, every reply is perturbed before
    # the check, and the timed loop counts each one as a failed operation
    real_post = run.post

    def perturbing_post(port, body):
        status, reply = real_post(port, body)
        return status, reply.replace(b"valid", b"vaLid", 1).replace(b"EKIT", b"EKIt", 1)

    run.post = perturbing_post
    try:
        res = run.served("cost-cold", 1, 0.5)
    finally:
        run.post = real_post
    expect(res["attempted"] > 0 and res["failed"] == res["attempted"],
           "served loop: %d of %d perturbed replies counted as failed"
           % (res["failed"], res["attempted"]))
    res = run.served("cost-cold", 1, 0.5)
    expect(res["attempted"] > 0 and res["failed"] == 0,
           "served loop: 0 of %d unperturbed replies counted as failed" % res["attempted"])

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
