"""Seeded workload generator for the served benchmark.

Each workload has a fixed *universe* of distinct requests (independent of
the seed, so their expected replies can be committed once) and a seeded
*stream* over that universe: the seed only decides order and draws, and
the same seed always yields byte-identical request bodies.

    python3 servebench/gen.py --workload cost-cold --seed 7 --count 100 \
        --designs servebench/out/designs

prints the first 100 request bodies of the stream (warm-up included),
one per line. The IR sources are written by the benchmark tool
(`main.exe designs`, run by `servebench/run.py`) into the design
directory named by --designs.
"""

import argparse
import json
import os
import random
import subprocess
import sys

WORKLOADS = ["cost-cold", "cost-hot", "explore-sweep", "actuals"]

KERNELS = ["sor", "hotspot", "srad", "lavamd"]

# Sizes per kernel whose index space every lane count below divides:
# SOR is size^3 (4 | size), Hotspot and SRAD size^2 (8 | size), LavaMD
# boxes x 100 (16 | boxes).
SIZES = {
    "sor": [8, 12, 16, 20, 24, 28, 32, 36],
    "hotspot": [32, 48, 64, 80, 96, 112, 128, 144],
    "srad": [32, 48, 64, 80, 96, 112, 128, 144],
    "lavamd": [16, 32, 48, 64, 80, 96, 112, 128],
}

COLD_LANES = [1, 4, 16, 64]
ACTUALS_LANES = [1, 4, 16]
ACTUALS_SIZES = 6          # first sizes of each kernel used by `actuals`
HOT_SIZES = 2              # first sizes of each kernel in the hot set
HOT_SET = 32

FORMS = ["A", "B", "C"]

# Exploration programs: SOR, Hotspot and SRAD spaces reach par1024;
# LavaMD sweeps exhaustively to 64 lanes (see universe()).
EXPLORE_PROGRAMS = [
    ("sor", 16), ("sor", 32), ("hotspot", 32), ("hotspot", 64),
    ("srad", 32), ("srad", 64), ("lavamd", 16), ("lavamd", 32),
]
EXPLORE_LANES = [64, 256, 1024]
# Share of exhaustive (prune: false) SOR/Hotspot/SRAD requests per
# max_lanes; with LavaMD's, about 30% of all requests are exhaustive.
# 1024-lane sweeps are always pruned: an exhaustive one takes 130-380 ms
# and fills the server's heap with par128-par1024 designs, so a handful of
# them would decide the run's throughput, tail and memory.
EXHAUSTIVE_SHARE = {64: 0.2, 256: 0.18, 1024: 0.0}
# 120 nki values: with 8 programs and 3 forms the universe (3960
# requests) is longer than a run, so a run never wraps into a second pass
# whose sweeps the DSE point cache would answer.
EXPLORE_NKI = list(range(1, 81)) + list(range(84, 244, 4))

WARMUP = {"cost-cold": 32, "cost-hot": HOT_SET, "explore-sweep": 4, "actuals": 8}


def design_name(kernel, size, lanes):
    return "%s_s%d_l%d.tirl" % (kernel, size, lanes)


def design_specs():
    """Every (kernel, size, lanes) source the universes use."""
    specs = []
    for k in KERNELS:
        for s in SIZES[k]:
            for l in COLD_LANES:
                specs.append((k, s, l))
    return specs


def ensure_designs(tool, design_dir):
    """Write the IR sources with the benchmark tool (once per directory)."""
    specs = design_specs()
    missing = [sp for sp in specs
               if not os.path.exists(os.path.join(design_dir, design_name(*sp)))]
    if not missing:
        return
    os.makedirs(design_dir, exist_ok=True)
    spec = "".join("%s %d %d %s\n" % (k, s, l, os.path.join(design_dir, design_name(k, s, l)))
                   for k, s, l in missing)
    subprocess.run([tool, "designs"], input=spec.encode(), check=True)


def body(obj):
    return json.dumps(obj, separators=(",", ":"))


def _source(design_dir, kernel, size, lanes):
    with open(os.path.join(design_dir, design_name(kernel, size, lanes))) as f:
        return f.read()


def _cost_requests(i, text):
    """The three requests carried by source number i: check and two costs."""
    check = {"v": 1, "op": "check", "source": {"inline": text}}
    cost1 = {"v": 1, "op": "cost", "source": {"inline": text},
             "form": FORMS[i % 3], "nki": [1, 4, 16, 64][i % 4], "optimize": False}
    cost2 = {"v": 1, "op": "cost", "source": {"inline": text},
             "form": FORMS[(i + 1) % 3], "nki": [2, 8, 32, 128][(i // 3) % 4],
             "optimize": i % 4 == 0}
    return [check, cost1, cost2]


def universe(workload, design_dir):
    """List of (request id, body) — fixed, seed-independent."""
    items = []
    if workload in ("cost-cold", "cost-hot"):
        i = 0
        for k in KERNELS:
            for s in SIZES[k]:
                for l in COLD_LANES:
                    text = _source(design_dir, k, s, l)
                    for j, req in enumerate(_cost_requests(i, text)):
                        items.append(("%s/%d/%d/%s" % (k, s, l, ["check", "cost1", "cost2"][j]), body(req)))
                    i += 1
        if workload == "cost-hot":
            # the hot set: the first cost request of every pipe..par16
            # source of each kernel's two smallest sizes (24), then the
            # checks of their par16 sources (8)
            def hot(kind, lanes):
                return [(rid, b) for rid, b in items
                        for k, s, l, op in [rid.split("/")]
                        if op == kind and int(l) in lanes
                        and int(s) in SIZES[k][:HOT_SIZES]]
            items = (hot("cost1", (1, 4, 16)) + hot("check", (16,)))[:HOT_SET]
    elif workload == "explore-sweep":
        pick = random.Random("explore-universe")   # fixed: not the run seed
        i = 0
        for k, s in EXPLORE_PROGRAMS:
            for f in FORMS:
                for nki in EXPLORE_NKI:
                    if k == "lavamd":
                        # LavaMD's pruned sweeps cost as much as its
                        # exhaustive 64-lane ones: it only sweeps those
                        reqs = [(64, "base", False)]
                    elif i % 2 == 0:
                        # a revisit of the same program at a wider
                        # max_lanes a few requests later (the DSE point
                        # cache's hits)
                        reqs = [(64, "base", None), (256, "wide", None)]
                    else:
                        reqs = [(EXPLORE_LANES[(i // 2) % 3], "base", None)]
                    for m, role, prune in reqs:
                        if prune is None:
                            prune = pick.random() >= EXHAUSTIVE_SHARE[m]
                        items.append(("%s/%d/%s/%d/%d/%s/%s" % (k, s, f, nki, m, "prune" if prune else "exhaustive", role),
                                      body({"v": 1, "op": "explore", "kernel": k, "size": s,
                                            "max_lanes": m, "form": f, "nki": nki,
                                            "jobs": 1, "prune": prune})))
                    i += 1
    elif workload == "actuals":
        i = 0
        for k in KERNELS:
            for s in SIZES[k][:ACTUALS_SIZES]:
                for l in ACTUALS_LANES:
                    text = _source(design_dir, k, s, l)
                    reqs = [
                        ("synth-fast", {"v": 1, "op": "synth", "source": {"inline": text},
                                        "effort": "fast", "optimize": False}),
                        ("synth-normal", {"v": 1, "op": "synth", "source": {"inline": text},
                                          "effort": "normal", "optimize": False}),
                        ("sim", {"v": 1, "op": "sim", "source": {"inline": text},
                                 "form": FORMS[i % 3], "nki": [1, 4, 16][i % 3],
                                 "optimize": False}),
                    ]
                    for name, req in reqs:
                        items.append(("%s/%d/%d/%s" % (k, s, l, name), body(req)))
                    i += 1
    else:
        raise ValueError("unknown workload %r" % workload)
    return items


def _explore_order(items, rng):
    """Seeded order of the exploration universe. Base requests of each
    class (kernel, form, max_lanes, prune) are spread evenly through the
    order, so any prefix carries the workload's mix; each revisit follows
    its base request 2-6 places later. Form matters as much as the class:
    a pruned form-C sweep prunes little and takes 5-15 times as long as a
    pruned form-A/B one."""
    classes = {}
    wide_of = {}
    for i, (rid, _) in enumerate(items):
        if rid.endswith("/wide"):
            wide_of[i - 1] = i
        else:
            p = rid.split("/")
            classes.setdefault((p[0], p[2], p[4], p[5]), []).append(i)
    keyed = []
    for members in classes.values():
        rng.shuffle(members)
        n = len(members)
        keyed += [((k + rng.random()) / n, b) for k, b in enumerate(members)]
    keyed.sort()
    seq, pending = [], []   # pending: sorted (due position, item)
    for _, b in keyed:
        while pending and pending[0][0] <= len(seq):
            seq.append(pending.pop(0)[1])
        seq.append(b)
        if b in wide_of:
            pending.append((len(seq) + rng.randint(2, 6), wide_of[b]))
            pending.sort()
    seq += [w for _, w in pending]
    return seq


def stream(workload, seed, items):
    """Endless generator of universe indices; the first WARMUP[workload]
    are the untimed warm-up."""
    rng = random.Random("%s:%d" % (workload, seed))
    n = len(items)
    if workload == "cost-hot":
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            yield i
        # Zipf-like skew over the fixed universe order: the seed draws,
        # it does not re-rank, so every seed sees the same expected mix
        weights = [1.0 / (r + 1) for r in range(n)]
        while True:
            for i in rng.choices(range(n), weights=weights, k=1024):
                yield i
    elif workload == "explore-sweep":
        while True:
            for i in _explore_order(items, rng):
                yield i
    else:
        # cost-cold / actuals: one seeded pass order over the sources,
        # repeated; a source's three requests rotate across passes, so
        # a source recurs every pass (no parse-cache reuse) and a request
        # every three passes (no response-cache reuse)
        per = 3
        sources = n // per
        order = list(range(sources))
        rng.shuffle(order)
        # rotation offsets balanced within each (kernel, lanes) group, so
        # every pass carries the same request mix
        offset = [0] * sources
        groups = {}
        for src in order:
            k, _, lanes = items[src * per][0].split("/")[:3]
            groups.setdefault((k, lanes), []).append(src)
        for group in groups.values():
            for j, src in enumerate(group):
                offset[src] = j % per
        p = 0
        while True:
            for src in order:
                yield src * per + (p + offset[src]) % per
            p += 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--designs", required=True, help="directory of generated IR sources")
    a = ap.parse_args()
    items = universe(a.workload, a.designs)
    it = stream(a.workload, a.seed, items)
    out = sys.stdout
    for _ in range(a.count):
        out.write(items[next(it)][1] + "\n")


if __name__ == "__main__":
    main()
