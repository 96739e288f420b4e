"""horolab benchmark: four closed-loop workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record

A run sets up in this process and runs ops back to back for ``--seconds``.
After each op it times the fixed reference kernel of ``hostspeed.py`` for
about a tenth of the op's time; ``ops_per_s_nominal`` is the op rate scaled
by how slow that kernel ran against its nominal time, which takes out most
of the shared host's speed swings. The raw rate stays in the result file.
Spread over the run it also times ``SETUP_SAMPLES`` set-ups, each in a
fresh interpreter, after one untimed set-up that warms the bytecode and
file caches. Most of a set-up is starting Python and importing numpy, whose
time swings with the host in ways the kernel does not follow, so each
sample is paired with a bare interpreter that only imports numpy;
``setup_s`` is the median set-up scaled by how slow the median bare start
ran against its nominal time. Every op's outputs are checked against
``references.json`` and against earlier ops on the same inputs. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced ops, so it also reports the
tracing overhead. Each run writes a result file, with the environment
record, under ``perfbench/results/``; a traced run also writes its spans.

``--self-test`` runs one op per workload, checks that every metric named in
``BENCHMARK.json`` is emitted with its unit, and that a perturbed reference
makes the op count as failed. ``--record`` rewrites ``references.json``
from the current program; do that only in a change that alters outputs on
purpose.
"""

from __future__ import annotations

import argparse
import copy
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import tracing
import workloads as wl

HERE = wl.HERE
ROOT = wl.ROOT
RESULTS = os.path.join(HERE, "results")
REFERENCES = os.path.join(HERE, "references.json")
SETUP_SAMPLES = 10
# seeds whose leaf-averages outputs references.json records
RECORDED_SEEDS = range(12)
# leaf-averages slots recorded per seed; a 22 s run makes 8 to 14 ops
RECORDED_SLOTS = 24
SETUP_TIMEOUT = 120
# reference-kernel time after each op, as a share of that op's time; a single
# 0.1 s kernel pass is too short to average out the host's fast jitter
CALIBRATION_SHARE = 0.1


def start_time(cmd: list) -> float:
    """Seconds from spawning `cmd` until it prints ``ready``."""
    # bytecode caching on, whatever the caller's setting: a user's second
    # run finds horolab compiled, and the untimed first set-up compiles it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.communicate(timeout=SETUP_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("%s failed in a fresh interpreter" % " ".join(cmd[1:]))
    return ready - start


def setup_time(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is ready."""
    return start_time([sys.executable, os.path.join(HERE, "workloads.py"), name, str(seed)])


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(name: str, seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": name,
        "seed": seed,
        "k_vectors": wl.K_VECTORS,
    }


def run(name, seed, seconds, trace, refs, max_ops=None, samples=SETUP_SAMPLES) -> dict:
    """Set up, run ops for `seconds`, check every op; return the result record."""
    w = wl.WORKLOADS[name]
    setup_time(name, seed)  # warms the bytecode and file caches
    t0 = time.perf_counter()
    state = w["setup"](seed)
    own_setup = time.perf_counter() - t0
    meter = wl.WordMeter()
    kernel = hostspeed.Kernel()
    kernel_s = []
    tracer = tracing.Tracer() if trace else None
    op_s, traced_s, untraced_s, words, layers, problems = [], [], [], [], [], []
    earlier = {}  # inputs key -> outputs of the first op on those inputs
    # set-up samples are spread over the run, so that they see the same
    # spells of host speed as the ops do; their time is not op time
    setups, bare = [], []
    elapsed = 0.0  # ops, their checks and the kernel; the run's budget
    busy = 0.0  # ops and their checks
    while True:
        if len(setups) < samples and elapsed >= len(setups) * seconds / samples:
            bare.append(start_time(hostspeed.BARE_START))
            setups.append(setup_time(name, seed))
        start = time.perf_counter()
        # a traced run repeats each slot, untraced then traced
        traced = trace and len(op_s) % 2 == 1
        slot = len(op_s) // 2 if trace else len(op_s)
        if traced:
            tracer.install()
            tracer.begin_op()
        meter.start()
        t = time.perf_counter()
        try:
            out, issues = w["op"](state, slot), []
        except Exception:
            out, issues = None, [traceback.format_exc()]
        dt = time.perf_counter() - t
        words.append(meter.read())
        if traced:
            extra = w["layer_counts"](out) if out is not None else {}
            layers.append(tracer.end_op(words[-1], extra))
            tracer.uninstall()
        if out is not None:
            issues += w["check"](out, refs, seed, slot)
            if words[-1] != refs["words"]:
                issues.append("%d words materialized, reference %d" % (words[-1], refs["words"]))
            key = slot if w["slotted"] else 0
            if key not in earlier:
                earlier[key] = out
            elif not w["same"](earlier[key], out):
                issues.append("outputs differ from an earlier op on the same inputs")
        if issues:
            problems.append({"op": len(op_s), "traced": traced, "issues": issues})
        busy += time.perf_counter() - start
        spent = 0.0
        while spent == 0.0 or spent < CALIBRATION_SHARE * dt:
            kernel_s.append(kernel())
            spent += kernel_s[-1]
        op_s.append(dt)
        (traced_s if traced else untraced_s).append(dt)
        elapsed += time.perf_counter() - start
        if (elapsed >= seconds or len(op_s) == max_ops) and (not trace or traced_s):
            break
    while len(setups) < samples:
        bare.append(start_time(hostspeed.BARE_START))
        setups.append(setup_time(name, seed))
    ops_per_s = len(op_s) / busy
    slowdown = statistics.fmean(kernel_s) / hostspeed.NOMINAL_S
    start_slowdown = statistics.median(bare) / hostspeed.BARE_START_NOMINAL_S
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        metrics = {key: statistics.fmean(op[key] for op in layers) for key in layers[0]}
        pairs = zip(untraced_s, traced_s)
        metrics["trace.overhead"] = statistics.median(b / a for a, b in pairs) - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(setups) / start_slowdown,
            "ops_per_s_nominal": ops_per_s * slowdown,
            "peak_rss_mb": rss_mb,
        }
    return {
        "environment": environment(name, seed),
        "trace": bool(trace),
        "attempted": len(op_s),
        "failed": len(problems),
        "failed_ratio": len(problems) / len(op_s),
        "words_per_op": words,
        "metrics": metrics,
        "op_p50_s": statistics.median(op_s),
        "ops_per_s": ops_per_s,
        "host_slowdown": slowdown,
        "kernel_s": kernel_s,
        "op_s": op_s,
        "traced_op_s": traced_s,
        "untraced_op_s": untraced_s,
        "elapsed_s": elapsed,
        "busy_s": busy,
        "setup_samples_s": setups,
        "setup_raw_s": statistics.median(setups),
        "bare_start_s": bare,
        "start_slowdown": start_slowdown,
        "own_setup_s": own_setup,
        "peak_rss_mb": rss_mb,
        "problems": problems,
        "spans": tracer,
    }


def write_result(result: dict, seconds) -> str:
    env = result["environment"]
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(
        RESULTS,
        "%s-seed%d-trace%d-%d" % (env["workload"], env["seed"], result["trace"], time.time_ns()),
    )
    tracer = result.pop("spans")
    result["seconds"] = seconds
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        with gzip.open(stem + "-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans}, fh)
    return stem + ".json"


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def units(trace: bool) -> dict:
    if trace:
        return tracing.metric_units()
    return {"setup_s": "s", "ops_per_s_nominal": "1/s", "peak_rss_mb": "MB"}


def perturb(name: str, refs: dict, seed: int) -> dict:
    """A copy of the workload's references with one value nudged."""
    refs = copy.deepcopy(refs)
    if name == "checks-battery":
        refs["enumerated_words"] += 1
    elif name == "boundary-quadrature":
        refs["br"][0] = math.nextafter(refs["br"][0], 1.0)
    elif name == "orbit-enumeration":
        refs["deltas"][0] = math.nextafter(refs["deltas"][0], 1.0)
    else:
        digest = refs["digests"][str(seed)][0]
        refs["digests"][str(seed)][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
    return refs


def self_test() -> int:
    """One op per workload: every declared metric emitted, checks can fail."""
    end_to_end, per_layer = declared_metrics()
    refs = load_references()
    seed = RECORDED_SEEDS[1]
    ok = True
    for name in wl.WORKLOADS:
        for trace, want in ((False, end_to_end), (True, per_layer)):
            res = run(name, seed, 0.0, trace, refs[name], max_ops=1, samples=1)
            got = {k: units(trace)[k] for k in res["metrics"]}
            good = got == want and res["failed"] == 0
            ok = ok and good
            print("%s %s trace %d: %d metrics, %d failed%s" % (
                "PASS" if good else "FAIL", name, trace, len(got), res["failed"],
                "" if got == want else "; metrics differ from BENCHMARK.json"))
        res = run(name, seed, 0.0, False, perturb(name, refs[name], seed), max_ops=1, samples=1)
        good = res["failed_ratio"] > 0
        ok = ok and good
        print("%s %s perturbed reference: failed_ratio %g" % (
            "PASS" if good else "FAIL", name, res["failed_ratio"]))
    return 0 if ok else 1


def record() -> int:
    """Rewrite references.json: one op per workload, every recorded slot
    of every recorded seed for a slotted one."""
    meter = wl.WordMeter()
    refs = {}
    for name, w in wl.WORKLOADS.items():
        if w["slotted"]:
            entry = refs[name] = {"words": None, "digests": {}}
            for seed in RECORDED_SEEDS:
                state = w["setup"](seed)
                digests = entry["digests"][str(seed)] = []
                for slot in range(RECORDED_SLOTS):
                    meter.start()
                    digests.append(wl.digest(w["op"](state, slot)["values"]))
                    entry["words"] = meter.read()
            continue
        state = w["setup"](0)
        meter.start()
        out = w["op"](state, 0)
        entry = refs[name] = {"words": meter.read()}
        if name == "checks-battery":
            if out["rc"] != 0 or not all(out["passed"]):
                print("the battery fails; not recording", file=sys.stderr)
                return 1
            entry.update(criteria=len(out["passed"]), enumerated_words=out["words"])
        else:
            entry.update(out)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        wl.import_horolab()
    except ImportError as e:
        print("cannot import horolab from %s: %s" % (wl.SRC, e), file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    refs = load_references()[args.workload]
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), refs)
    path = write_result(res, args.seconds)
    for p in res["problems"]:
        print("op %d%s failed: %s" % (p["op"], " (traced)" if p["traced"] else "",
                                      "; ".join(p["issues"])), file=sys.stderr)
    print("%s seed %d: %d ops, %.4f ops/s raw, host slowdown %.3f, median op %.4f s, "
          "%d failed, words per op %d, wrote %s" % (
        args.workload, args.seed, res["attempted"], res["ops_per_s"], res["host_slowdown"],
        res["op_p50_s"], res["failed"],
        res["words_per_op"][0], os.path.relpath(path, ROOT)))
    table = units(bool(args.trace))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": table[k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
