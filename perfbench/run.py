#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, print its result.

Run from the repository root:

  python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 30 --trace 1 --out results/a
  python3 perfbench/run.py compare results/a results/b
  python3 perfbench/run.py spread serve-reads 5 [--seconds 30] [--out DIR]
  python3 perfbench/run.py smoke

The last line of standard output of a run is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
record (host, inputs, named sub-metrics, gates).  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SOURCES = ["dune-project", "lib", "bin/xpdltool.ml", "models", "examples/spmv_sweep.xpdl"]
WORKLOADS = ["serve-mixed", "serve-reads", "toolchain-fleet", "dse-sweep"]
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    cmd = dune_cmd() + ["build", "./perfbench/perfbench.exe", "./bin/xpdltool.exe"]
    # the shared dune cache lives outside the checkout: keep it out
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")


def placement(workload, trace):
    """CPU for the client and the server of an end-to-end serve run.

    Both go on one CPU, as an adaptive application and the model server it
    queries would on a small node. Left to the scheduler, the pair share a
    core on some runs and not on others, and the two placements differ by
    about 2x; on two CPUs every request also pays a wake-up of the other
    virtual CPU, which the hypervisor of a shared host delays by a varying
    amount (serve-reads p99 1.2 to 3.4 ms over three runs, against 0.57 to
    0.65 ms on one CPU in the same minutes). The traced run and the
    offline workloads are left alone: they measure parallel speed-up.
    """
    if not workload.startswith("serve-") or trace != 0 or not shutil.which("taskset"):
        return None
    cpu = min(os.sched_getaffinity(0))
    return (cpu, cpu)


def run_once(workload, seed, seconds, trace, size="full", out=None, echo=True):
    """Run the benchmark executable; returns (exit code, record, result)."""
    args = [BENCH_EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size]
    pin = placement(workload, trace)
    if pin:
        args += ["--server-cpu", str(pin[1])]
    try:
        p = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S,
                           preexec_fn=(lambda: os.sched_setaffinity(0, {pin[0]})) if pin else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if echo:
        sys.stdout.write(p.stdout)
        sys.stdout.flush()
    record = result = None
    if len(lines) >= 2:
        try:
            record = json.loads(lines[-2]).get("perfbench")
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if out and record is not None and result is not None:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{workload}-seed{seed}-trace{trace}.json")
        with open(path, "w") as f:
            json.dump({"record": record, "result": result}, f)
    return p.returncode, record, result


# ---------------------------------------------------------------------------
# compare: two sets of saved runs, one row per workload and metric


def load_runs(d):
    runs = {}
    for name in sorted(os.listdir(d)):
        if name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                r = json.load(f)
            if r["record"]["trace"] != 0:
                continue
            w = r["record"]["workload"]
            vals = {k: v["value"] for k, v in r["result"]["metrics"].items()}
            for k, v in r["record"]["metrics"].items():
                vals.setdefault(k, v["value"])
            runs.setdefault(w, []).append(vals)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def direction(metric, bounds):
    if metric in bounds:
        return bounds[metric][0]
    return "higher" if metric.endswith("_s") and ("points" in metric or "throughput" in metric) else "lower"


def verdict(a, b, better, bound):
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    if ma == 0:
        return "unresolved", 0.0, 0.0
    spread = max((qa[2] - qa[0]) / abs(ma), (qb[2] - qb[0]) / abs(mb) if mb else 0.0)
    worse_by = (mb - ma) / abs(ma) if better == "lower" else (ma - mb) / abs(ma)
    sep_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    sep_worse = (min(b) > max(a)) if better == "lower" else (max(b) < min(a))
    if spread > bound:
        v = "better" if sep_better else "worse" if sep_worse else "unresolved"
    elif worse_by > bound:
        v = "worse"
    elif -worse_by > (qa[2] - qa[0]) / abs(ma) and -worse_by > 0:
        v = "better"
    else:
        v = "unchanged"
    return v, worse_by, spread


def compare(dir_a, dir_b):
    s = spec()
    bounds = {m["name"]: (m["better"], m["bound"]) for m in s["end_to_end"]}
    # the record's named sub-metrics alias the timed end-to-end ones
    sub_bound = max(b for n, (_, b) in bounds.items() if n != "setup_s")
    ra, rb = load_runs(dir_a), load_runs(dir_b)
    print(f"{'workload':16} {'metric':20} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'worse by':>9} {'spread':>7}  verdict")
    for w in WORKLOADS:
        if w not in ra or w not in rb:
            continue
        names = [n for n in ra[w][0] if all(n in r for r in ra[w] + rb[w])]
        for n in names:
            a = [r[n] for r in ra[w]]
            b = [r[n] for r in rb[w]]
            better = direction(n, bounds)
            bound = bounds.get(n, (better, sub_bound))[1]
            v, worse_by, spread = verdict(a, b, better, bound)
            qa, qb = quartiles(a), quartiles(b)
            print(f"{w:16} {n:20} {qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]".ljust(74)
                  + f" {qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]".ljust(36)
                  + f" {worse_by:>+8.1%} {spread:>7.1%}  {v}")


# ---------------------------------------------------------------------------
# spread: several seeds of one workload, the quartile spread per metric


def spread(workload, n, seconds, out):
    s = spec()
    names = [m["name"] for m in s["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    vals = {k: [] for k in names}
    for seed in range(1, n + 1):
        code, _, result = run_once(workload, seed, seconds, 0, out=out, echo=False)
        if code != 0 or result is None or not result.get("correct"):
            fail(f"{workload} seed {seed} failed (exit {code})")
        for k in names:
            vals[k].append(result["metrics"][k]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={vals[k][-1]:.6g}" for k in names), flush=True)
    for k in names:
        q1, q2, q3 = statistics.quantiles(vals[k], n=4)
        share = (q3 - q1) / q2
        print(f"{workload:16} {k:18} median {q2:12.6g}  iqr/median {share:6.1%}  "
              f"bound {bounds[k]:.0%}  {'ok' if share <= bounds[k] / 3 else 'WIDE'}")


# ---------------------------------------------------------------------------
# smoke: every workload at a tiny size, every metric named and all gates


def smoke():
    s = spec()
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in s[key]}
        for w in WORKLOADS:
            code, record, result = run_once(w, 7, 1, trace, size="small", echo=False)
            problems = []
            if code != 0 or result is None:
                problems.append(f"exit {code}")
            else:
                got = result["metrics"]
                if set(got) != set(want):
                    problems.append(f"metric names differ: {sorted(set(want) ^ set(got))}")
                problems += [f"{k} unit {got[k]['unit']} != {u}" for k, u in want.items()
                             if k in got and got[k]["unit"] != u]
                if not result["correct"] or result["failed"] != 0:
                    problems.append("correctness gates failed: "
                                    + ", ".join(g["name"] for g in record["gates"] if not g["ok"]))
            print(f"smoke {w:16} trace={trace}: {'ok' if not problems else '; '.join(problems)}",
                  flush=True)
            ok = ok and not problems
    sys.exit(0 if ok else 1)


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("compare", "spread", "smoke"):
        cmd = sys.argv[1]
        ap = argparse.ArgumentParser(prog=f"run.py {cmd}")
        if cmd == "compare":
            ap.add_argument("a")
            ap.add_argument("b")
            a = ap.parse_args(sys.argv[2:])
            compare(a.a, a.b)
            return
        build()
        if cmd == "spread":
            ap.add_argument("workload", choices=WORKLOADS)
            ap.add_argument("n", type=int)
            ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
            ap.add_argument("--out")
            a = ap.parse_args(sys.argv[2:])
            spread(a.workload, a.n, a.seconds, a.out)
        else:
            smoke()
        return
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--size", choices=["full", "small"], default="full")
    ap.add_argument("--out", help="also save the record and result to this directory")
    a = ap.parse_args()
    build()
    code, _, _ = run_once(a.workload, a.seed, a.seconds, a.trace, a.size, a.out)
    sys.exit(code)


if __name__ == "__main__":
    main()
