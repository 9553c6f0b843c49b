#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

It builds the benchmark (perfbench/, a Go module of its own that uses the
checkout's hssort module through a replace directive) and the hssortd
daemon from source into .bench_build/, with the Go build cache, module
cache and temporary files kept under .bench_build/ too, then runs one
workload, or every workload in turn with --workload all. The last line
of standard output is the JSON result (for all: one result per
workload); build output goes to standard error. A traced run of all
workloads also checks the layer split the workloads were chosen for,
and exits 1 if it does not hold.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
WORKLOADS = ["bulk", "wide", "spill", "serve"]


def build(root):
    """Builds perfbench and hssortd; returns (env, perfbench, hssortd)."""
    out = os.path.join(root, ".bench_build")
    gopath = os.path.join(out, "gopath")
    tmp = os.path.join(out, "tmp")
    for d in (gopath, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=gopath,
        GOMODCACHE=os.path.join(gopath, "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        HOME=out,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    bins = os.path.join(out, "bin")
    bench = os.path.join(bins, "perfbench")
    hssortd = os.path.join(bins, "hssortd")
    for cwd, dst, pkg in ((root, hssortd, "./cmd/hssortd"), (os.path.join(root, "perfbench"), bench, ".")):
        r = subprocess.run(["go", "build", "-o", dst, pkg], cwd=cwd, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.exit(f"perfbench: building {pkg} failed (exit {r.returncode})")
    return env, bench, hssortd


def run(cmd, root, env, capture):
    """Runs one benchmark process to completion; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out or ""


def check_split(results):
    """Checks the per-layer split each workload exists to show."""
    m = {w: {k: v["value"] for k, v in r["metrics"].items()} for w, r in results.items()}
    spill_keys = [k for k in m["bulk"] if k.startswith("spill.")]
    checks = [
        ("splitter.share on wide >= 10x bulk",
         m["wide"]["splitter.share"] >= 10 * m["bulk"]["splitter.share"]),
        ("spill.* all zero on bulk", all(m["bulk"][k] == 0 for k in spill_keys)),
        ("spill.* all nonzero on spill", all(m["spill"][k] != 0 for k in spill_keys)),
        ("server.overhead_ms > server.sort_ms on serve",
         m["serve"]["server.overhead_ms"] > m["serve"]["server.sort_ms"]),
    ]
    for name, ok in checks:
        print(f"# split check: {name}: {'ok' if ok else 'FAILED'}")
    return all(ok for _, ok in checks)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("go.mod", "hssort.go", os.path.join("cmd", "hssortd")):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit(f"perfbench: {need} not found under {root}: run from a checkout of the repository")
    env, bench, hssortd = build(root)

    def cmd(w):
        return [bench, "-workload", w, "-seed", str(args.seed), "-seconds", repr(args.seconds),
                "-trace", str(args.trace), "-root", root, "-hssortd", hssortd]

    if args.workload != "all":
        code, _ = run(cmd(args.workload), root, env, capture=False)
        sys.exit(code)

    results = {}
    for w in WORKLOADS:
        code, out = run(cmd(w), root, env, capture=True)
        sys.stdout.write(out)
        if code != 0:
            sys.exit(f"perfbench: workload {w} exited {code}")
        results[w] = json.loads(out.strip().splitlines()[-1])
    print("# summary")
    for w, r in results.items():
        frac = r["failed"] / r["attempted"]
        print(f"#   {w:6s} correct={r['correct']} failed_frac={frac:.6f} ({r['failed']}/{r['attempted']})")
    split_ok = args.trace == 0 or check_split(results)
    print(json.dumps(results))
    if not split_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
