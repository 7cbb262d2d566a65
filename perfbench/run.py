#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload live-burst --seed 7 --seconds 30 --trace 0

It builds `sentinet` and the `perfbench` runner from source (into
`$CARGO_TARGET_DIR`, default `.bench_build`), generates the seeded
input, runs the workload, and prints two JSON lines: the run's facts
(host, input digests, named workload figures), then the result object
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
the end-to-end metrics of an untraced run against real `sentinet
serve` children; `--trace 1` the per-layer metrics of a traced run.
Workloads: live-burst, analyze-wide (listed in BENCHMARK.json) and
backfill (runnable, not listed; see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
WORKLOADS = ("live-burst", "backfill", "analyze-wide")
# Every run must end within 180 s once built; keep a margin.
RUN_DEADLINE_S = 170.0


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(argv, timeout, env=None, capture=True):
    """Runs argv in its own process group, then kills and waits out
    anything it left behind (a crashed run could orphan `serve`
    children). Returns (exit code, stdout)."""
    proc = subprocess.Popen(
        argv,
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        reap(proc.pid)
        fail(f"{os.path.basename(argv[0])} timed out after {timeout:.0f} s")
    reap(proc.pid)
    return proc.returncode, out or ""


def reap(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "sentinet-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ):
        code, _ = run_group(argv, timeout=900, env=env, capture=False)
        if code != 0:
            fail(f"build failed: {' '.join(argv)}")


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        fail(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what} printed no JSON result")


def fs_type(path):
    """Filesystem type of the mount holding `path` (fsync cost
    depends on it)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1].replace("\\040", " ")
                inside = path == point or path.startswith(point.rstrip("/") + "/")
                if inside and len(point) >= len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def file_digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def check_repeat(work_root, key, digest):
    """The fleet diagnosis must be byte-identical across every run of
    one seed with the same binaries: remember it per (workload, seed,
    binaries) and compare."""
    path = os.path.join(work_root, "diagnosis_digests.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    previous = seen.get(key)
    seen[key] = digest
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return previous is None or previous == digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be non-negative and --seconds positive", 2)
    for needed in ("Cargo.toml", "Cargo.lock", "crates", os.path.join("crates", "cli")):
        if not os.path.exists(os.path.join(REPO, needed)):
            fail(f"not a sentinet checkout: {needed} is missing under {REPO}", 2)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    started = time.monotonic()
    runner = os.path.join(target, "release", "perfbench")
    sentinet = os.path.join(target, "release", "sentinet")

    work_root = os.path.join(REPO, ".bench_work")
    work = os.path.join(work_root, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    csv = os.path.join(work, "input.csv")

    code, out = run_group(
        [runner, "gen", "--workload", args.workload, "--seed", str(args.seed), "--out", csv],
        timeout=RUN_DEADLINE_S,
    )
    if code != 0:
        fail("input generation failed")
    generated = last_json(out, "gen")

    remaining = RUN_DEADLINE_S - (time.monotonic() - started)
    code, out = run_group(
        [runner, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--input", csv, "--work", os.path.join(work, "run"), "--sentinet", sentinet],
        timeout=max(remaining, 10.0),
    )
    if code != 0:
        fail(f"workload {args.workload} failed")
    result = last_json(out, "run")
    facts = result.get("facts", {})
    # The runner has already named its own failed checks on stderr.
    problems = list(result.get("problems", []))
    own = []
    if not generated.get("other_seed_differs"):
        own.append("a different seed generated the same input")
    digest = facts.get("diagnosis_digest")
    if digest is not None:
        # The live stretch depends on --seconds and --trace, so those
        # are part of what must repeat.
        key = (f"{args.workload}:{args.seed}:{args.seconds}:{args.trace}:"
               f"{file_digest(runner, sentinet)}")
        if not check_repeat(work_root, key, digest):
            own.append("diagnosis differs from an earlier run of this seed")

    manifest = os.path.join(REPO, "BENCHMARK.json")
    if os.path.exists(manifest):
        with open(manifest) as f:
            spec = json.load(f)
        listed = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]
        if sorted(listed) != sorted(result["metrics"]):
            fail("the runner's metrics do not match BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            fail(f"{name} has no value: too few samples for its percentile at --seconds {args.seconds}")

    for p in own:
        print(f"check failed: {p}", file=sys.stderr)
    problems += own
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "host": {
            "cpus": os.cpu_count(),
            "wal_fs": fs_type(work),
            "kernel": platform.release(),
            "peak_rss_counts": "the runner process only; serve children are not counted",
        },
        "input": generated,
        "facts": facts,
        "problems": problems,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
