#!/usr/bin/env python3
"""Build and run the discopop benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs every workload in turn, one process each, and prints
each one's output lines prefixed with its name.

Builds the `perfbench` package (its own Cargo workspace, with path
dependencies on the repository's crates) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload. The
last line of standard output is the result object the benchmark prints.
Exits non-zero, without a result, when the build or the run fails.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run's own limit is 180 s; stay below it so a hung run still ends here.
RUN_TIMEOUT_S = 170


def tree_digest():
    """Commit of the checkout, or a digest of its sources when it is not a
    git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "src", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = tree_digest()
    env["PERFBENCH_RUSTC"] = rustc_version()
    exe = os.path.join(target, "release", "perfbench")
    if not os.path.isabs(exe):
        exe = os.path.join(ROOT, exe)
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if at >= len(args) or args[at] != "all":
        code, out = run_one(exe, args, env)
        sys.stdout.write(out)
        return code
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    worst = 0
    for w in workloads:
        code, out = run_one(exe, args[:at] + [w] + args[at + 1 :], env)
        for line in out.splitlines() or ["failed"]:
            print(f"{w} {line}", flush=True)
        worst = max(worst, code)
    return worst


def run_one(exe, args, env):
    """Run one workload; return its exit code and standard output."""
    try:
        run = subprocess.run(
            [exe] + args,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return run.returncode, run.stdout


if __name__ == "__main__":
    sys.exit(main())
