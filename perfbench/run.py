#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` package (which
also builds the real `oodgnn-serve` binary from source) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the harness, and prints
its lines followed by one result record (commit, dirty flag, source
digest, result) and, last, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without printing a result if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("train-tri-wide", "train-dd-large", "serve-tcp-mixed")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return False
    return True


def git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """Commit and dirty flag when the checkout is a git work tree, and a
    digest of every source file the benchmark builds from either way."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, p) for p in ("Cargo.toml", "Cargo.lock", "crates", "perfbench")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = [d for d in dirnames if d != "target"]
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    commit = git("rev-parse", "HEAD") if os.path.exists(os.path.join(ROOT, ".git")) else None
    dirty = None
    if commit is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    return {"commit": commit or "unknown",
            "dirty": dirty,
            "source_sha256": digest.hexdigest()[:16]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    target = target_dir()
    if not build(target):
        return 1
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    cmd = [os.path.join(release, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--serve-bin", os.path.join(release, "oodgnn-serve"),
           "--work-dir", work]
    # Own process group, so a timed-out run takes its server child with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    for line in lines[:-2]:
        print(line)
    record = dict(provenance(), record="perfbench", workload=a.workload,
                  seed=a.seed, seconds=a.seconds, trace=a.trace,
                  detail=detail, result=result)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
