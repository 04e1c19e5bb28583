#!/usr/bin/env python3
"""Builds the skyline pipeline benchmark from source and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test --workload <name|all> --seed <n> [--seed2 <n>]

Each workload runs in its own process (so peak RSS is per workload); the
last line that process prints is its JSON result object. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["anti6d-reduce", "indep1m-map", "shuffle1m-bnl", "tenants4-spill"]
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if not configured:
        return BENCH / "target"
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds the benchmark binary (and the repository crates it links)."""
    if not (ROOT / "crates").is_dir():
        fail("the repository's crates/ directory is missing; the benchmark builds them from source")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir() / "release" / "perfbench"


def revision():
    """The git revision when there is one, plus a digest of the sources."""
    rev = "nogit"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "vendor", BENCH / "src"]
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml"]
    for r in roots:
        files += [p for p in r.rglob("*") if p.suffix in (".rs", ".toml") and p.is_file()]
    for p in sorted(f for f in files if f.is_file()):
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check count determinism and recomposition at --seed, then run --seed2")
    ap.add_argument("--seed2", type=int)
    args = ap.parse_args()

    # One glibc malloc arena for the one host thread, so peak RSS does not
    # depend on which arena a freshly spawned worker thread lands in.
    run_env = dict(os.environ, MALLOC_ARENA_MAX="1")
    binary = build()
    rev = revision()
    out = BENCH / "out"
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--out", str(out.relative_to(ROOT)), "--rev", rev]
        if args.self_test:
            cmd.append("--self-test")
            if args.seed2 is not None:
                cmd += ["--seed2", str(args.seed2)]
        else:
            cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=run_env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
        status = status or done.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
