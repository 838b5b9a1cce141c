#!/usr/bin/env python3
"""Build and run the phi benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own, whose path dependencies
are the repository's crates) in release mode, then runs it. The last line
of standard output is the result object. Exits non-zero, without a result
line, when the checkout has no library sources or the build fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("wan_sweep", "dc_incast", "ctx_serve")
# Run-time cap for the benchmark process, well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from
    checkouts without git history still name the code they measured."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.lock", BENCH / "Cargo.toml", BENCH / "Cargo.lock"]
    for sub in ("crates", "vendor", "perfbench/src"):
        files += [p for p in (ROOT / sub).rglob("*") if p.suffix in (".rs", ".toml")]
    for p in sorted(set(files)):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no library sources under {ROOT / 'crates'}; run from a full checkout")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    target = pathlib.Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    binary = target / "release" / "phi-perfbench"

    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = (
        capture(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "none (not a git checkout)"
    )
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    sys.stdout.flush()
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
