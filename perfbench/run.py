#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, and pass its output on.

    python3 perfbench/run.py --workload <episode|check|fleet|tree> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The Rust package in this directory builds
against the repository's crates by path, into $CARGO_TARGET_DIR (default
`.bench_build`). Cargo's output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Spans of a traced run are written under
the target directory, in `perfbench-spans/`.

Exits non-zero without a result if the build or the run fails, or if the
run outlives its time limit.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    cmd = [str(binary), *sys.argv[1:], "--spans-dir", str(target / "perfbench-spans")]
    with subprocess.Popen(cmd, cwd=ROOT, env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
