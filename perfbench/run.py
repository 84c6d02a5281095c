#!/usr/bin/env python3
"""Build `rankd` and the perfbench harness from source, then run the harness.

Usage, from the repository root:

    python3 perfbench/run.py --workload resident_big --seed 1 --seconds 10 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to stderr, so the harness's JSON result stays the last line of stdout.
Without the repository's sources next to it the script exits with code 2.
"""

import os
import subprocess
import sys


def main() -> int:
    if not os.path.isfile(os.path.join("crates", "engine", "Cargo.toml")):
        print("perfbench: run from the repository root (crates/engine not found)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "engine", "--bin", "rankd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        code = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        if code != 0:
            print(f"perfbench: {' '.join(cmd)} failed with {code}", file=sys.stderr)
            return code
    harness = os.path.join(target, "release", "perfbench")
    rankd = os.path.join(target, "release", "rankd")
    sys.stdout.flush()
    os.execv(harness, [harness, "--rankd", rankd] + sys.argv[1:])
    return 1  # unreachable: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
