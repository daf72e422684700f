#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fig12_sf1, fig12_sf1_ooc, server_adhoc_sf001. The benchmark is
a Cargo package of its own (perfbench/Cargo.toml) that depends on the
repository's crates by path; it is built in release mode into
$CARGO_TARGET_DIR (default perfbench/target). Build output goes to
stderr; the benchmark's report goes to stdout and ends with one JSON line.
RELALG_* variables are removed from the environment so that the engine
runs with its built-in defaults plus the settings each workload makes.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("RELALG_")}
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
