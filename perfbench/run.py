#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built with cargo into $CARGO_TARGET_DIR (default
.bench_build). Cargo's output goes to stderr; stdout carries the stamp line,
the workload's diagnostics line, and last the result line. The exit code is
non-zero, with no result line, when the build or the run fails.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def git_rev():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        with open(os.path.join(ROOT, ".git", name)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the Rust sources and manifests the binary is built from."""
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench", ".cargo"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def target_cpu():
    """The target-cpu the repository's cargo config builds for, if any."""
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as f:
            for line in f:
                if "target-cpu=" in line:
                    return line.split("target-cpu=")[1].split('"')[0]
    except OSError:
        pass
    return "default"


def main():
    env = dict(os.environ)
    # cargo resolves a relative target directory against its working
    # directory, which is the checkout root
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    env.setdefault("PERFBENCH_OUT", os.path.join(target, "perfbench-out"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    stamp = {"git_rev": git_rev(), "source_sha256": source_digest(), "target_cpu": target_cpu()}
    print(json.dumps({"stamp": stamp}), flush=True)
    binary = os.path.join(target, "release", "adq-perfbench")
    run = subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
