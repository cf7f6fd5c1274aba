#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 _perfbench/run.py --workload batch-shap --seed 1 --seconds 20 --trace 0

Every argument goes to the benchmark binary (see README.md). The binary,
the Go build cache and traced runs' span dumps go under .bench_build at
the root of the checkout (or $CARGO_TARGET_DIR, resolved against that
root), so a run reads and writes nothing outside the checkout. The exit
code is the benchmark's; a failed build exits non-zero before any result
is printed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(out):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        # Build only with the local toolchain and the module's own
        # sources: never reach for a download.
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    return env


def main():
    out = build_dir()
    for sub in ("gocache", "gomodcache", "tmp", "config"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(out))
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return built.returncode or 1

    args = sys.argv[1:]
    p = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    p.add_argument("--workload", default="")
    p.add_argument("--seed", default="1")
    p.add_argument("--trace", default="0")
    p.add_argument("--spans-out", default="")
    known, _ = p.parse_known_args(args)
    if known.trace == "1" and not known.spans_out:
        args += ["--spans-out", os.path.join(out, "spans-%s-seed%s.json" % (known.workload, known.seed))]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
