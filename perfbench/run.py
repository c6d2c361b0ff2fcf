#!/usr/bin/env python3
"""Entry point of the end-to-end broadcast benchmark (see README.md).

Builds perfbench -- a Release build of the byzcast library plus the
benchmark -- from the sources of this checkout, runs one workload, and
checks that the metrics it printed are exactly the ones BENCHMARK.json
declares for that mode, with the same units.

    python3 perfbench/run.py --workload des_scale --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) under
the checkout root; build output goes to stderr. The last stdout line is
the benchmark's JSON result. Exit codes: 0 ok, 1 a correctness check
failed, 2 build or usage error, 3 the output does not match BENCHMARK.json.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def trace_mode(args):
    for i, arg in enumerate(args):
        if arg.startswith("--trace="):
            return arg.split("=", 1)[1] == "1"
        if arg == "--trace" and i + 1 < len(args):
            return args[i + 1] == "1"
    return False


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def main():
    args = sys.argv[1:]
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    proc = subprocess.run([binary] + args + ["--commit", commit()],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        return proc.returncode or 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = declared_metrics(trace_mode(args))
    if printed != declared:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: printed metrics differ from BENCHMARK.json: %s"
              % sorted(set(printed.items()) ^ set(declared.items())), file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
