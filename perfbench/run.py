#!/usr/bin/env python3
"""Builds and runs the seeded Maxson benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload raw_scan|cached_day|served_mix \
        --seed N --seconds S --trace 0|1

Builds the library sources under src/ plus maxbench from this directory
(CMake, RelWithDebInfo) into .bench_build/, runs one workload, checks the
result, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Everything the run writes stays under .bench_build/, .bench_work/ and
.bench_out/ of the checkout. See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources missing: no src/CMakeLists.txt next to "
             "perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed (see the build log)")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.call(["cmake", "--build", BUILD_DIR, "--target",
                            "maxbench", "-j", jobs],
                           stdout=log, stderr=log) != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail("build failed")
    return os.path.join(BUILD_DIR, "maxbench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit id)."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "not a git checkout"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check_counts(key, counts, errors):
    """Every run of one (workload, seed, seconds) of the same sources must
    give the same exact counts; the first correct run in a checkout records
    them, later runs compare. The key names the source digest, so a change
    to src/ or perfbench/ starts a record of its own."""
    path = os.path.join(OUT_DIR, "counts-%s.json" % key)
    if os.path.isfile(path):
        with open(path) as f:
            recorded = json.load(f)
        for name in sorted(set(recorded) | set(counts)):
            if recorded.get(name) != counts.get(name):
                errors.append("count %s differs from an earlier run of the "
                              "same seed: %s then %s"
                              % (name, recorded.get(name), counts.get(name)))
    elif not errors:
        with open(path, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["raw_scan", "cached_day", "served_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json missing at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    digest = source_digest()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    key = "%s-seed%d-s%d-%s" % (args.workload, args.seed, args.seconds,
                                digest)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        command += ["--spans", os.path.join(OUT_DIR, "spans-%s.jsonl" % key)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK_DIR)  # only when no other run is using it
    except OSError:
        pass
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail("maxbench printed no result (exit %d)" % proc.returncode, 1)
    result = json.loads(lines[-1])

    errors = list(result["errors"])
    check_counts(key, result["counts"], errors)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in result["metrics"]:
            errors.append("metric %s was not measured" % name)
            continue
        value = result["metrics"][name]
        if value["unit"] != metric["unit"]:
            errors.append("metric %s has unit %s, BENCHMARK.json says %s"
                          % (name, value["unit"], metric["unit"]))
        metrics[name] = value

    facts = dict(result["facts"])
    facts["source_sha256"] = digest
    facts["git_sha"] = git_sha()
    for e in errors:
        print("perfbench: " + e, file=sys.stderr)
    print(json.dumps({"facts": facts, "counts": result["counts"]},
                     sort_keys=True))
    correct = (result["correct"] and not errors and proc.returncode == 0)
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
