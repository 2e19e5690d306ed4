#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload remove_tree --seed 1 --seconds 10 --trace 0

The benchmark builds its own copy of the simulator from ../src under
.bench_build/perfbench (a Release build, and a gprof build for --trace 1),
reusing it across runs. --trace 0 prints the end-to-end metrics of an untraced run.
--trace 1 prints the per-layer metrics of a gprof-instrumented run, its
host profile folded into host.<module>_s, and the tracing overhead
against an untraced run of the same seed. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("remove_tree", "create_remove_1k", "create_remove_volume", "crash_sweep")
MODULES = ("sim", "disk", "driver", "cache", "fs", "core", "journal", "async",
           "volume", "fsck", "workload", "stats")

# Host profile: the class (or namespace / free function) a profiled
# function belongs to decides the module its self time is charged to.
# DiskImage::Read lands in disk even when fsck calls it.
CLASS_MODULE = {
    "sim": ["Engine", "ProcessRef", "Cpu", "Task", "TaskPromise", "TaskPromiseBase",
            "CondVar", "LockGuard", "Mutex", "OneShotEvent", "Semaphore", "Rng"],
    "disk": ["DiskModel", "DiskImage", "DeviceQueue", "DiskGeometry", "FaultInjector"],
    "driver": ["DiskDriver", "BlockDevice"],
    "cache": ["BufferCache", "Buf", "SyncerDaemon"],
    "fs": ["FileSystem", "Inode", "FsInterface", "Result", "DirEntry", "SuperBlock"],
    "core": ["Machine", "ConventionalPolicy", "NoOrderPolicy", "SchedulerChainPolicy",
             "SchedulerFlagPolicy", "SoftUpdatesPolicy", "OrderingPolicy"],
    "journal": ["JournalManager", "JournalPolicy", "JournalRecovery"],
    "async": ["AsyncPolicy", "VisibilityLedger"],
    "volume": ["StripedVolume", "ShardDevice", "ShardedFs", "VolumeLayout"],
    "fsck": ["FsckChecker", "FsckRepairer", "CrashHarness", "ParallelCheck", "DirWalk"],
    "workload": ["perfbench"],
    "stats": ["StatsRegistry", "Counter", "Gauge", "LatencyHistogram", "TraceField"],
}
# Free functions of the mufs namespace, by name prefix.
FUNCTION_MODULE = {
    "fsck": ["Pfsck", "Fsck", "TagDataBlock", "RegisterPfsckStats", "CrashAndCheck"],
    "workload": ["RunMultiUser", "GenerateTree", "PopulateTree", "WriteTagged", "SetupRoot",
                 "UserRoot", "WorkloadRoot"],
    "stats": ["Json", "InstanceMetricName"],
    "core": ["Make", "SchemeName", "ToString"],
}
OWNER = {name: mod for mod, names in CLASS_MODULE.items() for name in names}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(variant):
    """Configures (once) and builds one variant; returns the binary path."""
    out = os.path.join(BUILD, variant)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DPERFBENCH_GPROF=" + ("ON" if variant == "gprof" else "OFF")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run_bench(binary, args, cwd):
    proc = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds)],
                          cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{binary} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def strip_templates(name):
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def module_of(symbol):
    name = symbol.replace("(anonymous namespace)", "anon")
    name = strip_templates(name.split("(")[0] if "(" in name else name)
    parts = [p for p in name.split("::") if p]
    if parts and parts[0] == "perfbench":
        return "workload"
    for part in reversed(parts):
        if part in OWNER:
            return OWNER[part]
    if len(parts) >= 2 and parts[0] == "mufs":
        for mod, prefixes in FUNCTION_MODULE.items():
            if any(parts[-1].startswith(p) for p in prefixes):
                return mod
    return "other"


FLAT_LINE = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def host_profile(binary, gmon):
    """Folds gprof's flat profile into seconds per module."""
    text = subprocess.run(["gprof", "-b", "-p", binary, gmon], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True).stdout
    seconds = {m: 0.0 for m in MODULES + ("other",)}
    top = []
    for line in text.splitlines():
        m = FLAT_LINE.match(line)
        if m:
            self_s, name = float(m.group(3)), m.group(4).strip()
            seconds[module_of(name)] += self_s
            if len(top) < 8:
                top.append(f"{m.group(1):>6}%  {name[:100]}")
    log("gprof flat profile, top functions:\n  " + "\n  ".join(top))
    return seconds


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no simulator sources (src/) next to perfbench/; run it from a checkout")
        return 2

    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        release = build("release")
        gprof_bin = build("gprof") if args.trace == 1 else None

    if args.trace == 0:
        res = run_bench(release, args, ROOT)
        metrics = res["end_to_end"]
    else:
        untraced = run_bench(release, args, ROOT)
        work = os.path.join(BUILD, f"trace-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            res = run_bench(gprof_bin, args, work)
            profile = host_profile(gprof_bin, os.path.join(work, "gmon.out"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        res["correct"] = res["correct"] and untraced["correct"]
        metrics = res["per_layer"]
        for mod, secs in profile.items():
            metrics[f"host.{mod}_s"] = metric(secs, "s")
        traced_host = res["end_to_end"]["host_s"]["value"]
        untraced_host = untraced["end_to_end"]["host_s"]["value"]
        metrics["trace.host_s"] = metric(traced_host, "s")
        metrics["trace.overhead_ratio"] = metric(traced_host / untraced_host, "ratio")

    for p in res["problems"]:
        log("problem: " + p)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
