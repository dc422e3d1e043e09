#!/usr/bin/env python3
"""The repository benchmark: timed `amdrelc` invocations and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `amdrelc`, the in-process
helper `perf_trace` and the host-speed probe `perf_calibrate` from source
(Release only) into `.bench_build/`, makes the workload's inputs from the
seed, and then either

  --trace 0  times real `amdrelc` invocations for S seconds, checks every
             output byte-for-byte against a reference made in setup, and
             reports the end-to-end metrics in reference seconds (see
             in_ref_seconds); or
  --trace 1  runs `perf_trace trace`, which replays the same inputs
             through the public calls of each layer with spans around
             them, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import ctypes
import glob
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
RESULTS = os.path.join(REPO, ".bench_results")

# Every child gets this long before it is killed, so a run always ends
# within the driver's 180 s.
CHILD_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840

# The fuzz corpus, per stratum: statements, loop nest, helper functions,
# programs, and the band of TAC instructions a program must lower to.
# Statements and nesting set how large a program is and how often its
# loops run, so the strata span small and large apps; the bands sit
# around each stratum's median size, so the frontend and mapping work of
# a corpus barely moves from seed to seed.
FUZZ_STRATA = [(6, 1, 1, 12, 190, 260), (12, 2, 2, 12, 700, 880),
               (18, 2, 2, 12, 1650, 2050), (24, 3, 2, 12, 4000, 4800)]
FUZZ_GRID = "800,1500,5000x2,3"
FUZZ_AXES = ["--strategies", "greedy,annealing,exhaustive",
             "--orderings", "weight,benefit"]

# paper-serve: the built-ins on a 16 x 8 platform grid with 10 explicit
# constraints. The paper's golden coordinates (A_FPGA 1500 and 5000,
# 2 and 3 CGCs, 60,000 cycles for OFDM and 11,000,000 for JPEG) are
# always on the grid; the seed jitters the other areas and constraints.
SERVE_APPS = "ofdm,jpeg,fir,sobel"
SERVE_FIXED_AREAS = [1500, 5000]
SERVE_AREA_BASES = [600, 700, 850, 1000, 1200, 1800, 2200, 2700, 3300,
                    4000, 6000, 7000, 8000, 9000]
SERVE_CGCS = "1,2,3,4,5,6,7,8"
SERVE_FIXED_CONSTRAINTS = [60000, 11000000]
SERVE_CONSTRAINT_BASES = [20000, 40000, 100000, 250000, 1000000, 3000000,
                          6000000, 20000000]
SERVE_AXES = ["--strategies", "greedy,annealing",
              "--orderings", "weight,benefit"]
GOLDEN_REPORTS = {"ofdm": "tests/golden/ofdm_report.golden",
                  "jpeg": "tests/golden/jpeg_report.golden"}

WORKLOADS = ("fuzz-cold", "fuzz-warm", "paper-serve")
SETUP_REPEATS = 3
MIN_INVOCATIONS = 5
# Threads of `explore` and workers of `serve`. On a few shared cores, every
# extra thread makes an invocation wait on whichever core a neighbour is
# using, and a single-threaded `perf_calibrate` tracks the host's speed
# for single-threaded work best (see host_speed).
MAX_PARALLEL = 1
# Times are reported in reference seconds: seconds on a host where one
# `perf_calibrate` takes this long. See in_ref_seconds().
CALIBRATE_REF_S = 0.15

# Printed for reading beside the gated metrics, never in the result line.
READABLE_UNITS = {"error_rate": "ratio", "mean_reduction_pct": "%",
                  "met_ratio": "ratio", "wall_median_s": "s",
                  "cpu_median_s": "s", "setup_median_s": "s",
                  "calibrate_median_s": "s"}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that makes the run's result meaningless."""


# ---------------------------------------------------------------------------
# Processes: every child runs in its own process group and is waited for
# with wait4, which returns the rusage of the child and all descendants it
# reaped — the CPU time and peak RSS of a whole `amdrelc serve` tree.
# ---------------------------------------------------------------------------

def become_subreaper():
    """Orphaned grandchildren get reparented to this process, so none can
    outlive the run unseen."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_strays():
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def run_child(argv, cwd, out_path, err_path, timeout=CHILD_TIMEOUT_S):
    """Runs argv to completion; returns (exit code, wall s, cpu s, rss MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        killer = threading.Timer(timeout, os.killpg, (proc.pid,
                                                      signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the tree left behind
    except ProcessLookupError:
        pass
    reap_strays()
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# Build and machine context.
# ---------------------------------------------------------------------------

def cmake_cache_value(key):
    path = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return None


def build(jobs):
    if not all(os.path.exists(os.path.join(REPO, p))
               for p in ("CMakeLists.txt", "src", "tools")):
        raise BenchError("no amdrel sources next to " + BENCH_DIR)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    build_type = cmake_cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError("refusing a %r build in %s; only Release is "
                         "measured" % (build_type, BUILD))
    subprocess.run(["cmake", "--build", BUILD, "--target", "amdrelc",
                    "perf_trace", "perf_calibrate", "-j", str(jobs)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    tools = {"amdrelc": os.path.join(BUILD, "amdrel", "tools", "amdrelc"),
             "perf_trace": os.path.join(BUILD, "perf_trace"),
             "perf_calibrate": os.path.join(BUILD, "perf_calibrate")}
    info = json.loads(subprocess.run([tools["perf_trace"], "info"],
                                     check=True, capture_output=True,
                                     text=True, timeout=60).stdout)
    if not info["ndebug"]:
        raise BenchError("refusing a build without NDEBUG")
    return tools, info["compiler"], build_type


def machine_context(nproc, compiler, build_type):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc, "cpu_model": cpu, "compiler": compiler,
            "build_type": build_type}


# ---------------------------------------------------------------------------
# Workload inputs and setup.
# ---------------------------------------------------------------------------

def jitter(rng, bases, spread):
    return [int(round(b * rng.uniform(1 - spread, 1 + spread))) for b in bases]


class Workload:
    """One workload's inputs, command lines and reference outputs, all
    made in its work directory."""

    def __init__(self, name, seed, workdir, tools, nproc):
        self.name = name
        self.seed = seed
        self.dir = workdir
        self.amdrelc = tools["amdrelc"]
        self.perf_trace = tools["perf_trace"]
        self.perf_calibrate = tools["perf_calibrate"]
        self.threads = min(nproc, MAX_PARALLEL)
        self.workers = max(1, min(nproc - 1, MAX_PARALLEL))
        if name == "paper-serve":
            rng = random.Random(seed)
            areas = sorted(SERVE_FIXED_AREAS +
                           jitter(rng, SERVE_AREA_BASES, 0.04))
            constraints = sorted(SERVE_FIXED_CONSTRAINTS +
                                 jitter(rng, SERVE_CONSTRAINT_BASES, 0.04))
            self.sweep = (["--corpus", SERVE_APPS, "--grid",
                           ",".join(map(str, areas)) + "x" + SERVE_CGCS,
                           "--constraints", ",".join(map(str, constraints))]
                          + SERVE_AXES)
        else:
            # Strata interleaved, largest first in each round: shards are
            # claimed in corpus order, so the sweep starts on big apps and
            # ends on small ones instead of idling threads behind one
            # large app at the end.
            names = ["corpus/s%d_%02d.mc" % (k, i)
                     for i in range(max(s[3] for s in FUZZ_STRATA))
                     for k in reversed(range(len(FUZZ_STRATA)))
                     if i < FUZZ_STRATA[k][3]]
            self.sweep = (["--corpus", ",".join(names), "--grid", FUZZ_GRID]
                          + FUZZ_AXES)
        self.cache = "cache.jsonl"
        self.primed = "primed.jsonl"

    def path(self, name):
        return os.path.join(self.dir, name)

    def amdrel(self, args, tag):
        code, wall, cpu, rss = run_child(
            [self.amdrelc] + args, self.dir, self.path(tag + ".out"),
            self.path(tag + ".err"))
        if code != 0:
            with open(self.path(tag + ".err"), errors="replace") as f:
                tail = f.read()[-2000:]
            raise BenchError("amdrelc %s exited %d: %s" % (args[0], code,
                                                           tail))
        return wall, cpu, rss

    def setup(self):
        """Corpus, reference artifact and (fuzz-warm) primed cache."""
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        if self.name != "paper-serve":
            os.makedirs(self.path("corpus"))
            strata = [":".join(map(str, s)) for s in FUZZ_STRATA]
            code, _, _, _ = run_child(
                [self.perf_trace, "gen", "corpus", str(self.seed)] + strata,
                self.dir, self.path("gen.out"), self.path("gen.err"))
            if code != 0:
                raise BenchError("corpus generation failed")
        # fuzz-warm's reference also writes the primed cache. It starts
        # from no file, so every cell is still computed and none is read
        # back, and setup is one sweep shorter.
        prime = (["--cache", self.primed] if self.name == "fuzz-warm"
                 else [])
        self.amdrel(["explore"] + self.sweep + ["--threads", "1"] + prime +
                    ["--json", "ref.json", "--csv", "ref.csv"], "reference")

    def load_reference(self):
        with open(self.path("ref.json"), "rb") as f:
            self.ref_json = f.read()
        with open(self.path("ref.csv"), "rb") as f:
            self.ref_csv = f.read()
        cells = json.loads(self.ref_json)["cells"]
        if not cells:
            raise BenchError("reference sweep has no cells")
        self.cells = len(cells)
        self.shards = len({(c["app"], c["a_fpga"], c["cgcs"])
                           for c in cells})
        self.quality = partition_quality(cells)
        if self.name == "paper-serve":
            check_goldens(cells)

    def expect_bytes(self, name, reference):
        with open(self.path(name), "rb") as f:
            if f.read() != reference:
                raise BenchError(name + " differs from the reference")

    def reset_cache(self):
        """No cache file and no .lock/.tmp.* sidecars; fuzz-warm then gets
        a byte-for-byte copy of the primed file."""
        for stale in glob.glob(self.path(self.cache) + "*"):
            os.remove(stale)
        if self.name == "fuzz-warm":
            shutil.copyfile(self.path(self.primed), self.path(self.cache))

    def command(self):
        out = ["--json", "out.json", "--csv", "out.csv"]
        if self.name == "paper-serve":
            # One thread per worker process: the workers are the
            # parallelism, and the coordinator keeps the last core.
            return (["serve"] + self.sweep +
                    ["--workers", str(self.workers), "--threads", "1"] + out)
        return (["explore"] + self.sweep +
                ["--threads", str(self.threads), "--cache", self.cache,
                 "--cache-stats", "stats.json"] + out)

    def invoke(self):
        """One measured invocation; raises BenchError on a wrong output."""
        for stale in ("out.json", "out.csv", "stats.json"):
            if os.path.exists(self.path(stale)):
                os.remove(self.path(stale))
        if self.name != "paper-serve":
            self.reset_cache()
        wall, cpu, rss = self.amdrel(self.command(), "invoke")
        self.expect_bytes("out.json", self.ref_json)
        self.expect_bytes("out.csv", self.ref_csv)
        if self.name != "paper-serve":
            with open(self.path("stats.json")) as f:
                stats = json.load(f)
            if self.name == "fuzz-cold":
                want = {"cell_hits": 0, "cell_misses": self.cells,
                        "mapper_builds": self.shards}
            else:
                want = {"cell_hits": self.cells, "cell_misses": 0,
                        "mapper_builds": 0, "cell_hit_rate": "1.00"}
            for key, value in want.items():
                if stats[key] != value:
                    raise BenchError("cache stats %s = %r, want %r" %
                                     (key, stats[key], value))
        return wall, cpu, rss

    def calibrate(self):
        """Wall seconds of one `perf_calibrate`, the host's speed now."""
        code, wall, _, _ = run_child([self.perf_calibrate], REPO, os.devnull,
                                     os.devnull)
        if code != 0:
            raise BenchError("perf_calibrate exited %d" % code)
        return wall

    def serve_retries(self):
        with open(self.path("invoke.err"), errors="replace") as f:
            return sum(1 for line in f if "; retrying " in line)


def partition_quality(cells):
    """Deterministic quality of the partitions a sweep found.

    reduction_vs_best_pct compares each cell's cycle reduction with the
    best reduction any strategy and ordering reached at the same app,
    platform and constraint (groups where nothing improves are skipped).
    It falls when a change cuts search effort at a cost in quality, and,
    unlike the raw mean reduction, it barely depends on which programs the
    seed drew. The raw mean reduction and the share of met cells are
    reported beside it for reading, not as gated metrics: the fuzz
    corpus's default constraints ask for at least 25% reduction, which
    its programs rarely reach, so the met share is often exactly 0.
    """
    def group(c):
        return (c["app"], c["a_fpga"], c["cgcs"], c["constraint"])

    best = {}
    for c in cells:
        best[group(c)] = max(best.get(group(c), 0.0),
                             float(c["reduction_percent"]))
    ratios = [float(c["reduction_percent"]) / best[group(c)]
              for c in cells if best[group(c)] > 0]
    if not ratios:
        raise BenchError("no cell reduces any cycles")
    return {
        "reduction_vs_best_pct": 100.0 * statistics.fmean(ratios),
        "mean_reduction_pct": statistics.fmean(
            float(c["reduction_percent"]) for c in cells),
        "met_ratio": statistics.fmean(1.0 if c["met"] else 0.0
                                      for c in cells),
    }


def parse_golden(path):
    """The hand-pinned Table 2/3 reports: one section per platform."""
    with open(path) as f:
        text = f.read()
    sections = []
    number = lambda s: int(s.replace(",", ""))
    for block in text.split("=== ")[1:]:
        head = re.match(r"A_FPGA=(\d+) CGCs=(\d+) ===", block)
        final = re.search(r"final: ([\d,]+) cycles\s+\(t_FPGA ([\d,]+) \+ "
                          r"t_coarse ([\d,]+) \+ t_comm ([\d,]+)\)", block)
        sections.append({
            "a_fpga": int(head.group(1)), "cgcs": int(head.group(2)),
            "constraint": number(re.search(r"timing constraint: ([\d,]+)",
                                           block).group(1)),
            "initial_cycles": number(re.search(
                r"all-fine-grain \(initial\): ([\d,]+)", block).group(1)),
            "moved_blocks": re.search(r"moved to CGC data-path: (.*)",
                                      block).group(1).split(),
            "final_cycles": number(final.group(1)),
            "t_fpga": number(final.group(2)),
            "t_coarse": number(final.group(3)),
            "t_comm": number(final.group(4)),
            "engine_iterations": int(re.search(
                r"after (\d+) engine iteration", block).group(1)),
        })
    return sections


def check_goldens(cells):
    index = {(c["app"], c["a_fpga"], c["cgcs"], c["constraint"],
              c["strategy"], c["ordering"]): c for c in cells}
    for app, path in GOLDEN_REPORTS.items():
        sections = parse_golden(os.path.join(REPO, path))
        if not sections:
            raise BenchError("no sections in " + path)
        for golden in sections:
            key = (app, golden["a_fpga"], golden["cgcs"],
                   golden["constraint"], "greedy", "weight")
            cell = index.get(key)
            if cell is None:
                raise BenchError("golden coordinate %r not swept" % (key,))
            for field, value in golden.items():
                if cell[field] != value:
                    raise BenchError("%r: %s = %r, golden %r" %
                                     (key, field, cell[field], value))
            if not cell["met"]:
                raise BenchError("%r: golden cell not met" % (key,))


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------

def host_speed(calibs):
    """Seconds of one `perf_calibrate` on this host when it is quiet.

    The machine is shared, and its speed drifts by a third over minutes
    as neighbours come and go: no number of invocations in one run
    averages that out. So `perf_calibrate`, a fixed amount of work linked
    to nothing of the repository, runs before the first step and after
    every timed step. Neighbours only ever add time, so the fastest
    calibrations show the host's own speed; the mean of the three
    fastest is steadier than the single fastest.
    """
    return statistics.fmean(sorted(calibs)[:3])


def in_ref_seconds(seconds, calibs):
    """`seconds` on a host where one calibration takes CALIBRATE_REF_S."""
    return seconds * CALIBRATE_REF_S / host_speed(calibs)


def end_to_end(workload, seconds):
    setups, setup_calibs = [], [workload.calibrate()]
    first_reference = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        setup_calibs.append(workload.calibrate())
        workload.load_reference()
        first_reference = first_reference or workload.ref_json
        if workload.ref_json != first_reference:
            raise BenchError("setup is not deterministic for this seed")
    walls, cpus, rsss, calibs = [], [], [], setup_calibs[-1:]
    attempted = failed = retries = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < MIN_INVOCATIONS:
        attempted += 1
        try:
            wall, cpu, rss = workload.invoke()
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
            if workload.name == "paper-serve":
                retries += workload.serve_retries()
        except BenchError as e:
            failed += 1
            log("invocation %d failed: %s" % (attempted, e))
        calibs.append(workload.calibrate())
    if not walls:
        raise BenchError("every invocation failed")
    # The fastest invocation over the host's quiet speed: on a 4-vCPU KVM
    # guest, across ten seeds of fuzz-cold, this spread by 2% (quartile
    # distance over the median) where the raw fastest time spread by 15%
    # and the raw median by 13%.
    wall = in_ref_seconds(min(walls), calibs)
    metrics = {
        "wall_ref_s": wall,
        "cells_per_ref_s": workload.cells / wall,
        "cpu_ref_s": in_ref_seconds(min(cpus), calibs),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": in_ref_seconds(statistics.median(setups), setup_calibs),
        "reduction_vs_best_pct": workload.quality["reduction_vs_best_pct"],
    }
    log("%d invocations, %d failed, %d serve retries; walls %s; "
        "calibrations %s" %
        (attempted, failed, retries, " ".join("%.3f" % w for w in walls),
         " ".join("%.4f" % c for c in setup_calibs + calibs[1:])))
    readable = {"error_rate": failed / attempted,
                "wall_median_s": statistics.median(walls),
                "cpu_median_s": statistics.median(cpus),
                "setup_median_s": statistics.median(setups),
                "calibrate_median_s": statistics.median(setup_calibs +
                                                        calibs[1:]),
                "mean_reduction_pct": workload.quality["mean_reduction_pct"],
                "met_ratio": workload.quality["met_ratio"]}
    return metrics, attempted, failed, readable


def traced(workload, seconds, spans):
    workload.setup()
    workload.load_reference()
    args = [workload.perf_trace, "trace", "--seconds", str(seconds),
            "--spans", spans, "--json", "ref.json", "--csv", "ref.csv"]
    args += workload.sweep
    if workload.name == "paper-serve":
        args += ["--mode", "serve", "--threads", str(workload.threads)]
    else:
        args += ["--mode", workload.name.split("-")[1],
                 "--cache", "trace_cache.jsonl"]
        if workload.name == "fuzz-warm":
            args += ["--primed", workload.primed]
    code, _, _, _ = run_child(args, workload.dir, workload.path("trace.out"),
                              workload.path("trace.err"))
    if code != 0:
        with open(workload.path("trace.err"), errors="replace") as f:
            raise BenchError("perf_trace exited %d: %s" % (code,
                                                           f.read()[-2000:]))
    with open(workload.path("trace.out")) as f:
        metrics = json.loads(f.read().strip().splitlines()[-1])
    attempted = 2 * int(metrics["trace.replays"]) + 1
    # Retries only happen across a real worker fleet: one `serve`
    # invocation supplies serve.retries.
    metrics["serve.retries"] = 0
    if workload.name == "paper-serve":
        workload.invoke()
        attempted += 1
        metrics["serve.retries"] = workload.serve_retries()
    if workload.name == "fuzz-warm" and (
            metrics["cache.mapper_builds"] != 0 or
            metrics["cache.cell_hit_ratio"] != 1):
        raise BenchError("warm replay built mappers or missed cells")
    return metrics, attempted, 0, {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    become_subreaper()
    nproc = len(os.sched_getaffinity(0))
    try:
        tools, compiler, build_type = build(nproc)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    context = machine_context(nproc, compiler, build_type)
    tag = "%s-seed%d-trace%d" % (opts.workload, opts.seed, opts.trace)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(REPO, ".bench_work", tag)
    workload = Workload(opts.workload, opts.seed, workdir, tools, nproc)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if opts.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    try:
        if opts.trace:
            spans = os.path.join(RESULTS, "spans-%s.json" % tag)
            metrics, attempted, failed, readable = traced(
                workload, opts.seconds, spans)
        else:
            metrics, attempted, failed, readable = end_to_end(
                workload, opts.seconds)
        if set(metrics) != set(units):
            raise BenchError("measured %s, BENCHMARK.json declares %s" %
                             (sorted(metrics), sorted(units)))
        correct = failed == 0
    except BenchError as e:
        log("run failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in sorted(metrics.items()):
        print("%-32s %16.6f %s" % (name, value, units[name]))
    for name, value in sorted(readable.items()):
        print("%-32s %16.6f %s" % (name, value, READABLE_UNITS[name]))
    print("context " + json.dumps(context, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in sorted(metrics.items())}}
    with open(os.path.join(RESULTS, "results.jsonl"), "a") as f:
        f.write(json.dumps({"run": tag, "context": context, **result},
                           sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
