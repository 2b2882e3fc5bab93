#!/usr/bin/env python3
"""perfbench: the asyncmac benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--out RESULTS.jsonl]
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
                           [--out RESULTS.jsonl]
  python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Builds perfbench_measure (measure.cpp) from the sources next to this
directory into .bench_build/perfbench, runs one workload in its own
process, derives the metrics from its raw samples, prints them by
name and unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. --out appends the full result (with a run fingerprint) to
a JSON-lines file that --compare reads.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
MEASURE = BUILD / "perfbench_measure"

WORKLOADS = ("grid_lockstep", "grid_scalar", "msr_table", "fuzz_campaign",
             "live_virtual")
DEFAULT_SEED = 1  # the held-out seed is 7 (README.md)
# Process-start probes, split before and after the workload's run so a
# short slow stretch of the host does not set the median.
START_PROBES = (21, 20)
MEASURE_TIMEOUT_S = 170
# End-to-end times are divided by the host slowdown (the run's median
# HostProbe time over PROBE_REF_S) to a power. The probe is more sensitive
# to the shared host's state than most workloads, so a full division would
# over-correct them; grid_lockstep's compute-bound cohort loops follow the
# probe one to one. Measured on the reference host (README.md, "Bounds and
# noise").
HOST_EXPONENT = 0.75
HOST_EXPONENT_BY_WORKLOAD = {"grid_lockstep": 1.0}
PROBE_REF_S = 0.02
# Traced iterations: the spans directly under an iteration must cover
# its wall time to within this share.
SPAN_COVERAGE_TOLERANCE = 0.02


class BenchError(Exception):
    pass


# ----------------------------------------------------------------- build

def build():
    if not (ROOT / "src" / "analysis" / "grid.h").is_file():
        raise BenchError(f"asyncmac sources not found under {ROOT / 'src'}")
    if not shutil.which("cmake"):
        raise BenchError("cmake not found on PATH")

    def step(cmd):
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))

    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))])


# ---------------------------------------------------------- fingerprint

def fingerprint(measure_build, workload, seed, trace):
    def git(*args):
        try:
            p = subprocess.run(["git", "-C", str(ROOT), *args],
                               capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    # Only this checkout's own repository; never a parent directory's.
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if sha else None
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha or "none (not a git checkout)",
        "git_dirty": bool(status) if sha else None,
        "build_type": measure_build.get("build_type"),
        "cxx_flags": measure_build.get("cxx_flags", "").strip(),
        "compiler": measure_build.get("compiler"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


# ------------------------------------------------------------------ run

def process_start_samples(count):
    """Wall times to spawn perfbench_measure and let it exit after static
    initialization: the process-start part of set-up."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([str(MEASURE), "--probe-start"], check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def run_measure(workload, seed, seconds, trace):
    cmd = [str(MEASURE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench_measure exceeded {MEASURE_TIMEOUT_S} s")
    if p.returncode:
        raise BenchError(f"perfbench_measure exited {p.returncode}: {p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def timing_note(xs, unit="s"):
    tail = stats.tail_percentile(xs)
    tail_s = (f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail
              else "no percentile has 10 samples beyond it")
    return f"median of n={len(xs)}; {tail_s}"


def wall_s(iters):
    """Median iteration wall time; for msr_table, whose iterations time
    each row as its own part, the sum over rows of each row's median."""
    walls = [it["wall"] for it in iters]
    rows = len(iters[0]["parts"])
    if rows == 1:
        return stats.median(walls), timing_note(walls)
    value = sum(stats.median([it["parts"][k] for it in iters])
                for k in range(rows))
    return value, (f"sum of {rows} per-row medians; whole table "
                   + timing_note(walls))


def host_slowdown(iters):
    """The run's median host probe over PROBE_REF_S. The probes are taken
    between the timed calls all through the run; one median over the run
    follows the host's drift from run to run without adding each probe's
    own jitter to each call."""
    probes = [p for it in iters for p in it["probes"]]
    return stats.median(probes) / PROBE_REF_S, len(probes)


def end_to_end(d, start_s):
    iters = [it for it in d["iterations"] if not it["traced"]]
    wall, wall_note = wall_s(iters)
    slow, n_probes = host_slowdown(iters)
    scale = slow ** HOST_EXPONENT_BY_WORKLOAD.get(d["workload"], HOST_EXPONENT)
    inputs = stats.median(d["setup_s"])
    attempted, failed = d["attempted"], d["failed"]
    return {
        "wall_s": (wall / scale, "s",
                   f"unscaled {wall:.6g} s ({wall_note}); host slowdown "
                   f"{slow:.4g} (median of {n_probes} probes)"),
        "setup_s": ((start_s + inputs) / scale, "s",
                    f"unscaled: process start {start_s:.6g} s (median of "
                    f"{sum(START_PROBES)}) + inputs {inputs:.6g} s "
                    f"({timing_note(d['setup_s'])})"),
        "peak_rss_mb": (d["peak_rss_kb"] / 1024.0, "MiB", "VmHWM of the run"),
    }, f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} units)"


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(d):
    """Every per-layer metric, derived from the traced iterations, their
    spans and telemetry counts. A metric whose layer the workload does not
    exercise reads 0. Returns ({name: (value, unit, note)}, problems)."""
    spans = d["spans"]
    iters = d["iterations"]
    traced = [it for it in iters if it["traced"]]
    untraced = [it for it in iters if not it["traced"]]
    problems = []

    def root_of(i):
        while spans[i][1] >= 0:
            i = spans[i][1]
        return i

    durs, per_root = {}, {}
    for i, (name, _parent, start, end) in enumerate(spans):
        durs.setdefault(name, []).append(end - start)
        key = (root_of(i), name)
        per_root[key] = per_root.get(key, 0.0) + (end - start)
    builds = [per_root.get((it["root"], "analysis.engine_build"), 0.0)
              for it in traced]

    def med(name):
        xs = durs.get(name)
        return stats.median(xs) if xs else 0.0

    def total(name):
        return sum(durs.get(name, []))

    first = traced[0]
    facts = first["facts"]
    engine_phases = [p for p in d["phases"] if p["name"] == "engine"]
    phase = {p["name"]: p["counts"] for p in d["phases"]}
    # Where the simulator's counts come from: the live workload runs no
    # sim::Engine in its timed call, so its sim/channel numbers come from
    # the sim::Engine control run on the same RunSpec.
    c = engine_phases[0]["counts"] if engine_phases else first["counts"]
    n_traced = len(traced)
    slots = c.get("engine.slots", 0)

    wl = d["workload"]
    if wl in ("grid_lockstep", "grid_scalar"):
        sim_s, sim_slots = total("analysis.unit"), slots * n_traced
    elif wl == "msr_table":
        sim_s = total("analysis.probe") - total("analysis.engine_build")
        sim_slots = slots * n_traced
    elif wl == "fuzz_campaign":
        sim_s = total("verify.sim")
        sim_slots = phase["scenarios"].get("engine.slots", 0)
    else:
        sim_s = total("sim.engine_run")
        sim_slots = sum(p["counts"].get("engine.slots", 0)
                        for p in engine_phases)

    if wl in ("grid_lockstep", "grid_scalar"):
        collided, tx = facts.get("collided", 0), c.get("channel.transmissions", 0)
    elif wl == "fuzz_campaign":
        collided = phase["scenarios"].get("fact.collided", 0)
        tx = phase["scenarios"].get("fact.transmissions", 0)
    elif wl == "live_virtual":
        collided, tx = facts.get("collided", 0), facts.get("transmissions", 0)
    else:
        collided = tx = 0  # estimate_msr does not expose its engines

    coverage = []
    for it in traced:
        r = it["root"]
        top = sum(e - s for _n, p, s, e in spans if p == r)
        coverage.append(ratio(top, it["wall"]))
    cov = stats.median(coverage)
    if abs(cov - 1.0) > SPAN_COVERAGE_TOLERANCE:
        problems.append(f"top-level spans cover {cov:.4f} of traced wall_s "
                        f"(tolerance {SPAN_COVERAGE_TOLERANCE})")

    queries = c.get("channel.feedback_queries", 0)
    memo = c.get("channel.memo_hits", 0) + c.get("channel.memo_misses", 0)
    prunes = c.get("channel.prunes", 0)
    dgrams = first["counts"].get("live.datagrams_tx", 0)
    t_walls = [it["wall"] for it in traced]
    u_walls = [it["wall"] for it in untraced]
    tw, uw = stats.median(t_walls), stats.median(u_walls)
    probe = durs.get("analysis.probe", [])
    cases = durs.get("verify.case", [])
    unit_spans = durs.get("analysis.unit", [])

    m = {}

    def put(name, value, unit, note=""):
        m[name] = (value, unit, note)

    put("analysis.plan_s", med("analysis.plan"), "s",
        timing_note(durs["analysis.plan"]) if "analysis.plan" in durs else "n/a")
    put("analysis.units", facts.get("units", 0), "count", "work units per grid")
    put("analysis.cohort_width", facts.get("cohort_width", 0), "lanes")
    put("analysis.unit_s.p50", med("analysis.unit"), "s",
        timing_note(unit_spans) if unit_spans else "n/a")
    put("analysis.msr_probes", facts.get("msr_probes", 0), "count",
        "MsrResult.probes summed over the table")
    put("analysis.probe_s.p50", med("analysis.probe"), "s",
        timing_note(probe) if probe else "n/a")
    put("analysis.probe_s.p90",
        stats.percentile(probe, 90) if probe else 0.0, "s",
        f"n={len(probe)}")
    put("analysis.engine_build_s", stats.median(builds), "s",
        "time in the RateEngineFactory per table")
    put("sim.slots", slots, "count")
    put("sim.injections", c.get("engine.injections", 0), "count")
    put("sim.deliveries", c.get("engine.deliveries", 0), "count")
    put("sim.ns_per_slot", 1e9 * ratio(sim_s, sim_slots), "ns",
        f"{sim_s:.6g} s of simulator spans / {sim_slots} slots")
    put("sim.polls_skipped_frac",
        ratio(c.get("engine.injection_polls_skipped", 0), slots), "1",
        f"base {slots} slots")
    put("sim.prunes", c.get("engine.prunes", 0), "count")
    put("sim.cohort_batches", c.get("cohort.batches", 0), "count")
    put("sim.cohort_detaches", c.get("cohort.detaches", 0), "count")
    put("sim.cohort_lanes_retired", c.get("cohort.lanes_retired", 0), "count")
    put("channel.feedback_queries", queries, "count")
    put("channel.scanned_per_query",
        ratio(c.get("channel.feedback_scanned", 0), queries), "entries",
        f"base {queries} queries")
    put("channel.fast_silence_frac",
        ratio(c.get("channel.feedback_fast_silence", 0), queries), "1",
        f"base {queries} queries")
    put("channel.memo_hit_frac", ratio(c.get("channel.memo_hits", 0), memo),
        "1", f"base {memo} memo lookups")
    put("channel.window_peak", c.get("channel.window_peak", 0), "entries")
    put("channel.pruned_per_prune",
        ratio(c.get("channel.pruned_entries", 0), prunes), "entries",
        f"base {prunes} prunes")
    put("channel.collided_frac", ratio(collided, tx), "1",
        f"base {tx} transmissions" if tx else "n/a")
    put("core.ao_arrow.elections", c.get("core.ao_arrow.elections", 0), "count")
    put("core.ao_arrow.long_silences", c.get("core.ao_arrow.long_silences", 0),
        "count")
    put("core.ca_arrow.turns", c.get("core.ca_arrow.turns", 0), "count")
    put("verify.case_s.p50", med("verify.case"), "s",
        timing_note(cases) if cases else "n/a")
    put("verify.case_s.p99", stats.percentile(cases, 99) if cases else 0.0,
        "s", f"n={len(cases)}")
    put("verify.sim_share", ratio(total("verify.sim"), total("verify.case")),
        "1", f"base {total('verify.case'):.6g} s of run_case")
    put("verify.gen_s", med("verify.gen"), "s",
        timing_note(durs["verify.gen"]) if "verify.gen" in durs else "n/a")
    put("verify.violations", first["counts"].get("verify.violations", 0),
        "count")
    put("verify.shrink_candidates",
        first["counts"].get("verify.shrink_candidates", 0), "count")
    put("live.datagrams_per_slot", ratio(dgrams, facts.get("slots", 0)), "1",
        f"base {facts.get('slots', 0)} slots" if dgrams else "n/a")
    put("live.ns_per_datagram", 1e9 * ratio(med("live.run_virtual"), dgrams),
        "ns", f"base {dgrams} datagrams" if dgrams else "n/a")
    put("live.overhead_x",
        ratio(med("live.run_virtual"), med("sim.engine_run")), "x",
        "run_virtual / sim::Engine on the same RunSpec" if dgrams else "n/a")
    put("telemetry.overhead_frac", ratio(tw - uw, uw), "1",
        f"traced {tw:.6g} s (n={len(t_walls)}) vs untraced {uw:.6g} s "
        f"(n={len(u_walls)})")
    put("bench.span_coverage", cov, "1",
        f"tolerance {SPAN_COVERAGE_TOLERANCE}")
    return m, problems


def run_one(workload, seed, seconds, trace, out_path):
    if trace:
        d = run_measure(workload, seed, seconds, trace)
        metrics, problems = per_layer(d)
    else:
        starts = process_start_samples(START_PROBES[0])
        d = run_measure(workload, seed, seconds, trace)
        starts += process_start_samples(START_PROBES[1])
        metrics, failed_line = end_to_end(d, stats.median(starts))
        problems = []
    problems = d["failures"] + problems
    fp = fingerprint(d["build"], workload, seed, trace)

    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={trace}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:28s} {value:<14.6g} {unit:8s} {note}")
    if not trace:
        print(f"  {failed_line}")
    for p in problems:
        print(f"  FAILED: {p}")

    result = {
        "correct": not problems and d["failed"] == 0,
        "attempted": d["attempted"],
        "failed": d["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in
                    metrics.items()},
    }
    if out_path:
        with open(out_path, "a") as f:
            f.write(json.dumps({**result, "fingerprint": fp,
                                "problems": problems}) + "\n")
    return result


# -------------------------------------------------------------- compare

def compare(parent_path, change_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    def load(path, trace):
        runs = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                r = json.loads(line)
                if r["fingerprint"]["trace"] == trace:
                    runs.setdefault(r["fingerprint"]["workload"], []).append(r)
        return runs

    parent, change = load(parent_path, 0), load(change_path, 0)
    print(f"{'workload':14s} {'metric':12s} {'parent q1/med/q3':32s} "
          f"{'change q1/med/q3':32s} {'bound':>6s} {'pairs':>6s} verdict")
    for wl in WORKLOADS:
        if wl not in parent or wl not in change:
            continue
        for name, spec in e2e.items():
            pv = [r["metrics"][name]["value"] for r in parent[wl]]
            cv = [r["metrics"][name]["value"] for r in change[wl]]
            wins, losses = stats.pair_wins(pv, cv, spec["better"])
            v = stats.verdict(pv, cv, spec["better"], spec["bound"])

            def q(xs):
                return "/".join(f"{x:.4g}" for x in stats.quartiles(xs))

            print(f"{wl:14s} {name:12s} {q(pv):32s} {q(cv):32s} "
                  f"{spec['bound']:>6g} {wins:>2d}-{losses:<3d} {v}")

    # Exact counts of traced runs at the same seed must match.
    tp, tc = load(parent_path, 1), load(change_path, 1)
    for wl in WORKLOADS:
        by_seed = {r["fingerprint"]["seed"]: r for r in tp.get(wl, [])}
        for r in tc.get(wl, []):
            p = by_seed.get(r["fingerprint"]["seed"])
            if not p:
                continue
            moved = [k for k, m in r["metrics"].items()
                     if m["unit"] == "count"
                     and p["metrics"].get(k, {}).get("value") != m["value"]]
            print(f"{wl:14s} traced seed {r['fingerprint']['seed']}: exact "
                  f"counts {'moved: ' + ', '.join(moved) if moved else 'equal'}")


# ----------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    a = ap.parse_args()
    try:
        if a.compare:
            compare(*a.compare)
            return 0
        if not a.workload and not a.all:
            ap.error("give --workload, --all or --compare")
        if a.seed < 0 or a.seconds <= 0:
            ap.error("--seed must be >= 0 and --seconds > 0")
        build()
        names = WORKLOADS if a.all else (a.workload,)
        results = {w: run_one(w, a.seed, a.seconds, a.trace, a.out)
                   for w in names}
        if a.all:
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()},
            }
        else:
            result = results[a.workload]
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
