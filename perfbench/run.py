#!/usr/bin/env python3
"""Campaign benchmark of the CREATE reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --write-reference

Run from the repository root (or anywhere: paths resolve from this file).
The first run builds perfbench/ (the repository's library plus the
`perfbench` benchmark binary, Release) into .bench_build/ and trains the model
cache there; later runs reuse both. Each run then:

  1. stamps the environment (SIMD tier, nproc, build type, CREATE_METRICS,
     asset-cache state) and refuses any build type but Release;
  2. warms the model cache and runs one discarded campaign pass;
  3. repeats the workload's fixed-work campaign, closed loop (the next
     pass starts when the previous one has finished), for --seconds,
     each pass a fresh process (fleet: three) with a fresh store;
  4. checks every pass's store, ledger by ledger, against the reference
     pinned in perfbench/reference/ and the first episodes against
     bench/golden/ (bit-exact, wallMs aside);
  5. prints one JSON object as the last stdout line: the end-to-end
     metrics (--trace 0) or the per-layer metrics (--trace 1, a traced run
     with a serial replay of the campaign; see README.md).

Exit code 0 when every output was correct; 1 on any mismatch or failure
(after printing the result when there is one); 2 on usage errors; 3 when
the build is not a Release build.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
ASSETS = os.path.join(WORK, "assets")
RUNS = os.path.join(WORK, "runs")
BIN = os.path.join(BUILD, "perfbench")

# Workload -> the bench/golden store its first episodes are checked against;
# `threads` is the campaign's total worker threads (fleet: 2 workers x 1).
WORKLOADS = {
    "fig13-matrix": {"golden": "fig13", "fleet": False, "threads": 4},
    "tab05-deep": {"golden": "tab05", "fleet": False, "threads": 2},
    "fig17-fleet": {"golden": "fig17", "fleet": True, "threads": 2},
}
GOLDEN_SEED0 = 1000  # EmbodiedSystem::kDefaultSeed0, what bench/golden holds
BUILD_JOBS = 4
MIN_PASSES = 3
PASS_TIMEOUT_S = 90


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    """Configure (once) and build the binary; BenchError on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repository source tree at " + ROOT)
    os.makedirs(WORK, exist_ok=True)
    logpath = os.path.join(WORK, "build.log")
    with open(logpath, "a") as logf:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(BUILD_JOBS)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed (see %s)" % logpath)


def bench_env(metrics=True):
    env = dict(os.environ)
    env["CREATE_ASSETS_DIR"] = ASSETS
    env["CREATE_METRICS"] = "1" if metrics else "0"
    # Chaos faults and a tuned fusion window would change what is measured.
    for key in ("CREATE_CHAOS", "CREATE_CHAOS_SEED", "CREATE_BATCH_WINDOW_US"):
        env.pop(key, None)
    return env


def run_role(args, metrics=True, timeout=PASS_TIMEOUT_S):
    """Run one perfbench role to completion; its last JSON line."""
    proc = subprocess.run([BIN] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          env=bench_env(metrics), timeout=timeout, cwd=ROOT)
    res = benchlib.parse_last_json(proc.stdout)
    if proc.returncode != 0 or res is None:
        raise BenchError("perfbench %s failed (%d): %s" % (
            args[0], proc.returncode, proc.stderr.strip()[-400:]))
    return res


class Watchdog:
    """Kills every registered process after a deadline (no hung pass)."""

    def __init__(self, seconds):
        self.procs = []
        self.fired = False
        self.timer = threading.Timer(seconds, self._fire)
        self.timer.start()

    def _fire(self):
        self.fired = True
        for p in self.procs:
            if p.poll() is None:
                p.kill()

    def close(self):
        self.timer.cancel()
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def read_role(proc, role):
    """Block until `proc` prints the JSON line of `role`."""
    for line in proc.stdout:
        res = benchlib.parse_last_json(line)
        if res and res.get("role") == role:
            return res
    raise BenchError("%s exited (%s) before '%s'" % (
        os.path.basename(proc.args[1]), proc.wait(), role))


def campaign_pass(wl, seed, seed0, passdir, metrics=True, trace=False):
    """One fixed-work campaign; timings, resources and its store export."""
    shutil.rmtree(passdir, ignore_errors=True)
    os.makedirs(passdir)
    store = os.path.join(passdir, "store")
    export = os.path.join(passdir, "export.json")
    common = ["--workload", wl, "--seed", str(seed), "--seed0", str(seed0)]
    if not WORKLOADS[wl]["fleet"]:
        args = ["campaign"] + common + ["--store", store, "--export", export]
        if trace:
            args += ["--trace", passdir + "-trace.json"]
        t0 = time.monotonic()
        res = run_role(args, metrics)
        return {"setup": res["ready"] - t0, "wall": res["end"] - res["ready"],
                "cpu": res["cpu_s"], "rss_kb": res["maxrss_kb"],
                "executed": res["episodes"], "batch": batch_of([res]),
                "export": export, "store": store, "coord": None}

    errlog = open(os.path.join(passdir, "stderr.log"), "w")
    dog = Watchdog(PASS_TIMEOUT_S)
    try:
        t0 = time.monotonic()
        coord = subprocess.Popen(
            [BIN, "coordinator", "--store", store, "--export", export],
            stdout=subprocess.PIPE, stderr=errlog, text=True,
            env=bench_env(metrics), cwd=ROOT)
        dog.procs.append(coord)
        port = int(read_role(coord, "listening")["port"])
        workers = []
        for _ in range(2):
            w = subprocess.Popen(
                [BIN, "worker"] + common +
                ["--connect", "127.0.0.1:%d" % port],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=errlog,
                text=True, env=bench_env(metrics), cwd=ROOT)
            dog.procs.append(w)
            workers.append(w)
        for w in workers:
            read_role(w, "ready")
        t_go = time.monotonic()
        for w in workers:
            w.stdin.write("go\n")
            w.stdin.close()
        outs = [read_role(w, "worker") for w in workers]
        cres = read_role(coord, "coordinator")
        for p in workers + [coord]:
            if p.wait() != 0:
                raise BenchError("fleet process exited %d" % p.returncode)
    finally:
        dog.close()
        errlog.close()
    if dog.fired:
        raise BenchError("fleet pass timed out")
    end = max([o["end"] for o in outs] + [cres["end"]])
    return {"setup": t_go - t0, "wall": end - t_go,
            "cpu": sum(o["cpu_s"] for o in outs) + cres["cpu_s"],
            "rss_kb": max([o["maxrss_kb"] for o in outs] +
                          [cres["maxrss_kb"]]),
            "executed": sum(o["episodes"] for o in outs),
            "batch": batch_of(outs), "export": export, "store": store,
            "coord": cres}


def batch_of(results):
    keys = ("batch_requests", "batch_groups", "batch_window_expiries")
    return {k: sum(r[k] for r in results) for k in keys}


class Checker:
    """Per-pass correctness gate: pinned reference plus golden prefix."""

    def __init__(self, wl, seed0):
        self.wl = wl
        self.seed0 = seed0
        self.reference = None
        path = os.path.join(HERE, "reference", wl + ".json")
        if os.path.isfile(path):
            with open(path) as f:
                pinned = json.load(f)
            if pinned["seed0"] == seed0:
                self.reference = pinned
        self.golden = []
        if seed0 == GOLDEN_SEED0:
            gpath = os.path.join(ROOT, "bench", "golden",
                                 WORKLOADS[wl]["golden"] + ".json")
            with open(gpath) as f:
                self.golden = json.load(f)
        self.attempted = 0
        self.errors = 0
        self.notes = []

    def check(self, p, metrics_on=True):
        episodes = benchlib.load_episodes(p["export"])
        if self.reference is None:
            # No reference pinned for this seed0: the first pass becomes
            # one, so later passes are still held to it bit for bit.
            self.reference = benchlib.make_reference(
                episodes, self.wl, self.seed0,
                workload_reps(self.wl, episodes))
            log("no pinned reference for seed0=%d; checking passes "
                "against the first" % self.seed0)
        attempted, errors, notes = benchlib.check_episodes(
            episodes, self.reference, metrics_on)
        duplicated = max(0, int(p["executed"]) - attempted)
        if metrics_on and self.golden:
            _, gerr, gnotes = benchlib.check_golden(
                episodes, self.golden, self.reference)
            errors += gerr
            notes += gnotes
        self.attempted += attempted
        self.errors += errors + duplicated
        self.notes += notes[:5]
        if duplicated:
            self.notes.append("%d episodes ran more than once" % duplicated)
        return episodes


def workload_reps(wl, episodes):
    return 1 + max(benchlib.episode_key(n)[1] for n in episodes)


def stamp_and_warm(wl, seed0, passdir):
    """Environment stamp, Release check, model warm-up, discarded pass."""
    stamp = run_role(["stamp"])
    if stamp["build_type"] != "Release" or int(stamp["ndebug"]) != 1:
        print("perfbench: refusing a %s build (NDEBUG=%s); results are only "
              "comparable from Release" % (stamp["build_type"],
                                           stamp["ndebug"]), file=sys.stderr)
        sys.exit(3)
    os.makedirs(ASSETS, exist_ok=True)  # the model cache only writes into it
    cached = len(os.listdir(ASSETS))
    t0 = time.monotonic()
    run_role(["warm"], timeout=900)
    warm_s = time.monotonic() - t0
    campaign_pass(wl, 0, seed0, passdir)  # discarded: page cache, lazy init
    return {
        "simd": stamp["simd"],
        "build_type": stamp["build_type"],
        "nproc": os.cpu_count(),
        "create_metrics": 1,
        "asset_cache": "warm (%d files)" % cached if cached
        else "cold (trained in %.1f s, excluded from every metric)" % warm_s,
    }


def episode_percentiles(wall_ms):
    """Episode p50 and tail over the run's episodes, each at its median."""
    pct = benchlib.episode_percentiles(wall_ms)
    if pct is None:
        raise BenchError("only %d episodes" % len(wall_ms))
    return pct


def e2e_metrics(passes, wall_ms, checker, stamp):
    walls = [p["wall"] for p in passes]
    eps = [p["episodes"] / p["wall"] for p in passes]
    p50, p_tail, tail = episode_percentiles(wall_ms)
    stamp.update({"passes": len(passes), "episodes": len(wall_ms),
                  "episode_samples": sum(len(v) for v in wall_ms.values()),
                  "tail_percentile": tail,
                  "campaign_wall_s": [round(w, 4) for w in walls]})
    return {
        "episodes_per_s": statistics.median(eps),
        "setup_s": statistics.median([p["setup"] for p in passes]),
        "episode_ms_p50": p50,
        "episode_ms_p95": p_tail,
        "cpu_ms_per_episode": statistics.median(
            [p["cpu"] / p["episodes"] * 1e3 for p in passes]),
        "peak_rss_mb": statistics.median([p["rss_kb"] / 1024.0
                                        for p in passes]),
        "exact_rate": 1.0 - checker.errors / max(1, checker.attempted),
    }


def run_passes(wl, seed, seed0, seconds, kinds, checker, rundir):
    """Closed loop: passes cycle through `kinds` until `seconds` passed and
    every kind has MIN_PASSES (plain) or 2 (others). Keeps each pass's
    numbers, every episode's wallMs by episode, and the last pass's
    episodes.

    Each cycle of `kinds` declares the cells in an order of its own, drawn
    from `seed` (seed 0: the figure's order throughout). Declaration order
    sets the schedule, and on fig13 one order can take 1.5x as long as
    another; the medians then average over a run's orders instead of
    hanging on a single draw."""
    by_kind = {k: [] for k in kinds}
    wall_ms = {k: {} for k in kinds}
    last_episodes = {}
    t0 = time.monotonic()
    i = 0
    while True:
        enough = all(len(by_kind[k]) >= (MIN_PASSES if k == "plain" else 2)
                     for k in kinds)
        if enough and time.monotonic() - t0 >= seconds:
            break
        kind = kinds[i % len(kinds)]
        order = seed and seed * 1000 + i // len(kinds)
        passdir = os.path.join(rundir, "pass-%02d" % i)
        p = campaign_pass(wl, order, seed0, passdir,
                          metrics=kind != "metrics_off",
                          trace=kind == "traced")
        ep = checker.check(p, metrics_on=kind != "metrics_off")
        p["episodes"] = len(ep)
        p["passdir"] = passdir
        by_kind[kind].append(p)
        for name, r in ep.items():
            if "wallMs" in r:
                wall_ms[kind].setdefault(name, []).append(r["wallMs"])
        last_episodes[kind] = ep
        if i >= len(kinds) * 2:  # keep the disk footprint bounded
            old = os.path.join(rundir, "pass-%02d" % (i - len(kinds) * 2))
            shutil.rmtree(old, ignore_errors=True)
        i += 1
    return by_kind, wall_ms, last_episodes


def per_layer_metrics(wl, seed0, by_kind, wall_ms, last_episodes, checker,
                      rundir, stamp):
    plain = by_kind["plain"]
    last = plain[-1]
    rep = run_role(["replay", "--workload", wl, "--seed0", str(seed0),
                    "--store", last["store"], "--scratch", rundir,
                    "--trace", os.path.join(rundir, "replay-trace.json")],
                   timeout=150)
    errors = int(rep["replay_mismatches"] + rep["replay_missing"] +
                 rep["hook_mismatches"])
    checker.attempted += int(rep["replayed"] + rep["hook_episodes"])
    checker.errors += errors
    if errors:
        checker.notes.append("%d replayed episodes differ from their "
                             "campaign records" % errors)

    med = statistics.median
    wall = med([p["wall"] for p in plain])
    eps_s = med([p["episodes"] / p["wall"] for p in plain])
    camp_p50 = episode_percentiles(wall_ms["plain"])[0]
    serial_eps = rep["replayed"] / rep["replay_s"]
    recs = list(last_episodes["plain"].values())
    gemms = sum(r.get("gemmCalls", 0) for r in recs)
    batch = {k: med([p["batch"][k] for p in plain])
             for k in plain[0]["batch"]}
    coord = {}
    if plain[0]["coord"]:
        coord = {k: med([p["coord"][k] for p in plain])
                 for k in ("ranges", "redispatched", "range_ms_p50",
                           "range_ms_p95", "max_worker_share")}
    traced = by_kind["traced"][-1]
    stamp["traces"] = [traced["passdir"] + "-trace.json",
                       os.path.join(rundir, "replay-trace.json")]
    stamp["replayed_episodes"] = rep["replayed"]
    m = {
        "core.sweep.parallel_eff":
            rep["replay_s"] / (WORKLOADS[wl]["threads"] * wall),
        "core.sweep.prepare_ms": rep["prepare_ms"],
        "core.sweep.model_load_ms": rep["model_load_ms"],
        "core.sweep.serial_episodes_per_s": serial_eps,
        "core.sweep.speedup_vs_serial": eps_s / serial_eps,
        "core.embodied_system.episode_ms_p50": rep["replay_episode_ms_p50"],
        "core.embodied_system.inflation":
            camp_p50 / rep["replay_episode_ms_p50"],
        "core.embodied_system.us_per_step":
            rep["replay_s"] / rep["steps"] * 1e6,
        "agent.steps_per_episode": rep["steps"] / rep["replayed"],
        "agent.planner_calls_per_episode":
            rep["planner_calls"] / rep["replayed"],
        "core.batched_queue.requests": batch["batch_requests"],
        "core.batched_queue.groups": batch["batch_groups"],
        "core.batched_queue.avg_batch":
            batch["batch_requests"] / batch["batch_groups"]
            if batch["batch_groups"] else 0.0,
        "core.batched_queue.window_expiries": batch["batch_window_expiries"],
        "core.coordinator.ranges": coord.get("ranges", 0.0),
        "core.coordinator.redispatched": coord.get("redispatched", 0.0),
        "core.coordinator.range_ms_p50": coord.get("range_ms_p50", 0.0),
        "core.coordinator.range_ms_p95": coord.get("range_ms_p95", 0.0),
        "core.coordinator.max_worker_share":
            coord.get("max_worker_share", 0.0),
        "core.store_backend.flush_us_per_batch": rep["flush_us_per_batch"],
        "core.store_backend.load_ms": rep["store_load_ms"],
        "core.store_backend.bytes_per_episode":
            rep["store_bytes"] / rep["stored_episodes"],
        "agent.controller_us_per_step": rep["controller_us_per_step"],
        "core.voltage_policy.vs_us_per_step": rep["vs_us_per_step"],
        "agent.gap_us_per_step": rep["gap_us_per_step"],
        "env.mineworld.step_us": rep["mineworld_step_us"],
        "models.planner.infer_us": rep["planner_infer_us"],
        "models.controller.infer_us": rep["controller_infer_us"],
        "models.predictor.infer_us": rep["predictor_infer_us"],
        "hw.gemms_per_episode": gemms / len(recs),
        "fault.flips_per_gemm":
            sum(r.get("flipsInjected", 0) for r in recs) / gemms
            if gemms else 0.0,
        "core.anomaly.detected_per_episode":
            sum(r.get("flipsDetected", 0) for r in recs) / len(recs),
        "hw.faulty_linear_us": rep["faulty_linear_us"],
        "hw.intgemm_gmacs": rep["intgemm_gmacs"],
        "quant.quantize_ns_per_elem": rep["quantize_ns_per_elem"],
        "fault.inject_us_per_gemm": rep["inject_us_per_gemm"],
        "nn.attention_us": rep["attention_us"],
        "nn.layernorm_us": rep["layernorm_us"],
        "common.metrics.overhead_frac":
            wall / med([p["wall"] for p in by_kind["metrics_off"]]) - 1.0,
        "trace.overhead_frac":
            med([p["wall"] for p in by_kind["traced"]]) / wall - 1.0,
    }
    return m


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="draws each pass's cell declaration order "
                         "(0: the figure's order in every pass)")
    ap.add_argument("--seed0", type=int, default=GOLDEN_SEED0,
                    help="episode i runs at seed0 + i (default reproduces "
                         "bench/golden)")
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="pin perfbench/reference/<workload>.json from one "
                         "campaign (checked against bench/golden first)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seed0 < 0:
        ap.error("seeds must be non-negative")

    try:
        build()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    rundir = os.path.join(RUNS, "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        stamp = stamp_and_warm(args.workload, args.seed0,
                               os.path.join(rundir, "warm"))
        checker = Checker(args.workload, args.seed0)
        if args.write_reference:
            return write_reference(args, checker, rundir)
        kinds = ["plain", "metrics_off", "traced"] if args.trace else \
            ["plain"]
        by_kind, wall_ms, last_episodes = run_passes(
            args.workload, args.seed, args.seed0, args.seconds, kinds,
            checker, rundir)
        if args.trace:
            values = per_layer_metrics(args.workload, args.seed0, by_kind,
                                       wall_ms, last_episodes, checker,
                                       rundir, stamp)
        else:
            values = e2e_metrics(by_kind["plain"], wall_ms["plain"], checker,
                                 stamp)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        # Keep the result and the traces; stores and exports are bulky.
        for name in os.listdir(rundir):
            if os.path.isdir(os.path.join(rundir, name)):
                shutil.rmtree(os.path.join(rundir, name), ignore_errors=True)

    units = load_units()
    stamp["notes"] = checker.notes[:20]
    print(json.dumps({"environment": stamp}))
    result = {
        "correct": checker.errors == 0,
        "attempted": checker.attempted,
        "failed": checker.errors,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    with open(os.path.join(rundir, "result.json"), "w") as f:
        json.dump({"result": result, "environment": stamp}, f, indent=1)
    print(json.dumps(result))
    return 0 if checker.errors == 0 else 1


def write_reference(args, checker, rundir):
    p = campaign_pass(args.workload, 0, args.seed0,
                      os.path.join(rundir, "reference"))
    episodes = benchlib.load_episodes(p["export"])
    ref = benchlib.make_reference(episodes, args.workload, args.seed0,
                                  workload_reps(args.workload, episodes))
    if checker.golden:
        checked, errors, notes = benchlib.check_golden(
            episodes, checker.golden, ref)
        if errors:
            print("perfbench: campaign disagrees with bench/golden: %s"
                  % "; ".join(notes[:5]), file=sys.stderr)
            return 1
        log("%d golden episodes match" % checked)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    path = os.path.join(HERE, "reference", args.workload + ".json")
    with open(path, "w") as f:
        json.dump(ref, f, indent=0, sort_keys=True)
        f.write("\n")
    log("pinned %d ledgers to %s" % (len(ref["ledgers"]), path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
