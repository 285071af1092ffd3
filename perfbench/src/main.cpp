/**
 * @file
 * perfbench: the campaign benchmark's binary. run.py spawns one
 * process per role and reads the JSON line each prints last.
 *
 *   perfbench stamp
 *   perfbench warm
 *   perfbench campaign    --workload W --seed S --seed0 X --store DIR
 *                         --export FILE [--trace FILE]
 *   perfbench coordinator --store DIR --export FILE
 *   perfbench worker      --workload W --seed S --seed0 X --connect H:P
 *   perfbench replay      --workload W --seed0 X --store DIR --trace FILE
 *
 * `campaign` is one closed-loop, fixed-work campaign in one process: set
 * up (platform construction from the warm model cache, calibration),
 * then SweepRunner::run() into a binlog store. `coordinator` + two
 * `worker`s are the same campaign as a socket fleet; a worker prints
 * `ready` after set-up and starts its campaign when a line arrives on
 * stdin, so run.py can start the whole fleet at one instant. Times are
 * CLOCK_MONOTONIC seconds, comparable across the processes of one host.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "common/metrics.hpp"
#include "core/coordinator.hpp"
#include "core/platform_registry.hpp"
#include "core/store_stats.hpp"
#include "hw/kernel_dispatch.hpp"
#include "models/model_zoo.hpp"

using namespace create;
using namespace perfbench;

namespace {

std::uint64_t
argU64(int argc, char** argv, const std::string& flag, std::uint64_t dflt)
{
    const std::string v = argValue(argc, argv, flag);
    return v.empty() ? dflt : std::stoull(v);
}

/** Build the workload's cells on `sweep` and construct every platform. */
void
setUp(SweepRunner& sweep, const WorkloadSpec& w, std::uint64_t seed0,
      std::uint64_t seed, Tracer& tr)
{
    std::vector<std::string> platforms;
    for (SweepCell& c : workloadCells(w, seed0, seed)) {
        if (std::find(platforms.begin(), platforms.end(), c.platform) ==
            platforms.end())
            platforms.push_back(c.platform);
        sweep.add(std::move(c));
    }
    // Platform construction via SweepRunner::system: model load from the
    // warm cache plus calibration (the engine would do it lazily inside
    // run(); doing it here keeps it out of the campaign phase).
    for (const std::string& p : platforms) {
        const double t0 = monoNow();
        sweep.system(p);
        tr.add("setup.platform " + p, "setup", t0, monoNow());
    }
}

JsonLine
batchFields(JsonLine line, const BatchStats& b)
{
    return line.num("batch_requests", static_cast<double>(b.requests))
        .num("batch_groups", static_cast<double>(b.groups))
        .num("batch_window_expiries", static_cast<double>(b.windowExpiries));
}

int
runStamp()
{
    JsonLine()
        .str("role", "stamp")
        .str("simd", simd::report())
        .str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
        .num("ndebug", 1)
#else
        .num("ndebug", 0)
#endif
        .num("metrics_enabled", MetricsRegistry::enabled() ? 1 : 0)
        .str("assets_dir", ModelZoo::assetsDir())
        .print();
    return 0;
}

/** Train-or-load every registered platform's models (warm_models' loop). */
int
runWarm()
{
    CreateConfig warmCfg;
    warmCfg.weightRotation = true;
    warmCfg.voltageScaling = true;
    for (const auto& info : PlatformRegistry::instance().all())
        info.factory(/*verbose=*/false)->prepare(warmCfg);
    JsonLine().str("role", "warm").print();
    return 0;
}

int
runCampaign(int argc, char** argv)
{
    const WorkloadSpec w = workloadByName(argValue(argc, argv, "--workload"));
    const std::string store = argValue(argc, argv, "--store");
    const std::string exportPath = argValue(argc, argv, "--export");
    const std::string tracePath = argValue(argc, argv, "--trace");
    Tracer tr(!tracePath.empty());
    const double t0 = monoNow();

    SweepRunner::Options so;
    so.threads = w.threads;
    so.storePath = store;
    so.storeFormat = StoreFormat::Binlog;
    so.flushEvery = w.flushEvery;
    SweepRunner sweep(so);
    setUp(sweep, w, argU64(argc, argv, "--seed0", 1000),
          argU64(argc, argv, "--seed", 0), tr);

    const double ready = monoNow();
    const double cpu0 = cpuSeconds();
    sweep.run();
    const double end = monoNow();
    const double cpu1 = cpuSeconds();
    tr.add("campaign " + w.name, "campaign", ready, end);
    tr.add("setup", "setup", t0, ready);

    std::string err;
    if (!exportStore(store, exportPath, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 1;
    }
    if (tr.enabled() && !tr.write(tracePath, "campaign " + w.name)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     tracePath.c_str());
        return 1;
    }
    batchFields(JsonLine(), sweep.batchStats())
        .str("role", "campaign")
        .num("ready", ready)
        .num("end", end)
        .num("cpu_s", cpu1 - cpu0)
        .num("maxrss_kb", static_cast<double>(maxRssKb()))
        .num("episodes", static_cast<double>(sweep.episodesExecuted()))
        .print();
    return 0;
}

int
runCoordinator(int argc, char** argv)
{
    Coordinator::Options opt;
    opt.storePath = argValue(argc, argv, "--store");
    opt.storeFormat = StoreFormat::Binlog;
    opt.once = true;
    Coordinator coord(opt);
    std::string err;
    if (!coord.start(&err)) {
        std::fprintf(stderr, "perfbench coordinator: %s\n", err.c_str());
        return 1;
    }
    JsonLine().str("role", "listening").num("port", coord.port()).print();

    const double cpu0 = cpuSeconds();
    coord.runLoop();
    const double end = monoNow();
    const double cpu1 = cpuSeconds();

    // Range telemetry: the coordinator's `worker|` records, read back
    // through the same analytics sweep-stats uses.
    std::vector<StoreCell> cells;
    std::vector<JsonRecord> workers;
    if (!loadStoreCells(opt.storePath, cells, err, &workers)) {
        std::fprintf(stderr, "perfbench coordinator: %s\n", err.c_str());
        return 1;
    }
    const StoreStatsResult stats = computeStoreStats(cells, workers);
    double rangeP50 = 0.0, rangeP95 = 0.0, maxShare = 0.0;
    int total = 0, top = 0, ranged = 0;
    for (const ShardLoad& s : stats.shards) {
        total += s.episodes;
        top = std::max(top, s.episodes);
        if (s.hasRanges) {
            rangeP50 += s.rangeP50Ms;
            rangeP95 = std::max(rangeP95, s.rangeP95Ms);
            ++ranged;
        }
    }
    if (ranged > 0)
        rangeP50 /= ranged;
    if (total > 0)
        maxShare = static_cast<double>(top) / total;

    if (!exportStore(opt.storePath, argValue(argc, argv, "--export"), &err)) {
        std::fprintf(stderr, "perfbench coordinator: %s\n", err.c_str());
        return 1;
    }
    JsonLine()
        .str("role", "coordinator")
        .num("end", end)
        .num("cpu_s", cpu1 - cpu0)
        .num("maxrss_kb", static_cast<double>(maxRssKb()))
        .num("ranges", static_cast<double>(coord.rangesDispatched()))
        .num("redispatched", static_cast<double>(coord.rangesRedispatched()))
        .num("range_ms_p50", rangeP50)
        .num("range_ms_p95", rangeP95)
        .num("max_worker_share", maxShare)
        .print();
    return 0;
}

int
runWorker(int argc, char** argv)
{
    const WorkloadSpec w = workloadByName(argValue(argc, argv, "--workload"));
    SweepRunner::Options so;
    so.threads = w.threads;
    so.connect = argValue(argc, argv, "--connect");
    SweepRunner sweep(so);
    Tracer tr(false);
    setUp(sweep, w, argU64(argc, argv, "--seed0", 1000),
          argU64(argc, argv, "--seed", 0), tr);

    JsonLine().str("role", "ready").num("t", monoNow()).print();
    std::string go;
    if (!std::getline(std::cin, go))
        return 1; // run.py went away before the start signal

    const double cpu0 = cpuSeconds();
    sweep.run();
    const double end = monoNow();
    const double cpu1 = cpuSeconds();
    batchFields(JsonLine(), sweep.batchStats())
        .str("role", "worker")
        .num("end", end)
        .num("cpu_s", cpu1 - cpu0)
        .num("maxrss_kb", static_cast<double>(maxRssKb()))
        .num("episodes", static_cast<double>(sweep.episodesExecuted()))
        .print();
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench stamp|warm|campaign|"
                             "coordinator|worker|replay [flags]\n");
        return 2;
    }
    const std::string role = argv[1];
    try {
        if (role == "stamp")
            return runStamp();
        if (role == "warm")
            return runWarm();
        if (role == "campaign")
            return runCampaign(argc, argv);
        if (role == "coordinator")
            return runCoordinator(argc, argv);
        if (role == "worker")
            return runWorker(argc, argv);
        if (role == "replay")
            return runReplay(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench %s: %s\n", role.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench: unknown role '%s'\n", role.c_str());
    return 2;
}
