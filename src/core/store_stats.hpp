#pragma once

/**
 * @file
 * Tail analytics over SweepRunner result stores: the engine behind the
 * `sweep-stats` tool (mirroring the sweep-diff / store_diff split).
 *
 * The episode ledger already holds every episode's energy, steps, and --
 * since store schema v3 -- wall time and fault-attribution counters. The
 * figure drivers fold that into means because the paper's tables are
 * means; a production SLO runs on tails. This engine computes, per ledger
 * and per (platform, task, protection) rollup:
 *
 *  - p50/p95/p99 of episode compute energy and steps (and wall time when
 *    the store carries metrics),
 *  - success-vs-rep convergence curves (the running success rate after
 *    1, 2, 5, 10, ... episodes: how many reps a cell needs before its
 *    success estimate settles),
 *  - summed per-layer flip attribution (injected / detected / corrected /
 *    escaped, re-executions) keyed by component tag,
 *
 * plus a compare mode that reports percentile drift between two stores
 * (the sweep-stats leg of the golden-store CI gate). Wall time is never
 * compared -- it is the one honest-noise field in the record.
 *
 * Percentiles use the nearest-rank definition (ceil(p/100 * n)-th order
 * statistic): every reported value is an actual sample, so a pinned-reps
 * golden store reproduces them bit-exactly.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/store_diff.hpp"

namespace create {

/**
 * Nearest-rank percentile of `samples` (pct in (0, 100]). Takes a copy
 * (selection reorders). Returns 0.0 on an empty sample set.
 */
double percentile(std::vector<double> samples, double pct);

/** The tail triple every sweep-stats table reports. */
struct PercentileSummary
{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** Name -> member table (sweep-stats rendering, export, compare). */
inline constexpr std::pair<const char*, double PercentileSummary::*>
    kPercentileFields[] = {
        {"p50", &PercentileSummary::p50},
        {"p95", &PercentileSummary::p95},
        {"p99", &PercentileSummary::p99},
};

/** p50/p95/p99 of one sample set (nearest rank; zeros when empty). */
PercentileSummary summarize(const std::vector<double>& samples);

/** One ledger's tail analytics. */
struct LedgerTail
{
    std::string fingerprint;
    std::string platform; //!< meta record, or parsed from the fingerprint
    std::string label;
    int taskId = -1;     //!< parsed from the fingerprint (-1: unknown)
    int protection = -1; //!< parsed `|prot=N` (-1: unknown)
    int episodes = 0;
    TaskStats stats; //!< the same fold the engine/drivers use

    PercentileSummary energyJ;
    PercentileSummary steps;
    PercentileSummary wallMs; //!< zeros unless hasWall

    /**
     * Convergence curve: (reps, running success rate) at checkpoint
     * prefix lengths 1, 2, 5, 10, 20, 50, ... and the full ledger --
     * how the success estimate settles as reps accumulate.
     */
    std::vector<std::pair<int, double>> convergence;

    /** Summed fault attribution (valid when hasMetrics). */
    EpisodeMetrics metrics;
    bool hasMetrics = false;
    bool hasWall = false;
};

/** One (platform, task, protection) rollup over its member ledgers. */
struct GroupTail
{
    std::string platform;
    int taskId = -1;
    int protection = -1;
    int ledgers = 0;
    int episodes = 0;
    double successRate = 0.0;
    PercentileSummary energyJ; //!< over the pooled episode samples
    PercentileSummary steps;
};

/**
 * One worker's share of a coordinator campaign (from the per-episode
 * `by` attribution socket workers stamp).
 */
struct ShardLoad
{
    std::string owner; //!< worker identity ("host:pid.seq")
    int episodes = 0;  //!< attributed episodes over folded prefixes
    int ledgers = 0;   //!< ledgers this worker ran episodes of
    /**
     * Range-dispatch telemetry from the campaign coordinator's
     * `worker|<id>` record (socket campaigns only; hasRanges gates it).
     * The p95/p50 range wall-time ratio is the straggler signal: a
     * worker whose ratio is far above its peers' is being slowed by
     * something other than the workload.
     */
    bool hasRanges = false;
    long long rangesAssigned = 0;
    long long rangesCompleted = 0;
    long long rangesRedispatched = 0; //!< lost to timeout/disconnect
    double epsPerSec = 0.0;  //!< fresh episodes / connected wall seconds
    double rangeP50Ms = 0.0; //!< per-completed-range wall time tails
    double rangeP95Ms = 0.0;
};

/** Full analytics of one store. */
struct StoreStatsResult
{
    std::vector<LedgerTail> ledgers; //!< fingerprint order
    std::vector<GroupTail> groups;   //!< (platform, task, protection) order
    /** Per-worker attribution; empty unless the store carries `by`
     *  stamps or worker telemetry. Ordered by episodes descending. */
    std::vector<ShardLoad> shards;
};

/**
 * Analyze loaded store cells (see loadStoreCells). `workers` are the
 * store's coordinator telemetry records (loadStoreCells' optional out
 * param); they fold into the matching shards' range columns.
 */
StoreStatsResult
computeStoreStats(const std::vector<StoreCell>& cells,
                  const std::vector<JsonRecord>& workers = {});

/**
 * Load + analyze a store file. Returns false with `error` set when the
 * file is missing or unparsable.
 */
bool computeStoreStats(const std::string& path, StoreStatsResult& out,
                       std::string& error);

/** One percentile-drift finding of a store comparison. */
struct StatsDriftEntry
{
    std::string fingerprint;
    std::string detail; //!< e.g. "energyJ.p95 12.1 vs 14.9"
};

/** Result of comparing two stores' tail analytics. */
struct StatsCompareResult
{
    std::vector<StatsDriftEntry> entries;
    int compared = 0; //!< ledgers present in both stores
    int onlyA = 0;
    int onlyB = 0;

    bool clean() const
    {
        return entries.empty() && onlyA == 0 && onlyB == 0;
    }
};

/**
 * Compare per-ledger episode counts and energy/steps percentiles between
 * two stores under the sweep-diff tolerance rule (|a-b| <= absTol +
 * relTol * max). Wall time never enters the comparison.
 */
StatsCompareResult compareStoreStats(const StoreStatsResult& a,
                                     const StoreStatsResult& b,
                                     const StoreDiffOptions& opt = {});

} // namespace create
