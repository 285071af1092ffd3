/** @file Tests for the sweep-stats tail-analytics engine: the nearest-rank
 *  percentile against a naive sort-based reference, convergence
 *  checkpoints, (platform, task, protection) rollups over pooled episode
 *  samples, and the percentile-drift comparator behind the golden-store
 *  CI gate. All stores here are synthesized ledgers -- no models run. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/serialize.hpp"
#include "core/store_stats.hpp"
#include "core/sweep.hpp"

using namespace create;

namespace {

/** Naive reference: sort everything, take the nearest-rank sample. */
double
naivePercentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), samples.size());
    return samples[rank - 1];
}

/** Deterministic sample stream (no RNG seeds to keep in sync). */
std::vector<double>
syntheticSamples(int n)
{
    std::vector<double> v;
    v.reserve(static_cast<std::size_t>(n));
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        v.push_back(static_cast<double>(x >> 11) * 0x1.0p-40);
    }
    return v;
}

struct LedgerSpec
{
    std::string fingerprint;
    std::string platform;
    int episodes = 0;
    double energyBase = 100.0; //!< computeJ of episode i: base / (i + 1)
    int successEvery = 2;      //!< episode i succeeds when i % this == 0
    bool withMetrics = false;
};

/** Write a store of synthesized ledgers in the v2/v3 record layout. */
void
writeStatsStore(const std::string& path,
                const std::vector<LedgerSpec>& specs)
{
    std::vector<JsonRecord> records;
    JsonRecord schema;
    schema.name = kSweepStoreSchemaRecord;
    schema.numbers.emplace_back("schema", kSweepStoreSchema);
    records.push_back(schema);
    for (const LedgerSpec& spec : specs) {
        JsonRecord meta;
        meta.name = spec.fingerprint;
        meta.strings.emplace_back("platform", spec.platform);
        meta.strings.emplace_back("label", "");
        records.push_back(meta);
        for (int i = 0; i < spec.episodes; ++i) {
            EpisodeRecord e;
            e.result.success = i % spec.successEvery == 0;
            e.result.steps = 50 + 7 * i;
            e.computeJ = spec.energyBase / (i + 1);
            if (spec.withMetrics) {
                e.metrics.present = true;
                e.metrics.wallMs = 10.0 + i;
                e.metrics.gemms = 4;
                e.metrics.flipsInjected = static_cast<std::uint64_t>(i);
            }
            records.push_back(
                episodeToRecord(sweepEpisodeKey(spec.fingerprint, i), e));
        }
    }
    ASSERT_TRUE(writeJsonRecords(path, records));
}

StoreStatsResult
statsOf(const std::string& path)
{
    StoreStatsResult stats;
    std::string error;
    EXPECT_TRUE(computeStoreStats(path, stats, error)) << error;
    return stats;
}

} // namespace

TEST(Percentile, MatchesNaiveReference)
{
    for (const int n : {1, 2, 3, 5, 7, 19, 20, 21, 64, 100, 101}) {
        const std::vector<double> samples = syntheticSamples(n);
        for (const double pct : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
            SCOPED_TRACE(std::to_string(n) + " samples, p" +
                         std::to_string(pct));
            EXPECT_EQ(percentile(samples, pct),
                      naivePercentile(samples, pct));
        }
    }
}

TEST(Percentile, EdgeCases)
{
    EXPECT_EQ(percentile({}, 95.0), 0.0);
    EXPECT_EQ(percentile({42.0}, 50.0), 42.0);
    EXPECT_EQ(percentile({42.0}, 99.0), 42.0);
    // Every reported value is an actual sample -- p100 is the max.
    const std::vector<double> s = {3.0, 1.0, 2.0};
    EXPECT_EQ(percentile(s, 100.0), 3.0);
    EXPECT_EQ(percentile(s, 50.0), 2.0);
}

TEST(StoreStats, LedgerTailsAndConvergence)
{
    const std::string path = "/tmp/create_test_stats_a.json";
    writeStatsStore(
        path, {{"v2|jarvis-1|task=0|reps=25|seed0=1000|prot=1|inj",
                "jarvis-1", 25, 100.0, 2, /*withMetrics=*/true}});
    const StoreStatsResult stats = statsOf(path);

    ASSERT_EQ(stats.ledgers.size(), 1u);
    const LedgerTail& t = stats.ledgers[0];
    EXPECT_EQ(t.platform, "jarvis-1");
    EXPECT_EQ(t.taskId, 0);
    EXPECT_EQ(t.protection, 1);
    EXPECT_EQ(t.episodes, 25);

    // Percentiles equal the naive reference over the known sample sets.
    std::vector<double> energy, steps;
    for (int i = 0; i < 25; ++i) {
        energy.push_back(100.0 / (i + 1));
        steps.push_back(50.0 + 7 * i);
    }
    EXPECT_EQ(t.energyJ.p50, naivePercentile(energy, 50.0));
    EXPECT_EQ(t.energyJ.p95, naivePercentile(energy, 95.0));
    EXPECT_EQ(t.energyJ.p99, naivePercentile(energy, 99.0));
    EXPECT_EQ(t.steps.p95, naivePercentile(steps, 95.0));
    EXPECT_TRUE(t.hasWall);
    EXPECT_EQ(t.wallMs.p50, 10.0 + 12); // episode wall times are 10 + i

    // Convergence checkpoints: 1, 2, 5, 10, 20, then the full ledger,
    // each carrying the naive running success rate of that prefix.
    const std::vector<int> wantCps = {1, 2, 5, 10, 20, 25};
    ASSERT_EQ(t.convergence.size(), wantCps.size());
    for (std::size_t k = 0; k < wantCps.size(); ++k) {
        const int cp = wantCps[k];
        EXPECT_EQ(t.convergence[k].first, cp);
        int succ = 0;
        for (int i = 0; i < cp; ++i)
            succ += i % 2 == 0 ? 1 : 0;
        EXPECT_EQ(t.convergence[k].second,
                  static_cast<double>(succ) / cp);
    }

    // Summed fault attribution: flipsInjected of episode i is i.
    EXPECT_TRUE(t.hasMetrics);
    EXPECT_EQ(t.metrics.flipsInjected,
              static_cast<std::uint64_t>(25 * 24 / 2));
    std::remove(path.c_str());
}

TEST(StoreStats, GroupsPoolEpisodesAcrossLedgers)
{
    const std::string path = "/tmp/create_test_stats_groups.json";
    // Two ledgers of the same (platform, task, prot) -- different seeds --
    // plus one under a different protection mode.
    writeStatsStore(
        path,
        {{"v2|jarvis-1|task=0|reps=8|seed0=1000|prot=0|inj", "jarvis-1", 8,
          100.0, 2},
         {"v2|jarvis-1|task=0|reps=6|seed0=2000|prot=0|inj", "jarvis-1", 6,
          300.0, 3},
         {"v2|jarvis-1|task=0|reps=6|seed0=1000|prot=3|inj", "jarvis-1", 6,
          100.0, 2}});
    const StoreStatsResult stats = statsOf(path);

    ASSERT_EQ(stats.ledgers.size(), 3u);
    ASSERT_EQ(stats.groups.size(), 2u);
    const GroupTail& pooled = stats.groups[0]; // (jarvis-1, 0, prot=0)
    EXPECT_EQ(pooled.protection, 0);
    EXPECT_EQ(pooled.ledgers, 2);
    EXPECT_EQ(pooled.episodes, 14);

    // The rollup percentile runs over the pooled samples, not a mean of
    // the per-ledger percentiles.
    std::vector<double> energy;
    for (int i = 0; i < 8; ++i)
        energy.push_back(100.0 / (i + 1));
    for (int i = 0; i < 6; ++i)
        energy.push_back(300.0 / (i + 1));
    EXPECT_EQ(pooled.energyJ.p95, naivePercentile(energy, 95.0));

    // Pooled success rate: ceil(8/2)=4 of 8 plus ceil(6/3)=2 of 6.
    EXPECT_EQ(pooled.successRate, 6.0 / 14.0);

    EXPECT_EQ(stats.groups[1].protection, 3);
    EXPECT_EQ(stats.groups[1].ledgers, 1);
    std::remove(path.c_str());
}

TEST(StoreStatsCompare, CleanOnIdenticalStores)
{
    const std::string a = "/tmp/create_test_stats_cmp_a.json";
    const std::string b = "/tmp/create_test_stats_cmp_b.json";
    const std::vector<LedgerSpec> specs = {
        {"v2|jarvis-1|task=0|reps=8|seed0=1000|prot=0|inj", "jarvis-1", 8},
        {"v2|openvla+octo|task=2|reps=8|seed0=1000|prot=1|inj",
         "openvla+octo", 8},
    };
    writeStatsStore(a, specs);
    writeStatsStore(b, specs);
    const StatsCompareResult cmp =
        compareStoreStats(statsOf(a), statsOf(b), {});
    EXPECT_TRUE(cmp.clean());
    EXPECT_EQ(cmp.compared, 2);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(StoreStatsCompare, NamesTheDriftedPercentile)
{
    const std::string a = "/tmp/create_test_stats_cmp_a.json";
    const std::string b = "/tmp/create_test_stats_cmp_b.json";
    const std::string fp = "v2|jarvis-1|task=0|reps=8|seed0=1000|prot=0|x";
    writeStatsStore(a, {{fp, "jarvis-1", 8, 100.0}});
    writeStatsStore(b, {{fp, "jarvis-1", 8, 100.5}}); // all energies shift
    const StatsCompareResult cmp =
        compareStoreStats(statsOf(a), statsOf(b), {});
    ASSERT_FALSE(cmp.entries.empty());
    EXPECT_EQ(cmp.entries[0].fingerprint, fp);
    EXPECT_NE(cmp.entries[0].detail.find("energyJ.p"), std::string::npos);
    // Steps are identical: no drift entry may name them.
    for (const StatsDriftEntry& e : cmp.entries)
        EXPECT_EQ(e.detail.find("steps."), std::string::npos) << e.detail;

    // The same drift passes under a proportional tolerance (the
    // reserved-for-noisy-stats escape hatch, never the golden default).
    StoreDiffOptions tol;
    tol.relTol = 0.01;
    EXPECT_TRUE(compareStoreStats(statsOf(a), statsOf(b), tol).clean());
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(StoreStatsCompare, EpisodeCountMismatchShortCircuits)
{
    const std::string a = "/tmp/create_test_stats_cmp_a.json";
    const std::string b = "/tmp/create_test_stats_cmp_b.json";
    const std::string fp = "v2|jarvis-1|task=0|reps=8|seed0=1000|prot=0|x";
    writeStatsStore(a, {{fp, "jarvis-1", 8}});
    writeStatsStore(b, {{fp, "jarvis-1", 5}});
    const StatsCompareResult cmp =
        compareStoreStats(statsOf(a), statsOf(b), {});
    // One entry naming the fold length, not a cascade of percentile hits.
    ASSERT_EQ(cmp.entries.size(), 1u);
    EXPECT_NE(cmp.entries[0].detail.find("episodes"), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(StoreStatsCompare, UnmatchedLedgersFailTheGate)
{
    const std::string a = "/tmp/create_test_stats_cmp_a.json";
    const std::string b = "/tmp/create_test_stats_cmp_b.json";
    writeStatsStore(
        a, {{"v2|jarvis-1|task=0|reps=4|seed0=1|prot=0|x", "jarvis-1", 4},
            {"v2|jarvis-1|task=1|reps=4|seed0=1|prot=0|x", "jarvis-1", 4}});
    writeStatsStore(
        b, {{"v2|jarvis-1|task=1|reps=4|seed0=1|prot=0|x", "jarvis-1", 4},
            {"v2|jarvis-1|task=2|reps=4|seed0=1|prot=0|x", "jarvis-1", 4}});
    const StatsCompareResult cmp =
        compareStoreStats(statsOf(a), statsOf(b), {});
    EXPECT_EQ(cmp.compared, 1);
    EXPECT_EQ(cmp.onlyA, 1);
    EXPECT_EQ(cmp.onlyB, 1);
    EXPECT_TRUE(cmp.entries.empty());
    EXPECT_FALSE(cmp.clean()); // a missing cell must never pass a gate
    std::remove(a.c_str());
    std::remove(b.c_str());
}
