/** @file Tests for the SweepRunner campaign engine: threaded-vs-serial
 *  bit-identity across cells, cross-cell memoization, episode-ledger
 *  round trips through the JSON and binlog result stores (prefix
 *  slicing, mid-cell kill/resume, future-schema refusal), fingerprint
 *  canonicalization, the sweep drivers' refusal of the removed
 *  multi-process flags, and two episode-loop regressions (vsInterval
 *  <= 0, executed-step billing). Socket-worker campaigns are covered by
 *  test_coordinator.cpp. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/metrics.hpp"
#include "common/serialize.hpp"
#include "core/create_system.hpp"
#include "core/plan_system.hpp"
#include "core/store_diff.hpp"
#include "core/sweep.hpp"
#include "env/manipworld.hpp"
#include "test_util.hpp"
#include "../bench/bench_util.hpp"

using namespace create;
using testutil::expectIdentical;

namespace {

/** A small mixed-platform campaign exercising injection, WR, and VS. */
std::vector<SweepCell>
campaignCells(int reps)
{
    CreateConfig mineInj = CreateConfig::uniform(5e-4);
    mineInj.anomalyDetection = true;
    CreateConfig manipAdwr = CreateConfig::atVoltage(0.72, 0.90);
    manipAdwr.anomalyDetection = true;
    manipAdwr.weightRotation = true;
    return {
        {"jarvis-1", static_cast<int>(MineTask::Wooden), mineInj, reps},
        {"jarvis-1", static_cast<int>(MineTask::Stone),
         CreateConfig::clean(), reps},
        {"openvla+octo", static_cast<int>(ManipTask::Wine), manipAdwr,
         reps},
    };
}

} // namespace

TEST(Sweep, ShardedVsSerialBitIdentical)
{
    // Inputs: the mixed-platform matrix (two waves), and one jarvis-1
    // wave whose 12-deep ledger sits beside shallow ones, so the deep
    // ledger's episodes spread over every thread. Every episode must run
    // exactly once either way.
    std::vector<SweepCell> oneWave = campaignCells(2);
    oneWave.pop_back(); // the manipulation cell would open a second wave
    oneWave[0].reps = 12;
    SweepCell shallow = oneWave[0];
    shallow.taskId = static_cast<int>(MineTask::Stone);
    shallow.reps = 3;
    oneWave.push_back(shallow);
    const std::pair<const char*, std::vector<SweepCell>> inputs[] = {
        {"two waves", campaignCells(5)},
        {"one wave with a deep ledger", oneWave},
    };

    // Ground truth: the systems' own (serial) evaluation engine.
    MineSystem mine(false);
    ManipSystem manip("openvla", "octo", false);
    for (const auto& [name, cells] : inputs) {
        SCOPED_TRACE(name);
        SweepRunner serial(SweepRunner::Options{});
        SweepRunner sharded([] {
            SweepRunner::Options o;
            o.threads = 4;
            return o;
        }());
        long long depth = 0;
        for (const auto& c : cells) {
            serial.add(c);
            sharded.add(c);
            depth += c.reps;
        }
        serial.run();
        sharded.run();

        for (std::size_t h = 0; h < cells.size(); ++h) {
            const SweepCell& c = cells[h];
            EmbodiedSystem& ref =
                c.platform == "jarvis-1" ? static_cast<EmbodiedSystem&>(mine)
                                         : manip;
            const TaskStats direct = ref.evaluate(c.taskId, c.cfg, c.reps);
            expectIdentical(direct, serial.stats(h));
            expectIdentical(direct, sharded.stats(h));
        }
        const int n = static_cast<int>(cells.size());
        EXPECT_EQ(serial.executedCells(), n);
        EXPECT_EQ(sharded.executedCells(), n);
        EXPECT_EQ(serial.episodesExecuted(), depth);
        EXPECT_EQ(sharded.episodesExecuted(), depth);
    }
}

TEST(Sweep, MemoizesDuplicateCells)
{
    const auto cells = campaignCells(3);
    SweepRunner sweep;
    const std::size_t a = sweep.add(cells[1]); // clean baseline ...
    const std::size_t b = sweep.add(cells[0]);
    const std::size_t c = sweep.add(cells[1]); // ... declared twice
    sweep.run();

    EXPECT_EQ(sweep.executedCells(), 2);
    EXPECT_EQ(sweep.memoizedCells(), 1);
    EXPECT_EQ(sweep.source(a), CellSource::Executed);
    EXPECT_EQ(sweep.source(b), CellSource::Executed);
    EXPECT_EQ(sweep.source(c), CellSource::Memoized);
    expectIdentical(sweep.stats(a), sweep.stats(c));
    EXPECT_EQ(&sweep.stats(a), &sweep.stats(c)); // one execution, shared
}

TEST(Sweep, ResumeRoundTripThroughStore)
{
    const std::string path = "/tmp/create_test_sweep_store.json";
    std::remove(path.c_str());
    const auto cells = campaignCells(3);

    // Partial campaign: only the first two cells reach the store.
    SweepRunner::Options withStore;
    withStore.storePath = path;
    {
        SweepRunner partial(withStore);
        partial.add(cells[0]);
        partial.add(cells[1]);
        partial.run();
    }

    // Full campaign with --resume: the stored cells load, only the new
    // cell executes, and every stat is bit-identical to a fresh run.
    SweepRunner::Options resume = withStore;
    resume.resume = true;
    SweepRunner resumed(resume);
    SweepRunner fresh;
    for (const auto& c : cells) {
        resumed.add(c);
        fresh.add(c);
    }
    resumed.run();
    fresh.run();

    EXPECT_EQ(resumed.resumedCells(), 2);
    EXPECT_EQ(resumed.executedCells(), 1);
    for (std::size_t h = 0; h < cells.size(); ++h) {
        SCOPED_TRACE(h);
        expectIdentical(fresh.stats(h), resumed.stats(h));
        EXPECT_EQ(resumed.source(h), h < 2 ? CellSource::Resumed
                                           : CellSource::Executed);
    }

    // A second resume over the (now complete) store executes nothing.
    SweepRunner again(resume);
    for (const auto& c : cells)
        again.add(c);
    again.run();
    EXPECT_EQ(again.executedCells(), 0);
    EXPECT_EQ(again.resumedCells(), 3);

    // Resumed cells re-derive their per-episode results on demand,
    // bit-identical to the executed ones.
    const auto& fromStore = again.episodes(0);
    const auto& executed = fresh.episodes(0);
    ASSERT_EQ(fromStore.size(), executed.size());
    for (std::size_t i = 0; i < executed.size(); ++i)
        expectIdentical(executed[i], fromStore[i]);

    std::remove(path.c_str());
}

TEST(Sweep, SharedStoreIsNotClobberedAcrossCampaigns)
{
    // Two campaigns writing to one store (the second without --resume)
    // must both leave their records behind: a flush merges, not replaces.
    const std::string path = "/tmp/create_test_sweep_shared.json";
    std::remove(path.c_str());
    const auto cells = campaignCells(2);
    SweepRunner::Options withStore;
    withStore.storePath = path;
    {
        SweepRunner a(withStore);
        a.add(cells[0]);
        a.run();
    }
    {
        SweepRunner b(withStore); // no resume: must still preserve A's cell
        b.add(cells[1]);
        b.run();
    }
    SweepRunner::Options resume = withStore;
    resume.resume = true;
    SweepRunner c(resume);
    c.add(cells[0]);
    c.add(cells[1]);
    c.run();
    EXPECT_EQ(c.executedCells(), 0);
    EXPECT_EQ(c.resumedCells(), 2);
    std::remove(path.c_str());
}

TEST(Sweep, PhasedCampaignExecutesOnlyNewCells)
{
    // fig16 pattern: a first phase's results decide what the second
    // phase declares; the second run() must not re-execute phase 1.
    const auto cells = campaignCells(3);
    SweepRunner sweep;
    const std::size_t a = sweep.add(cells[0]);
    sweep.run();
    EXPECT_EQ(sweep.executedCells(), 1);
    const TaskStats phase1 = sweep.stats(a);

    const std::size_t b = sweep.add(cells[1]);
    const std::size_t dup = sweep.add(cells[0]); // memoizes across phases
    sweep.run();
    EXPECT_EQ(sweep.executedCells(), 2);
    EXPECT_EQ(sweep.memoizedCells(), 1);
    expectIdentical(phase1, sweep.stats(a)); // phase 1 result untouched
    expectIdentical(phase1, sweep.stats(dup));
    MineSystem mine(false);
    expectIdentical(mine.evaluate(cells[1].taskId, cells[1].cfg, 3),
                    sweep.stats(b));
}

TEST(Sweep, EpisodesMatchAggregateOrdering)
{
    SweepRunner sweep;
    const auto cells = campaignCells(4);
    const std::size_t h = sweep.add(cells[0]);
    sweep.run();
    const auto& eps = sweep.episodes(h);
    ASSERT_EQ(eps.size(), 4u);
    MineSystem mine(false);
    expectIdentical(sweep.stats(h),
                    aggregate(mine.runEpisodes(cells[0].taskId, cells[0].cfg,
                                               4, cells[0].seed0),
                              mine.energyModel()));
}

TEST(Sweep, FingerprintCanonicalization)
{
    SweepCell a{"jarvis-1", 0, CreateConfig::clean(), 6};

    // The VS policy (and its display name) cannot affect execution while
    // voltageScaling is off.
    SweepCell b = a;
    b.cfg.policy = EntropyVoltagePolicy::preset('C');
    b.cfg.vsInterval = 17;
    EXPECT_EQ(sweepFingerprint(a), sweepFingerprint(b));

    // BER fields cannot matter without injection.
    SweepCell c = a;
    c.cfg.uniformBer = 0.5;
    c.cfg.injectPlanner = false;
    EXPECT_EQ(sweepFingerprint(a), sweepFingerprint(c));

    // With VS on, equal-valued policies match across display names ...
    SweepCell d = a, e = a;
    d.cfg.voltageScaling = true;
    e.cfg.voltageScaling = true;
    d.cfg.policy = EntropyVoltagePolicy::preset('C');
    e.cfg.policy = EntropyVoltagePolicy(d.cfg.policy.thresholds(),
                                        d.cfg.policy.voltages(), "renamed");
    EXPECT_EQ(sweepFingerprint(d), sweepFingerprint(e));
    // ... and differing voltages do not.
    e.cfg.policy = EntropyVoltagePolicy::preset('D');
    EXPECT_NE(sweepFingerprint(d), sweepFingerprint(e));
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(d));

    // reps is canonicalized away: episodes run at seed0 + i, so reps is
    // a prefix length of the shared ledger, not part of its identity.
    SweepCell f = a;
    f.reps = 7;
    EXPECT_EQ(sweepFingerprint(a), sweepFingerprint(f));
    SweepCell g = a;
    g.seed0 = 4242;
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(g));
    SweepCell h = a;
    h.cfg = CreateConfig::uniform(1e-3);
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(h));
    SweepCell i = a;
    i.platform = "openvla+octo";
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(i));
}

TEST(Sweep, RejectsUnknownPlatformAndBadReps)
{
    SweepRunner sweep;
    EXPECT_THROW(sweep.add({"no-such-platform", 0, CreateConfig::clean(), 1}),
                 std::invalid_argument);
    EXPECT_THROW(sweep.add({"jarvis-1", 0, CreateConfig::clean(), 0}),
                 std::invalid_argument);
}

TEST(Sweep, DriversRefuseRemovedMultiProcessFlags)
{
    // Cli keeps unknown flags, so without an explicit refusal a leftover
    // `--shard 0/2` or `--lease 30` in a launch script would make every
    // process of the would-be fleet run the whole campaign.
    // Re-exec the binary for the child: earlier tests' thread pools must
    // not be forked.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (std::string flag : {"--shard", "--lease"}) {
        SCOPED_TRACE(flag);
        char prog[] = "bench_fig13_techniques";
        char value[] = "0/2";
        char* argv[] = {prog, flag.data(), value, nullptr};
        const Cli cli(3, argv);
        EXPECT_EXIT(bench::setupSweep(cli, "flag test", 1),
                    ::testing::ExitedWithCode(2),
                    "create-coordinator and --connect");
    }
}

TEST(Sweep, ConnectSpecIsCheckedAtConstruction)
{
    // A socket worker's --connect spec is parsed, and its exclusivity
    // with the store options checked, when the runner is built -- before
    // any episode runs or any socket opens.
    for (const char* bad : {"localhost", ":80", "h:", "h:0", "h:65536",
                            "h:80x"}) {
        SCOPED_TRACE(bad);
        SweepRunner::Options o;
        o.connect = bad;
        EXPECT_THROW(SweepRunner{o}, std::invalid_argument);
    }
    SweepRunner::Options withStore;
    withStore.connect = "127.0.0.1:9";
    withStore.storePath = "/tmp/create_test_sweep_connect.json";
    EXPECT_THROW(SweepRunner{withStore}, std::invalid_argument);
    SweepRunner::Options withResume;
    withResume.connect = "127.0.0.1:9";
    withResume.resume = true;
    EXPECT_THROW(SweepRunner{withResume}, std::invalid_argument);
    // Well-formed and alone, it constructs; nothing connects until run()
    // (port 9 has no listener).
    SweepRunner::Options ok;
    ok.connect = "127.0.0.1:9";
    EXPECT_NO_THROW(SweepRunner{ok});
}

TEST(Sweep, SlicedCellsShareOneExecution)
{
    // reps is a prefix length: declaring the same deployment point at
    // several depths executes only the deepest and slices the rest.
    const auto cells = campaignCells(5);
    SweepRunner sweep;
    SweepCell shallow = cells[0];
    shallow.reps = 2;
    const std::size_t small = sweep.add(shallow);
    const std::size_t deep = sweep.add(cells[0]); // reps = 5
    sweep.run();

    EXPECT_EQ(sweep.executedCells(), 1);
    EXPECT_EQ(sweep.slicedCells(), 1);
    EXPECT_EQ(sweep.episodesExecuted(), 5);
    EXPECT_EQ(sweep.source(deep), CellSource::Executed);
    EXPECT_EQ(sweep.source(small), CellSource::Sliced);

    MineSystem mine(false);
    expectIdentical(mine.evaluate(shallow.taskId, shallow.cfg, 2),
                    sweep.stats(small));
    expectIdentical(mine.evaluate(cells[0].taskId, cells[0].cfg, 5),
                    sweep.stats(deep));
    // The slice's episodes are literally the ledger prefix.
    const auto& eps = sweep.episodes(small);
    ASSERT_EQ(eps.size(), 2u);
    for (std::size_t i = 0; i < eps.size(); ++i)
        expectIdentical(sweep.episodes(deep)[i], eps[i]);
}

TEST(Sweep, PrefixSliceServesSmallerRepsFromStore)
{
    // A stored reps=12 ledger must satisfy reps in {3, 6, 12} with zero
    // episodes executed, bit-identically to direct evaluate() -- the
    // convergence-study (Table 5) de-duplication.
    const std::string path = "/tmp/create_test_sweep_prefix.json";
    std::remove(path.c_str());
    SweepCell cell = campaignCells(12)[0];

    SweepRunner::Options withStore;
    withStore.storePath = path;
    {
        SweepRunner seed(withStore);
        seed.add(cell);
        seed.run();
        EXPECT_EQ(seed.episodesExecuted(), 12);
    }

    SweepRunner::Options resume = withStore;
    resume.resume = true;
    SweepRunner sliced(resume);
    std::vector<std::size_t> handles;
    for (int reps : {3, 6, 12}) {
        SweepCell c = cell;
        c.reps = reps;
        handles.push_back(sliced.add(c));
    }
    sliced.run();
    EXPECT_EQ(sliced.executedCells(), 0);
    EXPECT_EQ(sliced.episodesExecuted(), 0);
    EXPECT_EQ(sliced.resumedCells(), 3);

    MineSystem mine(false);
    const int repsOf[] = {3, 6, 12};
    for (std::size_t i = 0; i < handles.size(); ++i) {
        SCOPED_TRACE(repsOf[i]);
        EXPECT_EQ(sliced.source(handles[i]), CellSource::Resumed);
        expectIdentical(mine.evaluate(cell.taskId, cell.cfg, repsOf[i]),
                        sliced.stats(handles[i]));
    }

    // The reverse direction: a shallow store partially seeds a deeper
    // request, executing only the missing suffix.
    SweepRunner deeper(resume);
    SweepCell deepCell = cell;
    deepCell.reps = 15;
    const std::size_t h = deeper.add(deepCell);
    deeper.run();
    EXPECT_EQ(deeper.episodesExecuted(), 3); // episodes 12..14 only
    EXPECT_EQ(deeper.source(h), CellSource::Executed);
    expectIdentical(mine.evaluate(cell.taskId, cell.cfg, 15),
                    deeper.stats(h));
    std::remove(path.c_str());
}

TEST(Sweep, MidCellKillResumeExecutesOnlyMissingEpisodes)
{
    // Simulate a campaign killed mid-cell: truncate the stored ledger
    // (drop a suffix AND punch a hole, as an interrupted batched flush
    // can leave either) and resume. Only the missing episodes run, and
    // the final stats are bit-identical to an uninterrupted campaign.
    const std::string path = "/tmp/create_test_sweep_kill.json";
    std::remove(path.c_str());
    SweepCell cell = campaignCells(10)[0];
    const std::string fp = sweepFingerprint(cell);

    SweepRunner::Options withStore;
    withStore.storePath = path;
    {
        SweepRunner full(withStore);
        full.add(cell);
        full.run();
    }

    std::vector<JsonRecord> records;
    ASSERT_TRUE(readJsonRecords(path, records));
    const auto gone = [&](const std::string& name) {
        return name == sweepEpisodeKey(fp, 4) ||      // the hole
               name == sweepEpisodeKey(fp, 7) ||      // the lost suffix
               name == sweepEpisodeKey(fp, 8) ||
               name == sweepEpisodeKey(fp, 9);
    };
    records.erase(std::remove_if(records.begin(), records.end(),
                                 [&](const JsonRecord& r) {
                                     return gone(r.name);
                                 }),
                  records.end());
    ASSERT_TRUE(writeJsonRecords(path, records));

    SweepRunner::Options resume = withStore;
    resume.resume = true;
    SweepRunner resumed(resume);
    const std::size_t h = resumed.add(cell);
    resumed.run();
    EXPECT_EQ(resumed.episodesExecuted(), 4); // 4, 7, 8, 9
    EXPECT_EQ(resumed.source(h), CellSource::Executed);

    SweepRunner fresh;
    const std::size_t hf = fresh.add(cell);
    fresh.run();
    expectIdentical(fresh.stats(hf), resumed.stats(h));
    const auto& a = fresh.episodes(hf);
    const auto& b = resumed.episodes(h);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i]);
    std::remove(path.c_str());
}

TEST(Sweep, NewerSchemaStoreIsLeftUntouched)
{
    // A store written by a future schema must not be resumed from OR
    // rewritten (our records under its schema header would corrupt it
    // for the build that owns it): the campaign runs storeless.
    const std::string path = "/tmp/create_test_sweep_future.json";
    JsonRecord schema;
    schema.name = kSweepStoreSchemaRecord;
    schema.numbers.emplace_back("schema", kSweepStoreSchema + 1);
    ASSERT_TRUE(writeJsonRecords(path, {schema}));

    SweepRunner::Options o;
    o.storePath = path;
    o.resume = true;
    SweepRunner sweep(o);
    const std::size_t h = sweep.add(campaignCells(2)[0]);
    sweep.run();
    EXPECT_EQ(sweep.source(h), CellSource::Executed);
    EXPECT_EQ(sweep.episodesExecuted(), 2);

    std::vector<JsonRecord> records;
    ASSERT_TRUE(readJsonRecords(path, records));
    ASSERT_EQ(records.size(), 1u); // exactly the foreign schema record
    EXPECT_EQ(records[0].name, kSweepStoreSchemaRecord);
    EXPECT_EQ(records[0].number("schema"), kSweepStoreSchema + 1);
    std::remove(path.c_str());
}

// --- observability: schema v3 metrics through the campaign pipeline -----

namespace {

/** Restores the global metrics switch no matter how the test exits. */
struct MetricsSwitchGuard
{
    bool saved = MetricsRegistry::enabled();
    ~MetricsSwitchGuard() { MetricsRegistry::setEnabled(saved); }
};

} // namespace

TEST(Observability, MetricsOnOffTaskStatsBitIdentical)
{
    // The registry observes, never branches: disabling collection must
    // not move a single bit of any campaign result.
    MetricsSwitchGuard guard;
    const auto cells = campaignCells(3);

    MetricsRegistry::setEnabled(false);
    SweepRunner off;
    for (const auto& c : cells)
        off.add(c);
    off.run();

    MetricsRegistry::setEnabled(true);
    SweepRunner on;
    for (const auto& c : cells)
        on.add(c);
    on.run();

    for (std::size_t h = 0; h < cells.size(); ++h) {
        SCOPED_TRACE(h);
        expectIdentical(off.stats(h), on.stats(h));
        const auto& offEps = off.episodes(h);
        const auto& onEps = on.episodes(h);
        ASSERT_EQ(offEps.size(), onEps.size());
        for (std::size_t i = 0; i < offEps.size(); ++i)
            expectIdentical(offEps[i], onEps[i]);
    }
}

TEST(Observability, CampaignStoreCarriesFaultAttribution)
{
    // An injected campaign's store must carry per-episode attribution
    // that agrees with the result pipeline's own meters.
    MetricsSwitchGuard guard;
    MetricsRegistry::setEnabled(true);
    const std::string path = "/tmp/create_test_sweep_metrics.json";
    std::remove(path.c_str());

    SweepRunner::Options o;
    o.storePath = path;
    SweepRunner sweep(o);
    sweep.add(campaignCells(3)[0]); // mine + injection + AD, no protection
    sweep.run();

    std::vector<StoreCell> loaded;
    std::string error;
    ASSERT_TRUE(loadStoreCells(path, loaded, error)) << error;
    ASSERT_EQ(loaded.size(), 1u);
    const StoreCell& cell = loaded[0];
    ASSERT_TRUE(cell.hasMetrics);
    EXPECT_GT(cell.metrics.gemms, 0u);
    EXPECT_GT(cell.metrics.flipsInjected, 0u)
        << "stressor too mild to exercise attribution";
    ASSERT_FALSE(cell.metrics.layers.empty());

    // The per-layer table partitions the episode totals exactly.
    LayerFaultCounters sum;
    for (const auto& [tag, c] : cell.metrics.layers)
        sum += c;
    EXPECT_EQ(sum.injected, cell.metrics.flipsInjected);
    EXPECT_EQ(sum.detected, cell.metrics.flipsDetected);
    EXPECT_EQ(sum.corrected, cell.metrics.flipsCorrected);
    EXPECT_EQ(sum.escaped, cell.metrics.flipsEscaped);

    for (const EpisodeRecord& rec : cell.records) {
        ASSERT_TRUE(rec.metrics.present);
        // Same sources the EnergyMeter already folds into the results:
        // injected == the episode's bitFlips; with AD as the only active
        // mechanism, detected == the episode's cleared-anomaly count.
        EXPECT_EQ(rec.metrics.flipsInjected, rec.result.bitFlips);
        EXPECT_EQ(rec.metrics.flipsDetected, rec.result.anomaliesCleared);
        EXPECT_EQ(rec.metrics.reExecutions, 0u); // no re-executing scheme
    }
    std::remove(path.c_str());
}

TEST(Observability, V2StoreUpgradesToV3OnResume)
{
    MetricsSwitchGuard guard;
    const std::string path = "/tmp/create_test_sweep_v2migrate.json";
    std::remove(path.c_str());
    const auto cells = campaignCells(3);

    // A metrics-off campaign writes episode records carrying none of the
    // v3 keys -- record-wise exactly what a v2-era build wrote.
    MetricsRegistry::setEnabled(false);
    SweepRunner::Options withStore;
    withStore.storePath = path;
    {
        SweepRunner writer(withStore);
        for (const auto& c : cells)
            writer.add(c);
        writer.run();
    }
    MetricsRegistry::setEnabled(true);

    // Downgrade the schema stamp to finish the v2 impersonation.
    std::vector<JsonRecord> records;
    ASSERT_TRUE(readJsonRecords(path, records));
    bool stamped = false;
    for (JsonRecord& rec : records)
        if (rec.name == kSweepStoreSchemaRecord) {
            rec.numbers.clear();
            rec.numbers.emplace_back("schema", 2.0);
            stamped = true;
        }
    ASSERT_TRUE(stamped);
    ASSERT_TRUE(writeJsonRecords(path, records));

    // Resume: every cell loads losslessly, nothing re-executes, and the
    // stats match a fresh metrics-on run bit-for-bit.
    SweepRunner::Options resume = withStore;
    resume.resume = true;
    SweepRunner resumed(resume);
    SweepRunner fresh;
    for (const auto& c : cells) {
        resumed.add(c);
        fresh.add(c);
    }
    resumed.run();
    fresh.run();
    EXPECT_EQ(resumed.resumedCells(), 3);
    EXPECT_EQ(resumed.executedCells(), 0);
    for (std::size_t h = 0; h < cells.size(); ++h) {
        SCOPED_TRACE(h);
        expectIdentical(fresh.stats(h), resumed.stats(h));
    }

    // The flush restamped the store at the current schema, and the old
    // ledgers read back metrics-free rather than inventing counters.
    records.clear();
    ASSERT_TRUE(readJsonRecords(path, records));
    double schema = 0.0;
    for (const JsonRecord& rec : records)
        if (rec.name == kSweepStoreSchemaRecord)
            schema = rec.number("schema");
    EXPECT_EQ(schema, kSweepStoreSchema);

    std::vector<StoreCell> loaded;
    std::string error;
    ASSERT_TRUE(loadStoreCells(path, loaded, error)) << error;
    ASSERT_EQ(loaded.size(), 3u);
    for (const StoreCell& cell : loaded) {
        EXPECT_FALSE(cell.hasMetrics);
        for (const EpisodeRecord& rec : cell.records)
            EXPECT_FALSE(rec.metrics.present);
    }
    std::remove(path.c_str());
}

// --- episode-loop regressions this PR fixed ------------------------------

TEST(EpisodeLoop, VsIntervalNonPositiveDisablesPredictor)
{
    // vsInterval <= 0 used to hit `steps % 0` (UB) on the decoded-plan
    // platforms; it now disables the predictor/LDO updates, matching the
    // Mine path's VoltageScaler guard.
    ManipSystem sys("openvla", "octo", false);
    for (const int interval : {0, -3}) {
        CreateConfig cfg = CreateConfig::fullCreate(
            0.72, EntropyVoltagePolicy::preset('E'), interval);
        sys.prepare(cfg);
        const auto r = sys.runEpisode(ManipTask::Wine, 77, cfg);
        EXPECT_EQ(r.predictorInvocations, 0) << "interval " << interval;
    }
    // Sanity: a positive interval does run the predictor.
    CreateConfig on = CreateConfig::fullCreate(
        0.72, EntropyVoltagePolicy::preset('E'), 5);
    sys.prepare(on);
    EXPECT_GT(sys.runEpisode(ManipTask::Wine, 77, on).predictorInvocations,
              0);
}

TEST(EpisodeLoop, FailedEpisodesBillExecutedSteps)
{
    // A corrupted planner can decode a plan that exhausts long before the
    // step cap; such failures used to bill the full kStepCap controller
    // steps into the energy model. They now bill what actually ran.
    ManipSystem sys("openvla", "octo", false);
    CreateConfig cfg = CreateConfig::uniform(1e-2);
    cfg.injectController = false;
    sys.prepare(cfg);
    int failures = 0, earlyExhaust = 0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        const auto r = sys.runEpisode(ManipTask::Wine, seed, cfg);
        EXPECT_LE(r.steps, ManipWorld::kStepCap);
        if (!r.success) {
            ++failures;
            if (r.steps < ManipWorld::kStepCap)
                ++earlyExhaust;
        }
    }
    ASSERT_GT(failures, 0) << "stressor too mild to exercise the fix";
    EXPECT_GT(earlyExhaust, 0)
        << "no failed episode exhausted its plan early; every failure "
           "billed the cap, which is what the old accounting always did";
}

TEST(Lease, KeyRoundTrip)
{
    // Nothing writes lease records any more, but stores written by the
    // builds that ran lease workers still carry them: the key grammar
    // (and the binlog Lease frame built on it) must keep parsing.
    const std::string key = sweepLeaseKey("v2|abc|def");
    std::string fp;
    ASSERT_TRUE(sweepLeaseFingerprint(key, &fp));
    EXPECT_EQ(fp, "v2|abc|def");
    EXPECT_FALSE(sweepLeaseFingerprint("v2|abc|def", nullptr));
    EXPECT_FALSE(sweepLeaseFingerprint("lease|", nullptr));
    EXPECT_FALSE(sweepLeaseFingerprint(sweepEpisodeKey("v2|x", 3), nullptr));
}

namespace {

/** Remove a store of either format (json file or binlog dir). */
void
removeStoreAnyFormat(const std::string& path)
{
    const std::string rm = "rm -rf '" + path + "'";
    ASSERT_EQ(std::system(rm.c_str()), 0);
}

} // namespace

TEST(Sweep, BinlogCampaignBitIdenticalToJson)
{
    // The cross-format contract: the same campaign run against a binlog
    // store folds to TaskStats bit-identical to the json run, and
    // sweep-diff's loader (format-autodetecting) certifies the stores
    // against each other with zero differences at zero tolerance.
    const std::string jsonPath = "/tmp/create_test_binlog_vs_json.json";
    const std::string blogPath = "/tmp/create_test_binlog_vs_json.blog";
    removeStoreAnyFormat(jsonPath);
    removeStoreAnyFormat(blogPath);
    const auto cells = campaignCells(3);

    SweepRunner::Options jo;
    jo.storePath = jsonPath;
    SweepRunner jr(jo);
    SweepRunner::Options bo;
    bo.storePath = blogPath;
    bo.storeFormat = StoreFormat::Binlog;
    SweepRunner br(bo);
    std::vector<std::size_t> jh, bh;
    for (const auto& c : cells) {
        jh.push_back(jr.add(c));
        bh.push_back(br.add(c));
    }
    jr.run();
    br.run();
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectIdentical(jr.stats(jh[i]), br.stats(bh[i]));

    std::vector<StoreCell> a, b;
    std::string error;
    ASSERT_TRUE(loadStoreCells(jsonPath, a, error)) << error;
    ASSERT_TRUE(loadStoreCells(blogPath, b, error)) << error;
    const StoreDiffResult res = diffStoreCells(a, b, StoreDiffOptions{});
    EXPECT_TRUE(res.clean());
    EXPECT_EQ(res.compared, static_cast<int>(cells.size()));
    removeStoreAnyFormat(jsonPath);
    removeStoreAnyFormat(blogPath);
}

TEST(Sweep, ConvertedBinlogStoreResumesWithoutExecuting)
{
    // json campaign -> convert to binlog (the sweep-store migration
    // path) -> --resume from the binlog store, with NO format flag:
    // autodetection must route to the binlog backend and the ledger must
    // satisfy every cell without executing a single episode.
    const std::string jsonPath = "/tmp/create_test_convert_resume.json";
    const std::string blogPath = "/tmp/create_test_convert_resume.blog";
    removeStoreAnyFormat(jsonPath);
    removeStoreAnyFormat(blogPath);
    const auto cells = campaignCells(3);
    std::vector<TaskStats> want;
    {
        SweepRunner::Options o;
        o.storePath = jsonPath;
        SweepRunner r(o);
        std::vector<std::size_t> hs;
        for (const auto& c : cells)
            hs.push_back(r.add(c));
        r.run();
        for (const std::size_t h : hs)
            want.push_back(r.stats(h));
    }
    {
        // Convert via the backends, exactly like `sweep-store convert`.
        std::vector<JsonRecord> records;
        StoreLoadInfo info;
        const auto src = openStoreBackend(jsonPath, StoreFormat::Json, "t");
        ASSERT_TRUE(src->load(records, &info, false));
        std::map<std::string, JsonRecord> view;
        for (JsonRecord& r : records)
            view[r.name] = std::move(r);
        std::vector<JsonRecord> batch;
        for (const auto& [name, rec] : view)
            batch.push_back(rec);
        const auto dst =
            openStoreBackend(blogPath, StoreFormat::Binlog, "t");
        std::string error;
        ASSERT_TRUE(dst->flush(view, batch, &error)) << error;
    }
    SweepRunner::Options ro;
    ro.storePath = blogPath;
    ro.resume = true; // note: storeFormat left at the Json default
    SweepRunner resumed(ro);
    std::vector<std::size_t> hs;
    for (const auto& c : cells)
        hs.push_back(resumed.add(c));
    resumed.run();
    EXPECT_EQ(resumed.episodesExecuted(), 0);
    EXPECT_EQ(resumed.resumedCells(), static_cast<int>(cells.size()));
    for (std::size_t i = 0; i < cells.size(); ++i)
        expectIdentical(want[i], resumed.stats(hs[i]));
    removeStoreAnyFormat(jsonPath);
    removeStoreAnyFormat(blogPath);
}
