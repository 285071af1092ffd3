/** @file Tests for the episode-record JSON round trip and the sweep-diff
 *  store comparator: bit-exact ledger round trips, clean verdicts on
 *  identical stores, tolerance handling, new/missing cells, episode-count
 *  mismatches, metrics drift, torn-store salvage, and scheduling records
 *  that never compare. All stores here are synthesized records -- no
 *  models run. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/serialize.hpp"
#include "core/store_diff.hpp"
#include "core/sweep.hpp"

using namespace create;

namespace {

EpisodeRecord
makeEpisode(int i, bool success)
{
    EpisodeRecord e;
    e.result.success = success;
    e.result.steps = 100 + 13 * i;
    e.result.plannerInvocations = 1 + i % 3;
    e.result.predictorInvocations = 20 * i;
    e.result.subtasksCompleted = i % 5;
    e.result.plannerV2Ratio = 1.0 / 3.0 + 0.01 * i;
    e.result.controllerV2Ratio = 0.1 * (i + 1);
    e.result.plannerEffV = 0.9 - 0.007 * i;
    e.result.controllerEffV = 0.72 + 1e-9 * i;
    e.result.bitFlips = static_cast<std::uint64_t>(1) << (i % 40);
    e.result.anomaliesCleared = static_cast<std::uint64_t>(7 * i);
    e.computeJ = 1234.5678901234567 / (i + 1);
    return e;
}

/** Attach a deterministic schema-v3 metrics payload to an episode. */
void
attachMetrics(EpisodeRecord& e, int i)
{
    EpisodeMetrics& m = e.metrics;
    m.present = true;
    m.wallMs = 12.5 + 0.25 * i;
    m.gemms = 40 + static_cast<std::uint64_t>(i);
    m.flipsInjected = 9 + static_cast<std::uint64_t>(2 * i);
    m.flipsDetected = 6 + static_cast<std::uint64_t>(i);
    m.flipsCorrected = 4;
    m.flipsEscaped = m.flipsInjected - m.flipsCorrected;
    m.reExecutions = static_cast<std::uint64_t>(i % 3);
    // Dotted layer tags exercise the rfind('.')-based key parsing.
    LayerFaultCounters attn;
    attn.gemms = 30;
    attn.injected = m.flipsInjected - 2;
    attn.escaped = 5;
    LayerFaultCounters head;
    head.gemms = 10 + static_cast<std::uint64_t>(i);
    head.injected = 2;
    head.detected = m.flipsDetected;
    head.reExecutions = m.reExecutions;
    m.layers = {{"planner.attn.k", attn}, {"planner.head", head}};
}

/** Write a store with one ledger of `n` episodes per fingerprint. */
void
writeStore(const std::string& path, const std::vector<std::string>& fps,
           int n, int perturbEpisode = -1, bool withMetrics = false,
           int perturbFlipsEpisode = -1)
{
    std::vector<JsonRecord> records;
    JsonRecord schema;
    schema.name = kSweepStoreSchemaRecord;
    schema.numbers.emplace_back("schema", kSweepStoreSchema);
    records.push_back(schema);
    for (const auto& fp : fps) {
        JsonRecord meta;
        meta.name = fp;
        meta.strings.emplace_back("platform", "jarvis-1");
        meta.strings.emplace_back("label", "cell-" + fp.substr(0, 8));
        meta.numbers.emplace_back("task", 0);
        meta.numbers.emplace_back("seed0", 1000);
        records.push_back(meta);
        for (int i = 0; i < n; ++i) {
            EpisodeRecord e = makeEpisode(i, i % 2 == 0);
            if (i == perturbEpisode)
                e.computeJ *= 1.0 + 1e-12; // one-ulp-ish drift
            if (withMetrics) {
                attachMetrics(e, i);
                if (i == perturbFlipsEpisode)
                    e.metrics.flipsEscaped += 1;
            }
            records.push_back(
                episodeToRecord(sweepEpisodeKey(fp, i), e));
        }
    }
    ASSERT_TRUE(writeJsonRecords(path, records));
}

} // namespace

TEST(EpisodeLedger, JsonRoundTripIsBitExact)
{
    const std::string path = "/tmp/create_test_episode_rt.json";
    std::vector<JsonRecord> out;
    for (int i = 0; i < 8; ++i)
        out.push_back(episodeToRecord(sweepEpisodeKey("v2|x", i),
                                      makeEpisode(i, i % 3 == 0)));
    ASSERT_TRUE(writeJsonRecords(path, out));
    std::vector<JsonRecord> in;
    ASSERT_TRUE(readJsonRecords(path, in));
    ASSERT_EQ(in.size(), out.size());
    for (int i = 0; i < 8; ++i) {
        const EpisodeRecord want = makeEpisode(i, i % 3 == 0);
        EpisodeRecord got;
        std::string fp;
        ASSERT_EQ(sweepEpisodeIndex(in[static_cast<std::size_t>(i)].name,
                                    &fp),
                  i);
        EXPECT_EQ(fp, "v2|x");
        ASSERT_TRUE(
            episodeFromRecord(in[static_cast<std::size_t>(i)], got));
        EXPECT_EQ(want.result.success, got.result.success);
        EXPECT_EQ(want.result.steps, got.result.steps);
        EXPECT_EQ(want.result.plannerInvocations,
                  got.result.plannerInvocations);
        EXPECT_EQ(want.result.predictorInvocations,
                  got.result.predictorInvocations);
        EXPECT_EQ(want.result.subtasksCompleted,
                  got.result.subtasksCompleted);
        EXPECT_EQ(want.result.plannerV2Ratio, got.result.plannerV2Ratio);
        EXPECT_EQ(want.result.controllerV2Ratio,
                  got.result.controllerV2Ratio);
        EXPECT_EQ(want.result.plannerEffV, got.result.plannerEffV);
        EXPECT_EQ(want.result.controllerEffV, got.result.controllerEffV);
        EXPECT_EQ(want.result.bitFlips, got.result.bitFlips);
        EXPECT_EQ(want.result.anomaliesCleared,
                  got.result.anomaliesCleared);
        EXPECT_EQ(want.computeJ, got.computeJ);
    }
    std::remove(path.c_str());
}

TEST(EpisodeLedger, RejectsRecordsWithMissingFields)
{
    JsonRecord rec = episodeToRecord("v2|x#0", makeEpisode(0, true));
    EpisodeRecord out;
    EXPECT_TRUE(episodeFromRecord(rec, out));
    rec.numbers.erase(rec.numbers.begin() + 2);
    EXPECT_FALSE(episodeFromRecord(rec, out));
}

TEST(EpisodeLedger, EpisodeKeyParsing)
{
    EXPECT_EQ(sweepEpisodeIndex("v2|a|task=1#17"), 17);
    EXPECT_EQ(sweepEpisodeIndex("v2|a|task=1"), -1);   // meta record
    EXPECT_EQ(sweepEpisodeIndex("v1|a|reps=3"), -1);   // legacy record
    EXPECT_EQ(sweepEpisodeIndex("sweep-store"), -1);   // schema record
    EXPECT_EQ(sweepEpisodeIndex("v2|a#12x"), -1);      // not an index
    EXPECT_EQ(sweepEpisodeIndex("v2|a#"), -1);
}

TEST(StoreDiff, IdenticalStoresAreClean)
{
    const std::string a = "/tmp/create_test_diff_a.json";
    const std::string b = "/tmp/create_test_diff_b.json";
    writeStore(a, {"v2|p1", "v2|p2"}, 6);
    writeStore(b, {"v2|p1", "v2|p2"}, 6);
    const StoreDiffResult res = diffStores(a, b);
    EXPECT_TRUE(res.clean());
    EXPECT_EQ(res.compared, 2);
    EXPECT_EQ(res.cellsA, 2);
    EXPECT_EQ(res.cellsB, 2);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(StoreDiff, ReportsNewAndMissingCells)
{
    const std::string a = "/tmp/create_test_diff_a.json";
    const std::string b = "/tmp/create_test_diff_b.json";
    writeStore(a, {"v2|p1", "v2|p2"}, 4);
    writeStore(b, {"v2|p2", "v2|p3"}, 4);
    const StoreDiffResult res = diffStores(a, b);
    ASSERT_EQ(res.entries.size(), 2u);
    EXPECT_EQ(res.compared, 1);
    EXPECT_EQ(res.entries[0].kind, StoreDiffEntry::Kind::OnlyInA);
    EXPECT_EQ(res.entries[0].fingerprint, "v2|p1");
    EXPECT_EQ(res.entries[1].kind, StoreDiffEntry::Kind::OnlyInB);
    EXPECT_EQ(res.entries[1].fingerprint, "v2|p3");
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(StoreDiff, DetectsStatDriftAndHonorsTolerance)
{
    const std::string a = "/tmp/create_test_diff_a.json";
    const std::string b = "/tmp/create_test_diff_b.json";
    writeStore(a, {"v2|p1"}, 6);
    writeStore(b, {"v2|p1"}, 6, /*perturbEpisode=*/3);
    const StoreDiffResult strict = diffStores(a, b);
    ASSERT_FALSE(strict.clean());
    EXPECT_EQ(strict.entries[0].kind, StoreDiffEntry::Kind::Stat);
    EXPECT_NE(strict.entries[0].detail.find("avgComputeJ"),
              std::string::npos);

    StoreDiffOptions tol;
    tol.relTol = 1e-9;
    EXPECT_TRUE(diffStores(a, b, tol).clean());
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(StoreDiff, DetectsEpisodeCountMismatch)
{
    const std::string a = "/tmp/create_test_diff_a.json";
    const std::string b = "/tmp/create_test_diff_b.json";
    writeStore(a, {"v2|p1"}, 6);
    writeStore(b, {"v2|p1"}, 4);
    const StoreDiffResult res = diffStores(a, b);
    ASSERT_EQ(res.entries.size(), 1u);
    EXPECT_EQ(res.entries[0].kind, StoreDiffEntry::Kind::Episodes);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(EpisodeLedger, MetricsRoundTripThroughRecord)
{
    EpisodeRecord want = makeEpisode(3, true);
    attachMetrics(want, 3);
    const JsonRecord rec = episodeToRecord("v2|x#3", want);

    EpisodeRecord got;
    ASSERT_TRUE(episodeFromRecord(rec, got));
    ASSERT_TRUE(got.metrics.present);
    EXPECT_EQ(want.metrics.wallMs, got.metrics.wallMs);
    for (const auto& [key, member] : kEpisodeMetricFields) {
        SCOPED_TRACE(key);
        EXPECT_EQ(want.metrics.*member, got.metrics.*member);
    }
    // Per-layer tables reconstruct exactly, dotted tags included.
    ASSERT_EQ(got.metrics.layers.size(), want.metrics.layers.size());
    for (const auto& [tag, c] : want.metrics.layers) {
        SCOPED_TRACE(tag);
        const LayerFaultCounters* back = got.metrics.layer(tag);
        ASSERT_NE(back, nullptr);
        for (const auto& [key, member] : kLayerFaultFields) {
            SCOPED_TRACE(key);
            EXPECT_EQ(c.*member, back->*member);
        }
    }
}

TEST(EpisodeLedger, RecordWithoutMetricsParsesAsAbsent)
{
    // A v2-era record carries none of the metrics keys; the episode must
    // still parse, with the payload marked absent (lossless v2 read).
    const JsonRecord rec = episodeToRecord("v2|x#0", makeEpisode(0, true));
    EpisodeRecord out;
    ASSERT_TRUE(episodeFromRecord(rec, out));
    EXPECT_FALSE(out.metrics.present);
    EXPECT_TRUE(out.metrics.layers.empty());
}

TEST(StoreDiff, DetectsMetricsDrift)
{
    const std::string a = "/tmp/create_test_diff_a.json";
    const std::string b = "/tmp/create_test_diff_b.json";
    writeStore(a, {"v2|p1"}, 6, -1, /*withMetrics=*/true);
    writeStore(b, {"v2|p1"}, 6, -1, /*withMetrics=*/true);
    EXPECT_TRUE(diffStores(a, b).clean());

    // One extra escaped flip in one episode: the cell-level counter sums
    // differ, and the comparator names the drifted counter.
    writeStore(b, {"v2|p1"}, 6, -1, true, /*perturbFlipsEpisode=*/2);
    const StoreDiffResult res = diffStores(a, b);
    ASSERT_EQ(res.entries.size(), 1u);
    EXPECT_EQ(res.entries[0].kind, StoreDiffEntry::Kind::Stat);
    EXPECT_NE(res.entries[0].detail.find("metrics.flipsEscaped"),
              std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(StoreDiff, MetricsAbsentOnOneSideIsNotDrift)
{
    // Comparing a v3 store against a metrics-off (or v2-era) store of the
    // same campaign must gate on the results, not the payload's absence.
    const std::string a = "/tmp/create_test_diff_a.json";
    const std::string b = "/tmp/create_test_diff_b.json";
    writeStore(a, {"v2|p1"}, 5, -1, /*withMetrics=*/true);
    writeStore(b, {"v2|p1"}, 5);
    EXPECT_TRUE(diffStores(a, b).clean());
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(StoreDiff, MixedMetricsLedgerDropsTheSummedCounters)
{
    // A ledger where only some episodes carry metrics (e.g. resumed by a
    // metrics-off build) is not comparable counter-wise: hasMetrics must
    // be false so build provenance can never flip a gate verdict.
    const std::string path = "/tmp/create_test_diff_mixed.json";
    std::vector<JsonRecord> records;
    JsonRecord schema;
    schema.name = kSweepStoreSchemaRecord;
    schema.numbers.emplace_back("schema", kSweepStoreSchema);
    records.push_back(schema);
    for (int i = 0; i < 4; ++i) {
        EpisodeRecord e = makeEpisode(i, true);
        if (i != 2)
            attachMetrics(e, i);
        records.push_back(episodeToRecord(sweepEpisodeKey("v2|p1", i), e));
    }
    ASSERT_TRUE(writeJsonRecords(path, records));

    std::vector<StoreCell> cells;
    std::string error;
    ASSERT_TRUE(loadStoreCells(path, cells, error));
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].episodes, 4);
    EXPECT_FALSE(cells[0].hasMetrics);
    EXPECT_EQ(cells[0].metrics.flipsInjected, 0u);
    std::remove(path.c_str());
}

TEST(StoreDiff, MissingFileIsAnError)
{
    std::vector<StoreCell> cells;
    std::string error;
    EXPECT_FALSE(
        loadStoreCells("/tmp/create_no_such_store.json", cells, error));
    EXPECT_FALSE(error.empty());
    EXPECT_THROW(diffStores("/tmp/create_no_such_store.json",
                            "/tmp/create_no_such_store.json"),
                 std::runtime_error);
}

TEST(StoreDiff, TruncatedStoreSalvagesPrefixAndQuarantines)
{
    // A campaign killed mid-write (or a chaos-torn store) must still
    // certify every episode that landed: loadStoreCells folds the
    // parseable prefix instead of aborting, quarantines the bad tail,
    // and the diff against the intact store reports the lost episodes
    // as a count mismatch -- drift, not a crash.
    const std::string full = "/tmp/create_test_salv_full.json";
    const std::string torn = "/tmp/create_test_salv_torn.json";
    const std::string quar = torn + ".quarantine";
    writeStore(full, {"v2|salv"}, 6);

    std::string text;
    {
        std::FILE* f = std::fopen(full.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[8192];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    // Tear the file mid-way through the last episode record (cutting at
    // its computeJ key is guaranteed to land inside the record).
    const std::size_t cut = text.rfind("computeJ");
    ASSERT_NE(cut, std::string::npos);
    {
        std::FILE* f = std::fopen(torn.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(text.data(), 1, cut, f), cut);
        std::fclose(f);
    }

    std::vector<StoreCell> cells;
    std::string error;
    ASSERT_TRUE(loadStoreCells(torn, cells, error));
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_GT(cells[0].episodes, 0);
    EXPECT_LT(cells[0].episodes, 6);
    // The bad tail survives for post-mortem.
    std::FILE* q = std::fopen(quar.c_str(), "rb");
    ASSERT_NE(q, nullptr);
    std::fclose(q);

    const StoreDiffResult res = diffStores(full, torn);
    EXPECT_FALSE(res.clean());

    // A file with no parseable record prefix at all is still an error.
    const std::string junk = "/tmp/create_test_salv_junk.json";
    {
        std::FILE* f = std::fopen(junk.c_str(), "wb");
        std::fputs("this is not a record store", f);
        std::fclose(f);
    }
    EXPECT_FALSE(loadStoreCells(junk, cells, error));
    EXPECT_NE(error.find("parse"), std::string::npos);

    std::remove(full.c_str());
    std::remove(torn.c_str());
    std::remove(quar.c_str());
    std::remove(junk.c_str());
}

TEST(StoreDiff, LeaseRecordsFromOlderBuildsNeverCompare)
{
    // Builds that ran filesystem lease workers left `lease|` records in
    // their stores. Such a store still loads, the lease record becomes no
    // cell, and it diffs clean against the same ledger without one.
    const std::string a = "/tmp/create_test_lease_a.json";
    const std::string b = "/tmp/create_test_lease_b.json";
    writeStore(a, {"v2|leased"}, 4);
    writeStore(b, {"v2|leased"}, 4);
    {
        std::vector<JsonRecord> records;
        ASSERT_TRUE(readJsonRecords(a, records));
        JsonRecord lease;
        lease.name = sweepLeaseKey("v2|leased");
        lease.strings.emplace_back("owner", "hostA:111.1");
        lease.numbers.emplace_back("gen", 3);
        lease.numbers.emplace_back("renewedAt", 1e9);
        lease.numbers.emplace_back("done", 1);
        records.push_back(std::move(lease));
        ASSERT_TRUE(writeJsonRecords(a, records));
    }

    std::vector<StoreCell> cells;
    std::string error;
    ASSERT_TRUE(loadStoreCells(a, cells, error));
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].fingerprint, "v2|leased");
    EXPECT_TRUE(cells[0].episodeOwners.empty()); // no `by` stamps

    const StoreDiffResult res = diffStores(a, b);
    EXPECT_TRUE(res.clean()) << "lease records must not be compared";

    std::remove(a.c_str());
    std::remove(b.c_str());
}
