/** @file Tests for the socket campaign coordinator and its wire codec:
 *  incremental StreamDecoder decode under adversarial chunking (1-byte
 *  drips, random chunk sizes, partial trailing frames), corruption and
 *  foreign-magic failure modes, the coord| control-record grammar, and
 *  an in-process end-to-end campaign -- coordinator + two concurrent
 *  socket workers + one deserting client -- certified bit-identical to
 *  a serial run, with the deserter's range re-dispatched. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/binlog.hpp"
#include "common/serialize.hpp"
#include "common/store_keys.hpp"
#include "core/coordinator.hpp"
#include "core/create_system.hpp"
#include "core/manip_system.hpp"
#include "core/store_diff.hpp"
#include "core/store_stats.hpp"
#include "core/sweep.hpp"
#include "env/manipworld.hpp"
#include "test_util.hpp"

using namespace create;
using testutil::expectIdentical;

namespace {

/** Remove a store of either format (json file or binlog dir) + sidecar. */
void
removeStoreAnyFormat(const std::string& path)
{
    const std::string rm = "rm -rf '" + path + "' '" + path + ".lock'";
    ASSERT_EQ(std::system(rm.c_str()), 0);
}

JsonRecord
makeRecord(const std::string& name, double salt)
{
    JsonRecord r;
    r.name = name;
    r.strings.emplace_back("tag", "payload-" + name);
    r.numbers.emplace_back("frac", 0.1 + salt);
    r.numbers.emplace_back("negzero", -0.0);
    r.numbers.emplace_back("huge", 1.2345678901234567e300);
    return r;
}

void
expectRecordsEqual(const JsonRecord& a, const JsonRecord& b)
{
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.strings.size(), b.strings.size());
    for (std::size_t i = 0; i < a.strings.size(); ++i) {
        EXPECT_EQ(a.strings[i].first, b.strings[i].first);
        EXPECT_EQ(a.strings[i].second, b.strings[i].second);
    }
    ASSERT_EQ(a.numbers.size(), b.numbers.size());
    for (std::size_t i = 0; i < a.numbers.size(); ++i) {
        EXPECT_EQ(a.numbers[i].first, b.numbers[i].first);
        std::uint64_t ba = 0, bb = 0;
        std::memcpy(&ba, &a.numbers[i].second, sizeof(ba));
        std::memcpy(&bb, &b.numbers[i].second, sizeof(bb));
        EXPECT_EQ(ba, bb) << a.name << "." << a.numbers[i].first;
    }
}

/** Encode header + `n` mixed-key records; returns the byte stream and
 *  the records (enough to cross at least one periodic Index frame). */
std::string
encodeStream(int n, std::vector<JsonRecord>& records)
{
    records.clear();
    std::string stream;
    binlog::FrameEncoder::encodeHeader(stream);
    binlog::FrameEncoder enc;
    const std::string fp = "v2|jarvis-1|t0|cfgfeedface|s0";
    for (int i = 0; i < n; ++i) {
        JsonRecord r = (i % 5 == 4)
                           ? makeRecord("opaque-" + std::to_string(i),
                                        0.25 * i)
                           : makeRecord(sweepEpisodeKey(fp, i), 0.5 * i);
        enc.encodeRecord(r, stream);
        records.push_back(std::move(r));
    }
    return stream;
}

/** Byte offset where each frame of a complete stream ends. */
std::vector<std::size_t>
frameEnds(const std::string& bytes)
{
    std::vector<std::size_t> out;
    std::size_t pos = binlog::kHeaderBytes;
    while (pos + 9 <= bytes.size()) {
        std::uint32_t len = 0;
        std::memcpy(&len, bytes.data() + pos + 1, sizeof(len));
        pos += 9 + len;
        out.push_back(pos);
    }
    return out;
}

/** A small mixed-platform campaign (the test_sweep matrix). */
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

TEST(CoordWire, ControlRecordGrammar)
{
    JsonRecord req = coordwire::control("req");
    std::string verb;
    ASSERT_TRUE(coordwire::isControl(req, &verb));
    EXPECT_EQ(verb, "req");
    EXPECT_EQ(req.name, std::string(coordwire::kPrefix) + "req");

    // Data records -- even ones whose names merely resemble the prefix
    // -- are not control records.
    EXPECT_FALSE(coordwire::isControl(makeRecord("v2|x#0", 0.0), nullptr));
    EXPECT_FALSE(coordwire::isControl(makeRecord("coordinate", 0.0),
                                      nullptr));
}

TEST(StreamDecoder, OneByteDripDecodesEverything)
{
    // The socket worst case: every read returns a single byte. Frames
    // are self-delimiting, so the decoder must pop exactly the encoded
    // records, in order, bit-identically -- across the lazy FpDef frames
    // and the periodic Index frame that 300 records force (kIndexEvery =
    // 256).
    std::vector<JsonRecord> in;
    const std::string stream = encodeStream(300, in);

    binlog::StreamDecoder dec;
    std::vector<JsonRecord> out;
    JsonRecord rec;
    for (const char byte : stream) {
        ASSERT_TRUE(dec.feed(&byte, 1));
        while (dec.pop(rec))
            out.push_back(rec);
    }
    EXPECT_FALSE(dec.failed());
    EXPECT_TRUE(dec.headerSeen());
    EXPECT_EQ(dec.consumed(), stream.size());
    EXPECT_EQ(dec.buffered(), 0u);
    EXPECT_GE(dec.indexBlocks(), 1u);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        expectRecordsEqual(in[i], out[i]);
}

TEST(StreamDecoder, RandomChunkSizesDecodeIdentically)
{
    std::vector<JsonRecord> in;
    const std::string stream = encodeStream(64, in);
    std::mt19937 rng(20260808u);
    std::uniform_int_distribution<std::size_t> chunkLen(1, 37);

    for (int trial = 0; trial < 8; ++trial) {
        SCOPED_TRACE(trial);
        binlog::StreamDecoder dec;
        std::vector<JsonRecord> out;
        JsonRecord rec;
        std::size_t pos = 0;
        while (pos < stream.size()) {
            const std::size_t n =
                std::min(chunkLen(rng), stream.size() - pos);
            ASSERT_TRUE(dec.feed(stream.data() + pos, n));
            pos += n;
            while (dec.pop(rec))
                out.push_back(rec);
        }
        EXPECT_FALSE(dec.failed());
        EXPECT_EQ(dec.consumed(), stream.size());
        ASSERT_EQ(out.size(), in.size());
        for (std::size_t i = 0; i < in.size(); ++i)
            expectRecordsEqual(in[i], out[i]);
    }
}

TEST(StreamDecoder, PartialTrailingFrameBuffersAndResumes)
{
    // Cut mid-frame: everything before the cut decodes, the tail buffers
    // (consumed() stays on the frame boundary -- the salvage boundary),
    // and feeding the remainder later resumes cleanly. The socket
    // reconnect shape, minus the reconnect.
    std::vector<JsonRecord> in;
    const std::string stream = encodeStream(8, in);
    const std::vector<std::size_t> ends = frameEnds(stream);
    ASSERT_GE(ends.size(), 2u);
    const std::size_t lastBoundary = ends[ends.size() - 2];
    const std::size_t cut = lastBoundary + 4; // 4 bytes into final frame

    binlog::StreamDecoder dec;
    ASSERT_TRUE(dec.feed(stream.data(), cut));
    std::vector<JsonRecord> out;
    JsonRecord rec;
    while (dec.pop(rec))
        out.push_back(rec);
    EXPECT_FALSE(dec.failed());
    EXPECT_EQ(dec.consumed(), lastBoundary);
    EXPECT_EQ(dec.buffered(), cut - lastBoundary);
    EXPECT_EQ(out.size(), in.size() - 1);

    ASSERT_TRUE(dec.feed(stream.data() + cut, stream.size() - cut));
    while (dec.pop(rec))
        out.push_back(rec);
    EXPECT_EQ(dec.consumed(), stream.size());
    EXPECT_EQ(dec.buffered(), 0u);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        expectRecordsEqual(in[i], out[i]);
}

TEST(StreamDecoder, CorruptionFailsPermanentlyAtTheFrameBoundary)
{
    std::vector<JsonRecord> in;
    std::string stream = encodeStream(8, in);
    const std::vector<std::size_t> ends = frameEnds(stream);
    ASSERT_GE(ends.size(), 3u);
    // Flip a payload byte inside the frame ending at ends[k]: records of
    // frames before it survive, the stream fails there, and later bytes
    // are discarded (feed returns false) -- corruption is not a
    // truncation and must never "resume".
    const std::size_t k = ends.size() / 2;
    stream[ends[k] - 2] =
        static_cast<char>(stream[ends[k] - 2] ^ 0x20);

    binlog::StreamDecoder dec;
    dec.feed(stream);
    EXPECT_TRUE(dec.failed());
    EXPECT_FALSE(dec.badHeader());
    EXPECT_EQ(dec.consumed(), ends[k - 1]);
    EXPECT_FALSE(dec.feed("more", 4));
    std::size_t popped = 0;
    JsonRecord rec;
    while (dec.pop(rec))
        ++popped;
    EXPECT_LT(popped, in.size());
}

TEST(StreamDecoder, ForeignMagicFailsAsBadHeader)
{
    binlog::StreamDecoder dec;
    dec.feed("NOTCRBL!garbage", 15);
    EXPECT_TRUE(dec.failed());
    EXPECT_TRUE(dec.badHeader());
    EXPECT_FALSE(dec.headerSeen());

    // reset() re-arms the header check for a fresh stream.
    dec.reset();
    std::string header;
    binlog::FrameEncoder::encodeHeader(header);
    ASSERT_TRUE(dec.feed(header));
    EXPECT_TRUE(dec.headerSeen());
    EXPECT_FALSE(dec.failed());
}

TEST(Coordinator, SocketCampaignBitIdenticalAndRedispatchesDeserters)
{
    // End to end, in process: a coordinator owning a binlog store, a
    // deserting client that takes a range and vanishes (its range must
    // re-dispatch), and two concurrent socket workers running the full
    // matrix, one of them fanning each range out over two evaluator
    // threads (concurrent completions into one range sink). The workers'
    // folded stats and the coordinator's store must both be bit-identical
    // to a serial filesystem campaign.
    const std::string store = "/tmp/create_test_coord_e2e.blog";
    const std::string serial = "/tmp/create_test_coord_e2e_serial.json";
    removeStoreAnyFormat(store);
    removeStoreAnyFormat(serial);
    const int reps = 4;
    const auto cells = campaignCells(reps);

    Coordinator::Options co;
    co.storePath = store;
    co.storeFormat = StoreFormat::Binlog;
    co.once = true;
    co.leaseSeconds = 30.0;
    co.rangeEpisodes = 2;
    Coordinator coord(co);
    std::string error;
    ASSERT_TRUE(coord.start(&error)) << error;
    ASSERT_GT(coord.port(), 0);
    std::thread serve([&] { coord.runLoop(); });

    {
        // The deserter: declare cell 0, take a range, vanish. Exactly-once
        // lives in the coordinator's have-bitmap, so the missing indices
        // simply re-dispatch when the connection drops.
        CoordClient deserter;
        ASSERT_TRUE(deserter.connect("127.0.0.1", coord.port(),
                                     "deserter:1.1", 3, &error))
            << error;
        JsonRecord need = coordwire::control("need");
        need.strings.emplace_back("fp", sweepFingerprint(cells[0]));
        need.numbers.emplace_back("need", reps);
        ASSERT_TRUE(deserter.send(need, &error)) << error;
        ASSERT_TRUE(deserter.send(coordwire::control("req"), &error))
            << error;
        JsonRecord rec;
        ASSERT_TRUE(deserter.recv(rec, &error)) << error;
        std::string verb;
        ASSERT_TRUE(coordwire::isControl(rec, &verb));
        EXPECT_EQ(verb, "range");
        EXPECT_EQ(rec.text("fp"), sweepFingerprint(cells[0]));
        deserter.close();
    }

    const std::string hostPort =
        "127.0.0.1:" + std::to_string(coord.port());
    SweepRunner::Options wo;
    wo.connect = hostPort;
    SweepRunner::Options wo2 = wo;
    wo2.threads = 2;
    SweepRunner w1(wo), w2(wo2);
    std::vector<std::size_t> h1, h2;
    for (const auto& c : cells) {
        h1.push_back(w1.add(c));
        h2.push_back(w2.add(c));
    }
    std::thread t1([&] { w1.run(); });
    std::thread t2([&] { w2.run(); });
    t1.join();
    t2.join();
    serve.join(); // --once: exits when every declared fp completed

    EXPECT_GE(coord.rangesRedispatched(), 1); // the deserter's range
    EXPECT_GE(coord.episodesIngested(),
              static_cast<long long>(cells.size()) * reps);

    // Both workers fold stats bit-identical to a serial campaign (which
    // doubles as the golden store writer)...
    SweepRunner::Options so;
    so.storePath = serial;
    SweepRunner fresh(so);
    std::vector<std::size_t> hf;
    for (const auto& c : cells)
        hf.push_back(fresh.add(c));
    fresh.run();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(i);
        expectIdentical(fresh.stats(hf[i]), w1.stats(h1[i]));
        expectIdentical(fresh.stats(hf[i]), w2.stats(h2[i]));
    }

    // ... and the coordinator's store diffs clean against it, with every
    // episode attributed and the coordinator holding every lease.
    std::vector<StoreCell> coordCells, serialCells;
    std::vector<JsonRecord> workerRecs;
    ASSERT_TRUE(loadStoreCells(store, coordCells, error, &workerRecs))
        << error;
    ASSERT_TRUE(loadStoreCells(serial, serialCells, error)) << error;
    const StoreDiffResult res =
        diffStoreCells(coordCells, serialCells, StoreDiffOptions{});
    EXPECT_TRUE(res.clean());
    EXPECT_EQ(res.compared, static_cast<int>(cells.size()));

    // The worker| telemetry surfaced through the reader stack: range
    // counters balance (every assigned range was completed or
    // re-dispatched) and eps/s is populated for the socket workers.
    EXPECT_FALSE(workerRecs.empty());
    const StoreStatsResult stats =
        computeStoreStats(coordCells, workerRecs);
    long long assigned = 0, completed = 0, redispatched = 0;
    int withRanges = 0;
    for (const ShardLoad& s : stats.shards) {
        if (!s.hasRanges)
            continue;
        ++withRanges;
        assigned += s.rangesAssigned;
        completed += s.rangesCompleted;
        redispatched += s.rangesRedispatched;
    }
    EXPECT_GE(withRanges, 2); // both workers + the deserter reported
    EXPECT_EQ(assigned, completed + redispatched);
    EXPECT_GE(redispatched, 1);

    removeStoreAnyFormat(store);
    removeStoreAnyFormat(serial);
}

TEST(Coordinator, ResumesFromExistingStoreWithoutReexecution)
{
    // Crash-recovery shape: a serial campaign's store handed to a
    // (restarted) coordinator must satisfy a socket worker with ZERO
    // episodes executed -- the bitmap seeds from disk, the worker gets
    // fin after fetching the stored ledgers, and its stats still fold
    // bit-identically.
    const std::string store = "/tmp/create_test_coord_resume.json";
    removeStoreAnyFormat(store);
    const auto cells = campaignCells(3);
    SweepRunner::Options so;
    so.storePath = store;
    SweepRunner seed(so);
    std::vector<std::size_t> hs;
    for (const auto& c : cells)
        hs.push_back(seed.add(c));
    seed.run();

    Coordinator::Options co;
    co.storePath = store; // json store: the coordinator adopts its format
    co.once = true;
    Coordinator coord(co);
    std::string error;
    ASSERT_TRUE(coord.start(&error)) << error;
    std::thread serve([&] { coord.runLoop(); });

    SweepRunner::Options wo;
    wo.connect = "127.0.0.1:" + std::to_string(coord.port());
    SweepRunner worker(wo);
    std::vector<std::size_t> hw;
    for (const auto& c : cells)
        hw.push_back(worker.add(c));
    worker.run();
    serve.join();

    EXPECT_EQ(worker.episodesExecuted(), 0);
    EXPECT_EQ(coord.rangesDispatched(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(i);
        expectIdentical(seed.stats(hs[i]), worker.stats(hw[i]));
    }
    removeStoreAnyFormat(store);
}
