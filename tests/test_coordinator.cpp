/** @file Tests for the socket campaign coordinator and its wire codec.
 *  The wire: incremental StreamDecoder decode under adversarial chunking
 *  (1-byte drips, random chunk sizes, partial trailing frames),
 *  corruption and foreign-magic failure modes, the coord| control-record
 *  grammar, crafted frames with malformed integers dropped on both
 *  sides, and one scripted socket session pinned to its transcript. The
 *  worker side, over real sockets, in campaigns certified bit-identical
 *  to a serial run: two concurrent socket workers, a phased worker that
 *  spans two run() calls on one connection, a worker whose ledger
 *  another worker declared deeper, resume from an existing store with
 *  and without episode holes (cross-process gap-fill), and a duplicate
 *  episode keeping its first copy in either store format. The range
 *  protocol itself (CoordCore) runs on a deterministic simulator with a
 *  virtual clock: exhaustive at small scope, randomized beyond it, and
 *  directed cases for a deserter, a --once rejoin window, a restart on a
 *  fleet's store, a parked request answered by each event that frees
 *  work, and a request after a malformed need. */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/binlog.hpp"
#include "common/io_retry.hpp"
#include "common/serialize.hpp"
#include "common/store_keys.hpp"
#include "core/coordinator.hpp"
#include "core/create_system.hpp"
#include "core/store_diff.hpp"
#include "core/store_stats.hpp"
#include "core/sweep.hpp"
#include "env/manipworld.hpp"
#include "test_util.hpp"

using namespace create;
using testutil::expectIdentical;

namespace {

/** Remove a store of either format (json file or binlog dir). */
void
removeStoreAnyFormat(const std::string& path)
{
    const std::string rm = "rm -rf '" + path + "'";
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

/** A control record `coord|<verb>` about ledger `fp`, with `fields`. */
JsonRecord
ledgerControl(const char* verb, const std::string& fp,
              std::vector<std::pair<std::string, double>> fields)
{
    JsonRecord r = coordwire::control(verb);
    r.strings.emplace_back("fp", fp);
    r.numbers = std::move(fields);
    return r;
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

/**
 * Declare `fp` at `need` and fetch its stored episodes until `fetched`;
 * returns the episodes received, or -1 on a broken connection.
 */
int
declareAndFetch(CoordClient& c, const std::string& fp, int need,
                std::string* error)
{
    const JsonRecord declare = ledgerControl("need", fp, {{"need", need}});
    const JsonRecord fetch = ledgerControl("fetch", fp, {{"need", need}});
    if (!c.send(std::vector<JsonRecord>{declare, fetch}, error))
        return -1;
    int episodes = 0;
    JsonRecord rec;
    std::string verb;
    while (c.recv(rec, error)) {
        if (!coordwire::isControl(rec, &verb))
            ++episodes;
        else if (verb == "fetched")
            return episodes;
    }
    return -1;
}

/**
 * Reply frames as transcript lines: `range <fp> <start>+<count>`,
 * `fetched <episodes before it>`, or the bare verb.
 */
std::string
transcribe(const std::vector<JsonRecord>& frames)
{
    std::string out;
    int episodes = 0;
    for (const JsonRecord& r : frames) {
        std::string verb;
        if (!coordwire::isControl(r, &verb)) {
            ++episodes;
            continue;
        }
        out += (out.empty() ? "" : "\n") + verb;
        if (verb == "range")
            out += " " + r.text("fp") + " " +
                   std::to_string(coordwire::wireInt(r, "start")) + "+" +
                   std::to_string(coordwire::wireInt(r, "count"));
        else if (verb == "fetched")
            out += " " + std::to_string(episodes);
    }
    return out;
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

TEST(Coordinator, SocketCampaignBitIdenticalToSerial)
{
    // End to end, in process: a coordinator owning a binlog store and
    // two concurrent socket workers running the full matrix, one of them
    // fanning each range out over two threads (concurrent completions
    // into one range sink). The workers' folded stats and the
    // coordinator's store must both be bit-identical to a serial local
    // campaign. (A deserter's range re-dispatch is a core decision:
    // CoordSim.RedispatchesADeserter.)
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
    co.rangeEpisodes = 2;
    Coordinator coord(co);
    std::string error;
    ASSERT_TRUE(coord.start(&error)) << error;
    ASSERT_GT(coord.port(), 0);
    std::thread serve([&] { coord.runLoop(); });

    std::vector<TaskStats> s1, s2;
    {
        // Workers keep their coordinator connection until they are
        // destroyed, and a --once coordinator exits only once its fleet
        // is gone: their scope ends before serve.join().
        SweepRunner::Options wo;
        wo.connect = "127.0.0.1:" + std::to_string(coord.port());
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
        for (std::size_t i = 0; i < cells.size(); ++i) {
            s1.push_back(w1.stats(h1[i]));
            s2.push_back(w2.stats(h2[i]));
        }
    }
    serve.join(); // --once: every declared fp completed, fleet gone

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
        expectIdentical(fresh.stats(hf[i]), s1[i]);
        expectIdentical(fresh.stats(hf[i]), s2[i]);
    }

    // ... and the coordinator's store diffs clean against it, with every
    // episode attributed to the socket worker that ran it.
    std::vector<StoreCell> coordCells, serialCells;
    std::vector<JsonRecord> workerRecs;
    ASSERT_TRUE(loadStoreCells(store, coordCells, error, &workerRecs))
        << error;
    ASSERT_TRUE(loadStoreCells(serial, serialCells, error)) << error;
    const StoreDiffResult res =
        diffStoreCells(coordCells, serialCells, StoreDiffOptions{});
    EXPECT_TRUE(res.clean());
    EXPECT_EQ(res.compared, static_cast<int>(cells.size()));
    for (const StoreCell& cell : coordCells) {
        int attributed = 0;
        for (const auto& [owner, n] : cell.episodeOwners)
            attributed += n;
        EXPECT_EQ(attributed, cell.episodes) << cell.fingerprint;
    }

    // The worker| telemetry surfaced through the reader stack: range
    // counters balance (every assigned range was completed or
    // re-dispatched) for both socket workers.
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
    EXPECT_GE(withRanges, 2); // both workers reported
    EXPECT_EQ(assigned, completed + redispatched);

    removeStoreAnyFormat(store);
    removeStoreAnyFormat(serial);
}

TEST(Coordinator, PhasedWorkerKeepsItsConnectionAcrossRuns)
{
    // A campaign steered by its own results (fig16's fallback cells)
    // declares a second phase after the first run(). The worker must
    // declare it on the connection its first phase opened: closing in
    // between would let the --once coordinator see a complete, idle
    // fleet and exit before phase 2 could reach it.
    const std::string store = "/tmp/create_test_coord_phased.blog";
    removeStoreAnyFormat(store);
    const int reps = 3;
    const auto cells = campaignCells(reps);

    Coordinator::Options co;
    co.storePath = store;
    co.storeFormat = StoreFormat::Binlog;
    co.once = true;
    Coordinator coord(co);
    std::string error;
    ASSERT_TRUE(coord.start(&error)) << error;
    std::atomic<bool> served{false};
    std::thread serve([&] {
        coord.runLoop();
        served = true;
    });

    std::vector<TaskStats> got;
    long long executed = 0;
    {
        SweepRunner::Options wo;
        wo.connect = "127.0.0.1:" + std::to_string(coord.port());
        SweepRunner worker(wo);
        std::vector<std::size_t> hs{worker.add(cells[0]),
                                    worker.add(cells[1])};
        worker.run();
        // Phase 1 is complete and the fleet idle: give a coordinator
        // that lost its last connection time to exit (its poll wakes
        // at least every 100 ms) and fail fast rather than hang.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        if (served) {
            serve.join();
            FAIL() << "the --once coordinator exited between phases";
        }
        hs.push_back(worker.add(cells[2]));
        worker.run();
        executed = worker.episodesExecuted();
        for (const std::size_t h : hs)
            got.push_back(worker.stats(h));
    }
    serve.join();

    EXPECT_EQ(executed, static_cast<long long>(cells.size()) * reps);
    EXPECT_EQ(coord.episodesIngested(),
              static_cast<long long>(cells.size()) * reps);
    EXPECT_EQ(coord.rangesRedispatched(), 0);
    SweepRunner fresh;
    for (const auto& c : cells)
        fresh.add(c);
    fresh.run();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(i);
        expectIdentical(fresh.stats(i), got[i]);
    }
    removeStoreAnyFormat(store);
}

TEST(Coordinator, WorkersDeclaringOneLedgerAtDifferentDepths)
{
    // The coordinator keeps the deepest need any worker declared for a
    // ledger and sizes ranges against it. A worker that declared the
    // same ledger shallower must still land a range reaching past its
    // own need (here [0, 4) against reps 2) -- and fold only its own
    // prefix, bit-identical to a serial run.
    const std::string store = "/tmp/create_test_coord_depths.blog";
    removeStoreAnyFormat(store);
    const SweepCell cell = campaignCells(2)[1];
    const std::string fp = sweepFingerprint(cell);

    Coordinator::Options co;
    co.storePath = store;
    co.storeFormat = StoreFormat::Binlog;
    co.once = true;
    Coordinator coord(co);
    std::string error;
    ASSERT_TRUE(coord.start(&error)) << error;
    std::thread serve([&] { coord.runLoop(); });

    {
        // A deeper peer declares need 4 and leaves; the fetch round trip
        // makes sure the coordinator has taken the declaration first.
        CoordClient deep;
        ASSERT_TRUE(deep.connect("127.0.0.1", coord.port(), "deep:1.1", 3,
                                 &error))
            << error;
        EXPECT_EQ(declareAndFetch(deep, fp, 4, &error), 0) << error;
        EXPECT_TRUE(deep.send(coordwire::control("bye"), &error)) << error;
        deep.close();
    }

    TaskStats got;
    long long executed = 0;
    {
        SweepRunner::Options wo;
        wo.connect = "127.0.0.1:" + std::to_string(coord.port());
        SweepRunner worker(wo);
        const std::size_t h = worker.add(cell);
        worker.run();
        executed = worker.episodesExecuted();
        got = worker.stats(h);
    }
    serve.join();

    EXPECT_EQ(executed, 4);
    EXPECT_EQ(coord.episodesIngested(), 4);
    SweepRunner serial;
    const std::size_t h = serial.add(cell);
    serial.run();
    expectIdentical(serial.stats(h), got);
    removeStoreAnyFormat(store);
}

TEST(Coordinator, ResumesFromExistingStoreWithoutReexecution)
{
    // Crash-recovery shape: a serial campaign's store handed to a
    // (restarted) coordinator. Whole, it must satisfy a socket worker
    // with ZERO episodes executed -- the bitmap seeds from disk and the
    // worker gets fin after fetching the stored ledgers. With holes
    // (episodes 1-2 of ledger 0 and episode 1 of ledger 2 missing, the
    // shape a kill mid-flush leaves), the worker must execute exactly
    // those 3 episodes. Either way its stats fold bit-identically and
    // the store ends equal to the serial one.
    const std::string full = "/tmp/create_test_coord_resume_full.json";
    const std::string store = "/tmp/create_test_coord_resume.json";
    removeStoreAnyFormat(full);
    const auto cells = campaignCells(3);
    SweepRunner::Options so;
    so.storePath = full;
    SweepRunner seed(so);
    std::vector<std::size_t> hs;
    for (const auto& c : cells)
        hs.push_back(seed.add(c));
    seed.run();
    std::vector<JsonRecord> fullRecords;
    ASSERT_TRUE(readJsonRecords(full, fullRecords));

    struct Input
    {
        const char* name;
        std::vector<std::string> holes;
        long long executed;
    };
    const Input inputs[] = {
        {"whole store", {}, 0},
        {"store with holes",
         {sweepEpisodeKey(sweepFingerprint(cells[0]), 1),
          sweepEpisodeKey(sweepFingerprint(cells[0]), 2),
          sweepEpisodeKey(sweepFingerprint(cells[2]), 1)},
         3},
    };
    for (const Input& in : inputs) {
        SCOPED_TRACE(in.name);
        removeStoreAnyFormat(store);
        std::vector<JsonRecord> records;
        for (const JsonRecord& r : fullRecords)
            if (std::find(in.holes.begin(), in.holes.end(), r.name) ==
                in.holes.end())
                records.push_back(r);
        ASSERT_EQ(records.size(), fullRecords.size() - in.holes.size());
        ASSERT_TRUE(writeJsonRecords(store, records));

        Coordinator::Options co;
        co.storePath = store; // json store: the coordinator adopts it
        co.once = true;
        Coordinator coord(co);
        std::string error;
        ASSERT_TRUE(coord.start(&error)) << error;
        std::thread serve([&] { coord.runLoop(); });

        std::vector<TaskStats> got;
        long long executed = 0;
        {
            SweepRunner::Options wo;
            wo.connect = "127.0.0.1:" + std::to_string(coord.port());
            SweepRunner worker(wo);
            std::vector<std::size_t> hw;
            for (const auto& c : cells)
                hw.push_back(worker.add(c));
            worker.run();
            executed = worker.episodesExecuted();
            for (const std::size_t h : hw)
                got.push_back(worker.stats(h));
        }
        serve.join();

        EXPECT_EQ(executed, in.executed);
        EXPECT_EQ(coord.episodesIngested(), in.executed);
        if (in.holes.empty())
            EXPECT_EQ(coord.rangesDispatched(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            SCOPED_TRACE(i);
            expectIdentical(seed.stats(hs[i]), got[i]);
        }
        EXPECT_TRUE(diffStores(full, store).clean());
    }
    removeStoreAnyFormat(store);
    removeStoreAnyFormat(full);
}

TEST(Coordinator, DuplicateEpisodeKeepsTheFirstCopyInEitherFormat)
{
    // A straggler finishing a re-dispatched range re-sends episodes the
    // coordinator already stored. The first copy is the one kept: in a
    // json store's rewritten view exactly as in a binlog store's log.
    const std::string fp = "v2|dup|t0|cfg|s0";
    for (const StoreFormat fmt : {StoreFormat::Json, StoreFormat::Binlog}) {
        SCOPED_TRACE(storeFormatName(fmt));
        const std::string store =
            std::string("/tmp/create_test_coord_dup.") + storeFormatName(fmt);
        removeStoreAnyFormat(store);
        Coordinator::Options co;
        co.storePath = store;
        co.storeFormat = fmt;
        Coordinator coord(co);
        std::string error;
        ASSERT_TRUE(coord.start(&error)) << error;
        std::thread serve([&] { coord.runLoop(); });

        CoordClient c;
        ASSERT_TRUE(c.connect("127.0.0.1", coord.port(), "dup:1.1", 3,
                              &error))
            << error;
        std::vector<JsonRecord> copies;
        for (const char* by : {"first", "straggler"}) {
            copies.push_back(makeRecord(sweepEpisodeKey(fp, 0), 1.0));
            copies.back().strings.emplace_back("by", by);
        }
        ASSERT_TRUE(c.send(copies, &error)) << error;
        // The round trip makes sure both copies were ingested.
        EXPECT_EQ(declareAndFetch(c, fp, 1, &error), 1) << error;
        EXPECT_TRUE(c.send(coordwire::control("bye"), &error)) << error;
        coord.stop(); // the close wakes the poll loop to see it
        c.close();
        serve.join();

        std::vector<JsonRecord> records;
        ASSERT_TRUE(openStoreBackend(store, StoreFormat::Json, "reader")
                        ->load(records, nullptr, false));
        const auto ep = std::find_if(
            records.begin(), records.end(), [&](const JsonRecord& r) {
                return r.name == sweepEpisodeKey(fp, 0);
            });
        ASSERT_NE(ep, records.end());
        EXPECT_EQ(ep->text("by"), "first");
        removeStoreAnyFormat(store);
    }
}

TEST(Coordinator, DropsFramesWithMalformedIntegers)
{
    // Every integer the coordinator reads off its socket -- which listens
    // on every interface -- must be checked, not cast: a `need` past the
    // wire limit would size a have-bitmap that large, and a fetch's
    // `need` would size a scan inside the single-threaded poll loop.
    // Malformed frames are dropped (CoordSim.RequestAfterAMalformedNeedParks
    // takes each `need` alone); a fetch scans at most the declared need.
    const std::string store = "/tmp/create_test_coord_crafted.json";
    removeStoreAnyFormat(store);
    const std::string fp = "v2|crafted|t0|cfg|s0";
    Coordinator::Options co;
    co.storePath = store;
    co.storeFormat = StoreFormat::Json;
    Coordinator coord(co);
    std::string error;
    ASSERT_TRUE(coord.start(&error)) << error;
    std::thread serve([&] { coord.runLoop(); });

    CoordClient c;
    ASSERT_TRUE(c.connect("127.0.0.1", coord.port(), "crafted:1.1", 3,
                          &error))
        << error;
    const auto frame = [&](const char* verb, double need) {
        return ledgerControl(verb, fp, {{"need", need}});
    };
    const auto reply = [&](std::vector<JsonRecord> sent) {
        JsonRecord rec;
        sent.push_back(coordwire::control("req"));
        if (!c.send(sent, &error) || !c.recv(rec, &error))
            return std::string("no reply: ") + error;
        return transcribe({rec});
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // The malformed declarations are dropped, so the valid one sizes the
    // range: 2 episodes, not the default quantum of 16.
    std::vector<JsonRecord> needs;
    for (const double bad :
         {nan, -1.0, 0.0, 2.5, coordwire::kMaxWireInt + 1.0, 1e300})
        needs.push_back(frame("need", bad));
    needs.push_back(frame("need", 2));
    EXPECT_EQ(reply(needs), "range " + fp + " 0+2");

    ASSERT_TRUE(c.send({makeRecord(sweepEpisodeKey(fp, 0), 0.0),
                        makeRecord(sweepEpisodeKey(fp, 1), 1.0),
                        frame("fetch", nan), frame("fetch", -3),
                        frame("fetch", coordwire::kMaxWireInt)},
                       &error))
        << error;
    // The two malformed fetches get no reply; the last one gets the two
    // stored episodes, however deep it asked.
    int episodes = 0;
    JsonRecord rec;
    std::string verb;
    while (c.recv(rec, &error) && !coordwire::isControl(rec, &verb))
        ++episodes;
    EXPECT_EQ(verb, "fetched");
    EXPECT_EQ(episodes, 2);
    EXPECT_EQ(reply({coordwire::control("bye")}), "fin"); // nothing else queued
    coord.stop(); // the close wakes the poll loop to see it
    c.close();
    serve.join();
    removeStoreAnyFormat(store);
}

TEST(Coordinator, WorkerDropsMalformedRanges)
{
    // The worker side of the same check, against a scripted coordinator:
    // a range starting before the ledger would land its episodes out of
    // bounds, and NaN or absurd fields are undefined to cast. The worker
    // drops each one and runs only the well-formed range. A `wait` (a
    // verb older coordinators sent, here with a NaN delay) is an unknown
    // verb: the worker asks again at once.
    const SweepCell cell = campaignCells(2)[1];
    const std::string fp = sweepFingerprint(cell);
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), len), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto range = [&](double start, double count) {
        return ledgerControl("range", fp, {{"start", start}, {"count", count}});
    };
    JsonRecord badWait = coordwire::control("wait");
    badWait.numbers.emplace_back("ms", nan);
    // The n-th `req` gets replies[n]; the last one repeats.
    const std::vector<JsonRecord> replies = {
        range(-2, 2),  range(nan, 2),  range(0, nan), range(0, 1e300),
        range(0.5, 1), badWait,        range(0, 2),
        coordwire::control("fin")};
    std::vector<std::pair<double, double>> done;
    std::thread fake([&] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0)
            return;
        std::string out;
        binlog::FrameEncoder::encodeHeader(out);
        binlog::FrameEncoder enc;
        binlog::StreamDecoder dec;
        std::size_t next = 0;
        char buf[65536];
        for (bool open = io::writeFull(fd, out.data(), out.size()); open;) {
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            open = n > 0 && dec.feed(buf, static_cast<std::size_t>(n));
            JsonRecord rec;
            std::string verb;
            while (open && dec.pop(rec)) {
                if (!coordwire::isControl(rec, &verb))
                    continue;
                if (verb == "done")
                    done.emplace_back(rec.number("start"),
                                      rec.number("count"));
                if (verb != "req")
                    continue;
                out.clear();
                enc.encodeRecord(
                    replies[std::min(next++, replies.size() - 1)], out);
                open = io::writeFull(fd, out.data(), out.size());
            }
        }
        ::close(fd);
    });
    long long executed = 0;
    {
        SweepRunner::Options wo;
        wo.connect = "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
        SweepRunner worker(wo);
        worker.add(cell);
        worker.run();
        executed = worker.episodesExecuted();
    } // bye, and the connection closes: the scripted coordinator returns
    fake.join();
    ::close(lfd);
    EXPECT_EQ(executed, 2);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], std::make_pair(0.0, 2.0));
}

TEST(Coordinator, ScriptedSessionMatchesItsTranscript)
{
    // Raw clients driven from one thread, so every dispatch decision is
    // deterministic: a worker that runs a range and part of the next,
    // a second worker joining mid-way, the first closing without `bye`
    // (its range re-pooled), a third whose only ledger is all in flight
    // (its request parks, and the episode that completes the ledger
    // pushes its `fin`), `fin` scoped to what each declared, and
    // fetches. No timeout fires, so the transcript pins the protocol's
    // decisions exactly. The stop() from this thread races the poll loop
    // on purpose (a TSan target).
    const std::string store = "/tmp/create_test_coord_script." +
                              std::to_string(::getpid()) + ".blog";
    removeStoreAnyFormat(store);
    const std::string big = "big", tiny = "tiny";
    Coordinator::Options co;
    co.storePath = store;
    co.storeFormat = StoreFormat::Binlog;
    co.rangeEpisodes = 4;
    Coordinator coord(co);
    std::string error;
    ASSERT_TRUE(coord.start(&error)) << error;
    std::thread serve([&] { coord.runLoop(); });

    std::string transcript;
    const auto need = [](const std::string& fp, int n) {
        return ledgerControl("need", fp, {{"need", n}});
    };
    // Send `recs` and then a `req` (or a fetch of `fetchFp`).
    const auto post = [&](CoordClient& c, std::vector<JsonRecord> recs,
                          const std::string& fetchFp = "") {
        recs.push_back(fetchFp.empty()
                           ? coordwire::control("req")
                           : ledgerControl("fetch", fetchFp, {{"need", 100}}));
        EXPECT_TRUE(c.send(recs, &error)) << error;
    };
    // Read up to the next control frame; log the frames and return it.
    const auto read = [&](CoordClient& c, const char* who) {
        std::vector<JsonRecord> frames(1);
        std::string verb;
        while (c.recv(frames.back(), &error) &&
               !coordwire::isControl(frames.back(), &verb))
            frames.emplace_back();
        transcript += std::string(who) + " " + transcribe(frames) + "\n";
        return frames.back();
    };
    const auto ask = [&](CoordClient& c, const char* who,
                         std::vector<JsonRecord> recs,
                         const std::string& fetchFp = "") {
        post(c, std::move(recs), fetchFp);
        return read(c, who);
    };
    // The first `count` episodes of `range` (all of it by default), and
    // its `done` when they are all of it.
    const auto run = [](const JsonRecord& range, int count = -1) {
        std::vector<JsonRecord> recs;
        std::string verb;
        if (!coordwire::isControl(range, &verb) || verb != "range")
            return recs;
        const std::string fp = range.text("fp");
        const int start = coordwire::wireInt(range, "start");
        const int all = coordwire::wireInt(range, "count");
        for (int i = start; i < start + (count < 0 ? all : count); ++i)
            recs.push_back(makeRecord(sweepEpisodeKey(fp, i), i));
        if (count < 0)
            recs.push_back(ledgerControl("done", fp,
                                         {{"start", start}, {"count", all}}));
        return recs;
    };

    CoordClient a, b, c;
    ASSERT_TRUE(a.connect("127.0.0.1", coord.port(), "a:1.1", 3, &error));
    JsonRecord ra = ask(a, "a", {need(big, 10), need(tiny, 2)});
    ra = ask(a, "a", run(ra));
    // Half of a's second range lands before b joins: a's frames were
    // sent before b connected, so b's first request follows all of them.
    ASSERT_TRUE(a.send(run(ra, 2), &error)) << error;
    ASSERT_TRUE(b.connect("127.0.0.1", coord.port(), "b:1.1", 3, &error));
    JsonRecord rb = ask(b, "b", {need(big, 10), need(tiny, 2)});
    // a closes without `bye`. Its EOF is queued before c connects, and a
    // precedes c in the poll order: c's first request follows the close.
    a.close();
    ASSERT_TRUE(c.connect("127.0.0.1", coord.port(), "c:1.1", 3, &error));
    JsonRecord rc = ask(c, "c", {need(big, 10)});
    rb = ask(b, "b", run(rb));
    // c runs a's re-pooled range and asks again while b holds big's last
    // episode: nothing answers, and its request parks. c's fetch is
    // answered, so the coordinator has read that request before b's
    // episode completes big and pushes c's `fin`.
    post(c, run(rc));
    ask(c, "c", {}, big);
    rb = ask(b, "b", run(rb));
    read(c, "c");
    std::string verb;
    for (int turn = 0; turn < 20; ++turn) {
        if (coordwire::isControl(rb, &verb) && verb == "fin")
            break;
        rb = ask(b, "b", run(rb));
    }
    ask(b, "b", {}, big);
    ask(b, "b", {}, tiny);
    ask(c, "c", {}, tiny);
    for (CoordClient* cl : {&b, &c})
        EXPECT_TRUE(cl->send(coordwire::control("bye"), &error)) << error;
    coord.stop(); // the closes below wake the poll loop to see it
    b.close();
    c.close();
    serve.join();
    EXPECT_EQ(transcript, "a range big 0+4\n"
                          "a range big 4+4\n"
                          "b range big 8+1\n"
                          "c range big 6+2\n" // a's range, re-pooled
                          "b range big 9+1\n"
                          "c fetched 9\n" // c's request parked: b holds 9
                          "b range tiny 0+1\n"
                          "c fin\n" // pushed by b's episode 9
                          "b range tiny 1+1\n"
                          "b fin\n"
                          "b fetched 10\n"
                          "b fetched 2\n"
                          "c fetched 2\n");
    EXPECT_EQ(coord.rangesRedispatched(), 1);
    removeStoreAnyFormat(store);
}

// ------------------------------------------------------------ simulator

namespace sim {

/** Where the simulator's store would live; it is never opened, and never
 *  published, so nothing is read or written. */
const char* const kNoStore = "/nonexistent/create-coord-sim.json";

/** The simulated range timeout, and the rejoin window a --once
 *  coordinator owes a worker that dropped without `bye` (2 s, as the
 *  README documents), in seconds. */
constexpr double kTimeout = 0.5;
constexpr double kRejoinWindow = 2.0;

/** What a worker does with a range it was handed: runs it; runs it with
 *  every episode delivered twice, in reverse; is killed after half of
 *  it, without `bye` (a reset: it reconnects at once) or with it (a
 *  clean exit: it may come back later); or sits on it past its timeout
 *  and delivers it later, as a straggler. */
enum class Fate { Complete, Duplicate, Kill, Quit, Hang };
constexpr Fate kFates[] = {Fate::Complete, Fate::Duplicate, Fate::Kill,
                           Fate::Quit, Fate::Hang};

/** A range as the simulator tracks it: handed to `conn` at `since`. */
struct Range
{
    std::string fp;
    int start = 0;
    int count = 0;
    int conn = -1;
    double since = 0.0;
};

/** One virtual worker. */
struct Worker
{
    std::string id;
    /** (fp, need) declared on every connect, and one later, deeper
     *  declaration (an empty fp: none). */
    std::vector<std::pair<std::string, int>> needs;
    std::pair<std::string, int> deeper;
    int conn = -1;       //!< the open connection, or -1
    bool bye = false;    //!< left with `bye`: a clean exit, not a reset
    bool parked = false; //!< asked, and no frame has come since
    bool fin = false;
    /** The held range has waited a move: its fate is next. */
    bool waited = false;
    std::set<std::string> declared; //!< on the open connection
    std::vector<Range> held;        //!< handed; its fate is to come
    std::vector<Range> hung;        //!< sat on, to be delivered late
};

/** One step of a run: a worker's, or the clock's (`Sleep`). */
struct Move
{
    enum Kind { Ask, Decide, Straggle, Rejoin, Deepen, Sleep } kind;
    int worker;
    Fate fate;
};

/**
 * Virtual workers driving a CoordCore on a virtual clock. Every frame
 * the core sends goes to the worker on its connection. Each event is
 * checked against the protocol's safety properties as it happens, and
 * drain() runs the campaign to its end and checks the liveness ones.
 * The first property broken is kept in failure().
 */
class Sim
{
  public:
    Sim(int rangeEpisodes, std::vector<Worker> workers)
        : store_(kNoStore, StoreFormat::Json, "sim", "sim"),
          core_(options(rangeEpisodes), store_, now_),
          workers_(std::move(workers))
    {
        for (Worker& w : workers_)
            connect(w);
    }

    const std::string& failure() const { return failure_; }
    long long redispatched() const { return core_.rangesRedispatched(); }

    /** The steps enabled now (none once the core ended or failed). A
     *  range handed out may wait one move for its fate -- one in which
     *  another worker asks and parks, or leaves -- and its fate is then
     *  the next move. The clock stands still while a range is held. */
    std::vector<Move> moves() const
    {
        std::vector<Move> out;
        out.reserve(16);
        if (finished_ || !failure_.empty())
            return out;
        for (std::size_t i = 0; i < workers_.size(); ++i)
            if (workers_[i].waited) {
                for (const Fate f : kFates)
                    out.push_back({Move::Decide, static_cast<int>(i), f});
                return out;
            }
        bool reset = false, held = false;
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            const Worker& w = workers_[i];
            const int wi = static_cast<int>(i);
            if (w.conn < 0) {
                out.push_back({Move::Rejoin, wi, Fate::Complete});
                reset = reset || !w.bye;
                continue;
            }
            if (!w.held.empty()) {
                held = true;
                for (const Fate f : kFates)
                    out.push_back({Move::Decide, wi, f});
            } else if (!w.fin && !w.parked) {
                out.push_back({Move::Ask, wi, Fate::Complete});
            }
            if (!w.deeper.first.empty())
                out.push_back({Move::Deepen, wi, Fate::Complete});
            if (!w.hung.empty() && now_ - w.hung[0].since > kTimeout)
                out.push_back({Move::Straggle, wi, Fate::Complete});
        }
        // A reset worker reconnects at once: the clock moves on only
        // when none is pending, and only when a range is outstanding.
        if (!reset && !held && !live_.empty())
            out.push_back({Move::Sleep, -1, Fate::Complete});
        return out;
    }

    void apply(const Move& m)
    {
        std::vector<bool> held(workers_.size());
        for (std::size_t i = 0; i < workers_.size(); ++i)
            held[i] = !workers_[i].held.empty();
        now_ += m.kind == Move::Sleep ? kTimeout : 0.001;
        if (m.kind != Move::Sleep) {
            Worker& w = workers_[static_cast<std::size_t>(m.worker)];
            switch (m.kind) {
            case Move::Ask: ask(w); break;
            case Move::Decide: decide(w, m.fate); break;
            case Move::Straggle: straggle(w); break;
            case Move::Rejoin: connect(w); break;
            case Move::Deepen: deepen(w); break;
            case Move::Sleep: break;
            }
        }
        for (std::size_t i = 0; i < workers_.size(); ++i)
            workers_[i].waited = held[i] && !workers_[i].held.empty();
        tick();
    }

    /**
     * Run the campaign to its end: undecided ranges complete, everyone
     * who left comes back, and the fleet asks until each worker has
     * `fin`; the clock moves on only while every unfinished worker is
     * parked. Stragglers then land, and `fin` must hold. The fleet
     * leaves, the last worker without `bye` (a reset cutting its final
     * fetch): the --once core must hold its rejoin window open while
     * that worker comes back, fetches its ledgers whole and leaves, then
     * end once the window passes. Last, the store must hold every needed
     * episode exactly once.
     */
    void drain()
    {
        if (finished_) // every worker left with `bye`: an earned end
            return checkStore();
        for (int round = 0; failure_.empty() && !finished_; ++round) {
            if (round == 200)
                return fail("a worker never got fin");
            bool all = true;
            for (Worker& w : workers_) {
                while (!w.held.empty())
                    decide(w, Fate::Complete);
                if (w.conn < 0)
                    connect(w);
                if (!w.deeper.first.empty())
                    deepen(w);
                if (w.fin)
                    continue;
                all = false;
                if (!w.parked)
                    ask(w);
            }
            if (all)
                break;
            if (std::all_of(workers_.begin(), workers_.end(),
                            [](const Worker& w) { return w.fin || w.parked; })) {
                now_ += kTimeout / 4;
                tick();
            }
        }
        for (Worker& w : workers_) {
            straggle(w);
            if (ask(w) != "fin")
                fail(w.id + " lost fin to a straggler");
        }
        if (!failure_.empty() || finished_)
            return;
        for (std::size_t i = 0; i + 1 < workers_.size(); ++i)
            leave(workers_[i], true);
        Worker& last = workers_.back();
        leave(last, false);
        for (int k = 0; k < 2; ++k) {
            now_ += 0.25;
            tick();
        }
        if (finished_)
            return; // tick() reported the early end
        connect(last);
        if (ask(last) != "fin")
            fail(last.id + " rejoined and got no fin");
        for (const auto& [fp, need] : last.needs)
            fetch(last, fp, need);
        leave(last, true);
        while (!finished_ && now_ < lastReset_ + kRejoinWindow + 0.25) {
            now_ += 0.25;
            tick();
        }
        if (!finished_)
            fail("the complete --once campaign outlived its rejoin window");
        checkStore();
    }

  private:
    static CoordOptions options(int rangeEpisodes)
    {
        CoordOptions opt;
        opt.rangeEpisodes = rangeEpisodes;
        opt.rangeTimeoutSeconds = kTimeout;
        opt.once = true;
        return opt;
    }

    void fail(const std::string& why)
    {
        if (failure_.empty())
            failure_ = why + " (t=" + std::to_string(now_) + ")";
    }

    bool stored(const std::string& fp, int i) const
    {
        return store_.records().count(sweepEpisodeKey(fp, i)) > 0;
    }

    bool complete(const std::string& fp) const
    {
        const auto it = maxNeed_.find(fp);
        for (int i = 0; it != maxNeed_.end() && i < it->second; ++i)
            if (!stored(fp, i))
                return false;
        return true;
    }

    /** The core's expiry, mirrored: a range of an incomplete ledger
     *  outstanding longer than the timeout is live no more. The core
     *  expires at each dispatch -- every `req`, and every event that
     *  ends with a parked request -- and only a parked request can tell
     *  an unexpired range from an expired one, so the mirror expires at
     *  every event. */
    void expire()
    {
        live_.erase(std::remove_if(live_.begin(), live_.end(),
                                   [&](const Range& r) {
                                       return now_ - r.since > kTimeout &&
                                              !complete(r.fp);
                                   }),
                    live_.end());
    }

    /** Deliver `rec` from `w`; returns the frames sent to `w`. */
    std::vector<JsonRecord> send(Worker& w, JsonRecord rec)
    {
        std::string verb;
        coordwire::isControl(rec, &verb);
        expire();
        if (verb == "done")
            for (auto r = live_.begin(); r != live_.end(); ++r)
                if (r->conn == w.conn && r->fp == rec.text("fp") &&
                    r->start == coordwire::wireInt(rec, "start") &&
                    r->count == coordwire::wireInt(rec, "count")) {
                    live_.erase(r);
                    break;
                }
        std::vector<CoordCore::Frame> out;
        core_.receive(w.conn, std::move(rec), now_, out);
        return route(out, w.conn);
    }

    /** Hand each frame to the worker on its connection (a range is
     *  checked as it is handed out); returns those sent to `conn`. */
    std::vector<JsonRecord> route(std::vector<CoordCore::Frame>& out,
                                  int conn = -1)
    {
        std::vector<JsonRecord> mine;
        for (CoordCore::Frame& f : out) {
            const auto w =
                std::find_if(workers_.begin(), workers_.end(),
                             [&](const Worker& x) { return x.conn == f.conn; });
            if (w == workers_.end()) {
                fail("a frame was sent to closed connection " +
                     std::to_string(f.conn));
                continue;
            }
            std::string verb;
            coordwire::isControl(f.rec, &verb);
            w->parked = false;
            w->fin = w->fin || verb == "fin";
            if (verb == "range") {
                checkRange(*w, f.rec);
                w->held.push_back(live_.back()); // checkRange's record
            }
            if (f.conn == conn)
                mine.push_back(std::move(f.rec));
        }
        checkParked();
        return mine;
    }

    /** No worker is parked while an episode of a ledger it declared is
     *  neither stored nor in a live range, or once every ledger it
     *  declared is complete: the event that frees work answers it. */
    void checkParked()
    {
        for (const Worker& w : workers_) {
            if (!w.parked)
                continue;
            bool missing = false;
            for (const std::string& fp : w.declared)
                for (int i = 0; i < maxNeed_.at(fp); ++i) {
                    if (stored(fp, i))
                        continue;
                    missing = true;
                    if (std::none_of(live_.begin(), live_.end(),
                                     [&](const Range& r) {
                                         return r.fp == fp && i >= r.start &&
                                                i < r.start + r.count;
                                     }))
                        return fail(w.id + " is parked while " +
                                    sweepEpisodeKey(fp, i) + " is free");
                }
            if (!missing && !w.declared.empty())
                return fail(w.id + " is parked with its ledgers complete");
        }
    }

    void checkRange(const Worker& w, const JsonRecord& r)
    {
        const Range got{r.text("fp"), coordwire::wireInt(r, "start"),
                        coordwire::wireInt(r, "count"), w.conn, now_};
        const auto what = [&] {
            return got.fp + " [" + std::to_string(got.start) + ", +" +
                   std::to_string(got.count) + ")";
        };
        if (!w.declared.count(got.fp))
            fail(w.id + " was sent " + what() + ", a ledger it never declared");
        if (got.start < 0 || got.count < 1 ||
            got.start + got.count > maxNeed_[got.fp])
            fail(what() + " reaches past the deepest need declared");
        for (int i = got.start; i < got.start + got.count; ++i)
            if (stored(got.fp, i))
                fail(what() + " re-runs a stored episode");
        for (const Range& l : live_)
            if (l.fp == got.fp && got.start < l.start + l.count &&
                l.start < got.start + got.count)
                fail(what() + " overlaps a live assignment");
        live_.push_back(got);
    }

    /** Ask for a range: the verb that answers at once, or "" when the
     *  request parks. */
    std::string ask(Worker& w)
    {
        const std::vector<JsonRecord> got =
            send(w, coordwire::control("req"));
        std::string verb;
        if (!got.empty())
            coordwire::isControl(got.back(), &verb);
        w.parked = got.empty();
        checkParked();
        return verb;
    }

    void episodes(Worker& w, const Range& r, int n, bool twice)
    {
        for (int k = 0; k < n; ++k) {
            const int i = twice ? r.start + r.count - 1 - k : r.start + k;
            for (int copy = 0; copy < (twice ? 2 : 1); ++copy) {
                JsonRecord ep;
                ep.name = sweepEpisodeKey(r.fp, i);
                send(w, std::move(ep));
            }
        }
    }

    void deliver(Worker& w, const Range& r, bool twice)
    {
        episodes(w, r, r.count, twice);
        send(w, ledgerControl("done", r.fp,
                              {{"start", r.start}, {"count", r.count}}));
    }

    void decide(Worker& w, Fate fate)
    {
        const Range r = w.held.back();
        w.held.pop_back();
        switch (fate) {
        case Fate::Complete:
        case Fate::Duplicate:
            deliver(w, r, fate == Fate::Duplicate);
            break;
        case Fate::Kill:
        case Fate::Quit:
            episodes(w, r, (r.count + 1) / 2, false);
            leave(w, fate == Fate::Quit);
            break;
        case Fate::Hang:
            w.hung.push_back(r);
            break;
        }
    }

    void straggle(Worker& w)
    {
        for (const Range& r : w.hung)
            deliver(w, r, false);
        w.hung.clear();
    }

    void declare(Worker& w, const std::string& fp, int need)
    {
        w.declared.insert(fp);
        maxNeed_[fp] = std::max(maxNeed_[fp], need);
        send(w, ledgerControl("need", fp, {{"need", need}}));
    }

    void connect(Worker& w)
    {
        w.conn = nextConn_++;
        w.bye = w.fin = false;
        core_.open(w.conn);
        JsonRecord hello = coordwire::control("hello");
        hello.strings.emplace_back("worker", w.id);
        send(w, std::move(hello));
        for (const auto& [fp, need] : w.needs)
            declare(w, fp, need);
    }

    void deepen(Worker& w)
    {
        const auto [fp, need] = w.deeper;
        w.deeper = {};
        for (auto& n : w.needs)
            if (n.first == fp)
                n.second = need;
        declare(w, fp, need);
        w.fin = false;
    }

    void leave(Worker& w, bool bye)
    {
        if (bye)
            send(w, coordwire::control("bye"));
        const int conn = w.conn;
        live_.erase(std::remove_if(live_.begin(), live_.end(),
                                   [&](const Range& r) {
                                       return r.conn == conn;
                                   }),
                    live_.end());
        if (!bye)
            lastReset_ = now_;
        w.conn = -1;
        w.bye = bye;
        w.parked = w.fin = false;
        w.declared.clear();
        w.held.clear();
        w.hung.clear();
        expire();
        std::vector<CoordCore::Frame> out;
        core_.close(conn, bye ? "bye" : "reset", now_, out);
        route(out);
    }

    void fetch(Worker& w, const std::string& fp, int need)
    {
        int got = 0;
        bool fetched = false;
        for (const JsonRecord& r :
             send(w, ledgerControl("fetch", fp, {{"need", need}}))) {
            if (coordwire::isControl(r))
                fetched = true;
            else if (r.name == sweepEpisodeKey(fp, got))
                ++got;
        }
        if (!fetched || got != need)
            fail(w.id + " fetched " + std::to_string(got) + " of " + fp +
                 "'s " + std::to_string(need) + " episodes");
    }

    /** The core's tick; a --once end must be earned. */
    void tick()
    {
        if (finished_)
            return;
        expire();
        std::vector<CoordCore::Frame> out;
        const bool over = core_.tick(now_, out);
        route(out);
        if (!over)
            return;
        finished_ = true;
        for (const auto& [fp, need] : maxNeed_)
            if (!complete(fp))
                fail("--once ended with " + fp + " incomplete");
        for (const Worker& w : workers_)
            if (w.conn >= 0)
                fail("--once ended under " + w.id + "'s open connection");
        if (now_ < lastReset_ + kRejoinWindow)
            fail("--once ended inside a reset worker's rejoin window");
    }

    /** Every needed episode stored, each exactly once, and no other. */
    void checkStore()
    {
        std::size_t want = 0, episodes = 0;
        for (const auto& [fp, need] : maxNeed_) {
            want += static_cast<std::size_t>(need);
            for (int i = 0; i < need; ++i)
                if (!stored(fp, i))
                    fail(sweepEpisodeKey(fp, i) + " was never stored");
        }
        for (const auto& [name, rec] : store_.records())
            episodes += sweepEpisodeIndex(name, nullptr) >= 0;
        if (episodes != want)
            fail("an episode past every declared need was stored");
        if (store_.queued() != store_.records().size())
            fail("a record was stored twice");
    }

    double now_ = 0.0;
    ResultStore store_;
    CoordCore core_;
    std::vector<Worker> workers_;
    std::map<std::string, int> maxNeed_; //!< deepest need declared
    std::vector<Range> live_; //!< the core's live assignments, mirrored
    int nextConn_ = 0;
    double lastReset_ = -1e9; //!< last close without `bye`
    bool finished_ = false;
    std::string failure_;
};

/** Run every sequence of up to `depth` moves from `make()`, each then
 *  drained; returns the runs, stopping at the first failure. */
template <class Make>
long long
explore(const Make& make, std::size_t depth, std::string* failure)
{
    std::vector<std::size_t> path, widths;
    for (long long runs = 1;; ++runs) {
        Sim sim = make();
        widths.clear();
        for (std::size_t k = 0; sim.failure().empty(); ++k) {
            const std::vector<Move> moves = sim.moves();
            if (k == path.size()) {
                if (moves.empty() || k == depth)
                    break;
                path.push_back(0);
            }
            widths.push_back(moves.size());
            sim.apply(moves[path[k]]);
        }
        if (sim.failure().empty())
            sim.drain();
        if (!sim.failure().empty()) {
            *failure = sim.failure() + "; moves";
            for (const std::size_t p : path)
                *failure += " " + std::to_string(p);
            return runs;
        }
        while (!path.empty() && path.back() + 1 >= widths[path.size() - 1])
            path.pop_back();
        if (path.empty())
            return runs;
        ++path.back();
    }
}

/** A CoordCore over a store that is never opened (holding `stored`),
 *  for scripted tests: a fixed sequence of events, each at `now`. */
struct Rig
{
    Rig(int rangeEpisodes, bool once, std::vector<JsonRecord> stored = {})
    {
        for (JsonRecord& r : stored)
            store.put(std::move(r));
        CoordOptions opt;
        opt.rangeEpisodes = rangeEpisodes;
        opt.once = once;
        core = std::make_unique<CoordCore>(opt, store, now);
    }

    /** `out` transcribed, each line prefixed by its connection. */
    static std::string transcript(const std::vector<CoordCore::Frame>& out)
    {
        std::string lines;
        std::vector<JsonRecord> frames; // up to the next control frame
        for (const CoordCore::Frame& f : out) {
            frames.push_back(f.rec);
            if (!coordwire::isControl(f.rec))
                continue;
            lines += (lines.empty() ? "" : "\n") + std::to_string(f.conn) +
                     " " + transcribe(frames);
            frames.clear();
        }
        return lines;
    }

    /** `rec` from `conn`; the frames sent, transcribed. */
    std::string send(int conn, JsonRecord rec)
    {
        std::vector<CoordCore::Frame> out;
        core->receive(conn, std::move(rec), now, out);
        return transcript(out);
    }

    std::string ask(int conn) { return send(conn, coordwire::control("req")); }

    void connect(int conn, const std::string& worker, const std::string& fp,
                 int need)
    {
        core->open(conn);
        JsonRecord hello = coordwire::control("hello");
        hello.strings.emplace_back("worker", worker);
        send(conn, std::move(hello));
        send(conn, ledgerControl("need", fp, {{"need", need}}));
    }

    /** Episodes [start, start + count) of `fp` and their `done`. */
    void run(int conn, const std::string& fp, int start, int count)
    {
        for (int i = start; i < start + count; ++i)
            send(conn, makeRecord(sweepEpisodeKey(fp, i), i));
        send(conn,
             ledgerControl("done", fp, {{"start", start}, {"count", count}}));
    }

    std::string fetch(int conn, const std::string& fp, int need)
    {
        return send(conn, ledgerControl("fetch", fp, {{"need", need}}));
    }

    /** `conn` closes; the frames sent, transcribed. */
    std::string leave(int conn, bool bye)
    {
        if (bye)
            send(conn, coordwire::control("bye"));
        std::vector<CoordCore::Frame> out;
        core->close(conn, bye ? "bye" : "reset", now, out);
        return transcript(out);
    }

    /** The core's tick at `t`: true when a --once campaign is over. The
     *  frames sent, transcribed, go to `sent`. */
    bool tick(double t, std::string* sent = nullptr)
    {
        std::vector<CoordCore::Frame> out;
        const bool over = core->tick(t, out);
        if (sent)
            *sent = transcript(out);
        return over;
    }

    double now = 0.0;
    ResultStore store{kNoStore, StoreFormat::Json, "sim", "sim"};
    std::unique_ptr<CoordCore> core;
};

} // namespace sim

TEST(CoordSim, ExhaustiveAtSmallScope)
{
    // Two workers and two ledgers a and b, every pair of needs up to 4,
    // ranges of 2, in three scopes: both workers declare both ledgers;
    // the second declares only b; or both declare a shallower and the
    // second deepens it later. Every sequence of up to kDepth moves --
    // asks, the five fates of each range handed out, stragglers,
    // rejoins, the deeper declaration, and sleeps past the timeout -- is
    // run and drained. The configurations are independent, so up to
    // four threads share them.
    constexpr std::size_t kDepth = 5;
    std::vector<std::vector<sim::Worker>> configs;
    std::vector<std::string> names;
    for (int na = 1; na <= 4; ++na)
        for (int nb = 1; nb <= 4; ++nb)
            for (int scope = 0; scope < 3; ++scope) {
                const int sa = scope == 2 ? (na + 1) / 2 : na;
                if (scope == 2 && sa == na)
                    continue; // nothing to deepen
                std::vector<sim::Worker> ws(2);
                ws[0].id = "w0";
                ws[0].needs = {{"a", sa}, {"b", nb}};
                ws[1].id = "w1";
                ws[1].needs = ws[0].needs;
                if (scope == 1)
                    ws[1].needs = {{"b", nb}};
                if (scope == 2)
                    ws[1].deeper = {"a", na};
                configs.push_back(std::move(ws));
                names.push_back("a=" + std::to_string(na) +
                                " b=" + std::to_string(nb) + " scope " +
                                std::to_string(scope));
            }
    const auto t0 = std::chrono::steady_clock::now();
    testing::internal::CaptureStderr(); // one line per range timeout
    std::atomic<std::size_t> next{0};
    std::atomic<long long> runs{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::string failure;
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t)
        pool.emplace_back([&] {
            for (std::size_t c; !failed && (c = next++) < configs.size();) {
                std::string f;
                runs += sim::explore(
                    [&] { return sim::Sim(2, configs[c]); }, kDepth, &f);
                std::lock_guard<std::mutex> lock(mu);
                if (!f.empty() && !failed.exchange(true))
                    failure = names[c] + ": " + f;
            }
        });
    for (std::thread& t : pool)
        t.join();
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(failure, "");
    std::printf("[sim] %lld runs of %zu configurations in %.3f s\n",
                runs.load(), configs.size(),
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
}

TEST(CoordSim, RandomizedBeyondTheScope)
{
    // Three workers and three ledgers of up to 24 episodes; each worker
    // declares a random subset at random depths, one of them deepens a
    // ledger later, and ranges hold 1 to 6 episodes: 300 seeds of 80
    // random moves, each then drained.
    testing::internal::CaptureStderr(); // one line per range timeout
    long long redispatched = 0;
    std::string failure;
    for (std::uint32_t seed = 1; seed <= 300 && failure.empty(); ++seed) {
        std::mt19937 rng(seed);
        const auto pick = [&rng](int lo, int hi) {
            return std::uniform_int_distribution<int>(lo, hi)(rng);
        };
        const std::string fps[] = {"a", "b", "c"};
        std::vector<sim::Worker> ws(3);
        for (std::size_t w = 0; w < ws.size(); ++w) {
            ws[w].id = "w" + std::to_string(w);
            for (int l = 0; l < 3; ++l)
                if (pick(0, 2) > 0 || (l == 2 && ws[w].needs.empty()))
                    ws[w].needs.emplace_back(fps[l], pick(1, 24));
        }
        sim::Worker& deep = ws[static_cast<std::size_t>(pick(0, 2))];
        deep.deeper = {deep.needs[0].first,
                       deep.needs[0].second + pick(1, 8)};
        sim::Sim sim(pick(1, 6), ws);
        for (int step = 0; step < 80; ++step) {
            const std::vector<sim::Move> moves = sim.moves();
            if (moves.empty())
                break;
            sim.apply(moves[static_cast<std::size_t>(
                pick(0, static_cast<int>(moves.size()) - 1))]);
        }
        sim.drain();
        redispatched += sim.redispatched();
        if (!sim.failure().empty())
            failure = "seed " + std::to_string(seed) + ": " + sim.failure();
    }
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(failure, "");
    EXPECT_GT(redispatched, 0); // kills and hangs did re-pool ranges
}

TEST(CoordSim, RedispatchesADeserter)
{
    // A deserter takes a range and drops without a word. The range goes
    // back to the pool at once -- it is the next worker's first -- and
    // the telemetry charges the re-dispatch to the deserter, so every
    // range assigned was completed or re-dispatched.
    sim::Rig rig(2, false);
    rig.connect(0, "deserter", "a", 4);
    EXPECT_EQ(rig.ask(0), "0 range a 0+2");
    EXPECT_EQ(rig.leave(0, false), "");
    EXPECT_EQ(rig.core->rangesRedispatched(), 1);
    rig.connect(1, "worker", "a", 4);
    EXPECT_EQ(rig.ask(1), "1 range a 0+2");
    rig.run(1, "a", 0, 2);
    EXPECT_EQ(rig.ask(1), "1 range a 2+2");
    rig.run(1, "a", 2, 2);
    EXPECT_EQ(rig.ask(1), "1 fin");
    rig.core->putTelemetry();
    const auto& view = rig.store.records();
    const JsonRecord& d = view.at(sweepWorkerKey("deserter"));
    const JsonRecord& w = view.at(sweepWorkerKey("worker"));
    EXPECT_EQ(d.number("rangesAssigned"), 1.0);
    EXPECT_EQ(d.number("rangesRedispatched"), 1.0);
    EXPECT_EQ(d.number("rangesCompleted"), 0.0);
    EXPECT_EQ(w.number("rangesAssigned"), 2.0);
    EXPECT_EQ(w.number("rangesCompleted"), 2.0);
    EXPECT_EQ(w.number("episodes"), 4.0);
}

TEST(CoordSim, OnceWaitsForAWorkerThatDroppedWithoutBye)
{
    // A reset that cuts a worker's final fetch looks like a close, and
    // the campaign is complete. A --once core holds the 2 s rejoin
    // window open for that worker even after every other worker said
    // `bye` -- and the worker comes back to fetch -- while a fleet that
    // all said `bye` costs nothing.
    for (const bool reset : {false, true}) {
        SCOPED_TRACE(reset ? "reset" : "bye");
        sim::Rig rig(16, true);
        rig.connect(0, "w0", "a", 1);
        rig.connect(1, "w1", "a", 1);
        EXPECT_EQ(rig.ask(0), "0 range a 0+1");
        rig.run(0, "a", 0, 1);
        EXPECT_EQ(rig.ask(1), "1 fin");
        rig.leave(0, true);
        rig.now = 1.0;
        rig.leave(1, !reset);
        EXPECT_EQ(rig.tick(1.0), !reset);
        if (!reset)
            continue;
        EXPECT_FALSE(rig.tick(1.5));
        rig.now = 1.5;
        rig.connect(2, "w1", "a", 1);
        EXPECT_EQ(rig.fetch(2, "a", 1), "2 fetched 1");
        rig.leave(2, true);
        EXPECT_FALSE(rig.tick(2.99)); // the window runs from 1.0
        EXPECT_TRUE(rig.tick(3.0));
    }
}

TEST(CoordSim, RestartedOnceCoreWaitsForItsFleet)
{
    // A --once coordinator killed near the end of a campaign restarts on
    // its store with the campaign all but done. Its fleet reconnects one
    // worker at a time -- the last one may be asleep in connectRetry's
    // backoff -- so the first worker back finishing the campaign and
    // saying `bye` must not end the restart under the rest: `worker|`
    // telemetry in the store holds a 4 s window open (twice the 2 s
    // backoff cap). A store no fleet wrote gets no window.
    for (const bool fleet : {false, true}) {
        SCOPED_TRACE(fleet ? "fleet store" : "local store");
        std::vector<JsonRecord> stored = {makeRecord("v2|r#0", 0.0),
                                          makeRecord("v2|r#1", 1.0)};
        if (fleet)
            stored.push_back(makeRecord(sweepWorkerKey("a:1.1"), 0.0));
        sim::Rig rig(16, true, stored);
        rig.connect(0, "a:1.1", "v2|r", 2);
        EXPECT_EQ(rig.fetch(0, "v2|r", 2), "0 fetched 2");
        EXPECT_EQ(rig.ask(0), "0 fin");
        rig.leave(0, true);
        EXPECT_EQ(rig.tick(0.1), !fleet);
        if (!fleet)
            continue;
        EXPECT_FALSE(rig.tick(3.99));
        EXPECT_TRUE(rig.tick(4.0));
    }
}

TEST(CoordSim, ParkedRequestIsAnsweredByTheEventThatFreesWork)
{
    // w0 holds all of ledger a when w1 asks: no frame answers, and w1's
    // request parks. Each event that frees work answers it within that
    // same event: the episode that completes the ledger sends `fin`; the
    // holder's reset and the holder's timeout send the re-pooled range;
    // a deeper need, declared by another worker, sends a range of the
    // new episodes.
    const auto parked = [](sim::Rig& rig) {
        rig.connect(0, "w0", "a", 2);
        EXPECT_EQ(rig.ask(0), "0 range a 0+2");
        rig.connect(1, "w1", "a", 2);
        EXPECT_EQ(rig.ask(1), "");
    };
    {
        SCOPED_TRACE("the episode that completes the last range");
        sim::Rig rig(2, false);
        parked(rig);
        EXPECT_EQ(rig.send(0, makeRecord(sweepEpisodeKey("a", 0), 0.0)), "");
        EXPECT_EQ(rig.send(0, makeRecord(sweepEpisodeKey("a", 1), 1.0)),
                  "1 fin");
    }
    {
        SCOPED_TRACE("the holder's reset");
        sim::Rig rig(2, false);
        parked(rig);
        EXPECT_EQ(rig.leave(0, false), "1 range a 0+2");
    }
    {
        SCOPED_TRACE("the holder's timeout");
        sim::Rig rig(2, false);
        parked(rig);
        std::string sent;
        testing::internal::CaptureStderr(); // the timeout's log line
        EXPECT_FALSE(rig.tick(30.0, &sent)); // the default 30 s timeout
        EXPECT_EQ(sent, "");
        EXPECT_FALSE(rig.tick(30.5, &sent));
        testing::internal::GetCapturedStderr();
        EXPECT_EQ(sent, "1 range a 0+1"); // w0 is still connected
    }
    {
        SCOPED_TRACE("another worker's deeper need");
        sim::Rig rig(2, false);
        parked(rig);
        EXPECT_EQ(rig.send(0, ledgerControl("need", "a", {{"need", 4}})),
                  "1 range a 2+1");
    }
}

TEST(CoordSim, RequestAfterAMalformedNeedParks)
{
    // The core's half of Coordinator.DropsFramesWithMalformedIntegers: a
    // malformed `need` is dropped, so the request after it finds nothing
    // declared and parks, and the valid need that follows answers it.
    sim::Rig rig(16, false);
    rig.core->open(0);
    JsonRecord hello = coordwire::control("hello");
    hello.strings.emplace_back("worker", "crafted");
    EXPECT_EQ(rig.send(0, std::move(hello)), "");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad :
         {nan, -1.0, 0.0, 2.5, coordwire::kMaxWireInt + 1.0, 1e300}) {
        EXPECT_EQ(rig.send(0, ledgerControl("need", "a", {{"need", bad}})),
                  "")
            << bad;
        EXPECT_EQ(rig.ask(0), "") << bad;
    }
    EXPECT_EQ(rig.send(0, ledgerControl("need", "a", {{"need", 2}})),
              "0 range a 0+2");
}
