/** @file Tests for the socket campaign coordinator and its wire codec:
 *  incremental StreamDecoder decode under adversarial chunking (1-byte
 *  drips, random chunk sizes, partial trailing frames), corruption and
 *  foreign-magic failure modes, the coord| control-record grammar, and
 *  in-process end-to-end campaigns certified bit-identical to a serial
 *  run: coordinator + two concurrent socket workers + one deserting
 *  client (whose range is re-dispatched), a phased worker that spans
 *  two run() calls on one connection, a --once coordinator outliving
 *  a worker that dropped without `bye`, a worker whose ledger another
 *  worker declared deeper, and resume from an existing store with and
 *  without episode holes (cross-process gap-fill). Then the store and
 *  wire edges: a duplicate episode keeps its first copy in either store
 *  format, a --once coordinator restarted on its fleet's store waits for
 *  that fleet, and crafted frames with malformed integers are dropped
 *  on both sides of the wire. */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
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
    JsonRecord declare = coordwire::control("need");
    declare.strings.emplace_back("fp", fp);
    declare.numbers.emplace_back("need", need);
    JsonRecord fetch = coordwire::control("fetch");
    fetch.strings.emplace_back("fp", fp);
    fetch.numbers.emplace_back("need", need);
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
 * One worker of the randomized dispatch property test, on raw
 * CoordClients with synthetic episode records (nothing executes). It
 * declares every ledger, then handles each `range` one of three ways:
 * completes it with its records shuffled and some duplicated; dies
 * after a random prefix of them, closing without `bye`, and reconnects;
 * or hangs on it past the range timeout and finishes it later as a
 * straggler. Once it receives `fin` it lands its remaining stragglers,
 * fetches every ledger back (a round trip, so the coordinator has read
 * everything it sent) and says `bye`. Returns false when it never got
 * `fin`; `fetched` sums what the final fetches returned (-1 each on a
 * broken connection).
 */
bool
randomizedWorker(int port, const std::string& id,
                 const std::vector<std::pair<std::string, int>>& ledgers,
                 double timeoutSeconds, std::uint32_t seed, int& fetched)
{
    using Clock = std::chrono::steady_clock;
    const auto hangFor =
        std::chrono::milliseconds(static_cast<int>(timeoutSeconds * 1500));
    std::mt19937 rng(seed);
    const auto coin = [&rng](int n) {
        return std::uniform_int_distribution<int>(0, n - 1)(rng);
    };
    CoordClient c;
    std::string error;
    const auto join = [&] {
        if (!c.connect("127.0.0.1", port, id, 50, &error))
            return false;
        std::vector<JsonRecord> needs;
        for (const auto& [fp, need] : ledgers) {
            JsonRecord r = coordwire::control("need");
            r.strings.emplace_back("fp", fp);
            r.numbers.emplace_back("need", need);
            needs.push_back(std::move(r));
        }
        return c.send(needs, &error);
    };
    // The range's records, shuffled, about a quarter of them twice.
    const auto episodes = [&](const std::string& fp, int start, int count) {
        std::vector<JsonRecord> recs;
        for (int i = start; i < start + count; ++i) {
            const JsonRecord r = makeRecord(sweepEpisodeKey(fp, i), i);
            recs.insert(recs.end(), coin(4) == 0 ? 2 : 1, r);
        }
        std::shuffle(recs.begin(), recs.end(), rng);
        return recs;
    };
    const auto finish = [&](const std::string& fp, int start, int count) {
        std::vector<JsonRecord> recs = episodes(fp, start, count);
        JsonRecord done = coordwire::control("done");
        done.strings.emplace_back("fp", fp);
        done.numbers.emplace_back("start", start);
        done.numbers.emplace_back("count", count);
        recs.push_back(std::move(done));
        return c.send(recs, &error);
    };
    struct Hung
    {
        std::string fp;
        int start, count;
        Clock::time_point dueAt;
    };
    std::vector<Hung> hung;
    const auto landStragglers = [&](bool all) {
        for (auto h = hung.begin(); h != hung.end();) {
            if (!all && Clock::now() < h->dueAt) {
                ++h;
                continue;
            }
            if (!finish(h->fp, h->start, h->count))
                return false;
            h = hung.erase(h);
        }
        return true;
    };

    if (!join())
        return false;
    for (;;) {
        JsonRecord rec;
        std::string verb;
        if (!landStragglers(false) ||
            !c.send(coordwire::control("req"), &error) ||
            !c.recv(rec, &error)) {
            if (!join())
                return false;
            continue;
        }
        if (!coordwire::isControl(rec, &verb))
            continue;
        if (verb == "fin")
            break;
        if (verb == "wait") {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                static_cast<int>(rec.number("ms"))));
            continue;
        }
        if (verb != "range")
            continue;
        const std::string fp = rec.text("fp");
        const int start = static_cast<int>(rec.number("start"));
        const int count = static_cast<int>(rec.number("count"));
        switch (coin(3)) {
        case 0: // complete
            finish(fp, start, count);
            break;
        case 1: { // killed after a random prefix; reconnects later
            std::vector<JsonRecord> recs = episodes(fp, start, count);
            recs.resize(static_cast<std::size_t>(
                coin(static_cast<int>(recs.size()) + 1)));
            c.send(recs, &error);
            c.close();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(coin(20)));
            break;
        }
        default: // hung past its timeout, finished later as a straggler
            hung.push_back({fp, start, count, Clock::now() + hangFor});
        }
    }
    landStragglers(true);
    fetched = 0;
    for (const auto& [fp, need] : ledgers)
        fetched += declareAndFetch(c, fp, need, &error);
    c.send(coordwire::control("bye"), &error);
    return true;
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
    // matrix, one of them fanning each range out over two threads
    // (concurrent completions into one range sink). The workers'
    // folded stats and the coordinator's store must both be bit-identical
    // to a serial local campaign.
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
    co.rangeTimeoutSeconds = 30.0;
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

TEST(Coordinator, OnceWaitsForAWorkerThatDroppedWithoutBye)
{
    // A connection reset at the very end of a campaign (a `fetch` cut
    // by `connreset`) looks like a close, and the campaign is complete.
    // If the other workers have already left, a --once coordinator must
    // still give the dropped worker its grace to reconnect and fetch,
    // instead of exiting under it; workers that said `bye` cost nothing.
    const std::string store = "/tmp/create_test_coord_rejoin.blog";
    removeStoreAnyFormat(store);
    const int reps = 2;
    const SweepCell cell = campaignCells(reps)[1];
    const std::string fp = sweepFingerprint(cell);

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

    {
        SweepRunner::Options wo;
        wo.connect = "127.0.0.1:" + std::to_string(coord.port());
        SweepRunner worker(wo);
        worker.add(cell);
        worker.run();
        CoordClient dropped;
        ASSERT_TRUE(dropped.connect("127.0.0.1", coord.port(),
                                    "dropped:1.1", 3, &error))
            << error;
        EXPECT_EQ(declareAndFetch(dropped, fp, reps, &error), reps);
        dropped.close(); // no bye: the shape of a reset
    } // the worker says bye and leaves: the fleet is empty, all complete
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (served) {
        serve.join();
        FAIL() << "the --once coordinator exited under a dropped worker";
    }
    CoordClient back;
    ASSERT_TRUE(back.connect("127.0.0.1", coord.port(), "dropped:1.1", 3,
                             &error))
        << error;
    EXPECT_EQ(declareAndFetch(back, fp, reps, &error), reps);
    EXPECT_TRUE(back.send(coordwire::control("bye"), &error)) << error;
    back.close();
    serve.join();
    EXPECT_EQ(coord.episodesIngested(), reps);
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

TEST(Coordinator, RandomizedDispatchEndsExactlyOnce)
{
    // The exactly-once property of range dispatch under random kills,
    // reorders, duplicate deliveries and stragglers: every worker ends
    // with `fin`, and the coordinator's raw append logs (each log read
    // on its own, no merge) hold every needed episode exactly once and
    // no other episode.
    // Per process: two suites running at once (two build trees) must
    // not append into one another's store.
    const std::string store = "/tmp/create_test_coord_random." +
                              std::to_string(::getpid()) + ".blog";
    long long redispatched = 0;
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        removeStoreAnyFormat(store);
        std::mt19937 rng(seed);
        const auto pick = [&rng](int lo, int hi) {
            return std::uniform_int_distribution<int>(lo, hi)(rng);
        };
        std::vector<std::pair<std::string, int>> ledgers;
        for (int l = 0; l < 3; ++l)
            ledgers.emplace_back("v2|random|t" + std::to_string(l) +
                                     "|cfg" + std::to_string(seed) + "|s0",
                                 pick(3, 32));

        Coordinator::Options co;
        co.storePath = store;
        co.storeFormat = StoreFormat::Binlog;
        co.rangeEpisodes = pick(1, 8);
        co.flushEvery = pick(1, 16);
        co.rangeTimeoutSeconds = 0.2;
        Coordinator coord(co);
        std::string error;
        ASSERT_TRUE(coord.start(&error)) << error;
        std::thread serve([&] { coord.runLoop(); });

        constexpr int kWorkers = 3;
        bool gotFin[kWorkers] = {};
        int fetched[kWorkers] = {};
        std::vector<std::thread> workers;
        for (int w = 0; w < kWorkers; ++w) {
            const std::uint32_t workerSeed = rng();
            workers.emplace_back([&, w, workerSeed] {
                gotFin[w] = randomizedWorker(
                    coord.port(), "random:" + std::to_string(w), ledgers,
                    co.rangeTimeoutSeconds, workerSeed, fetched[w]);
            });
        }
        for (std::thread& t : workers)
            t.join();
        coord.stop();
        serve.join();
        redispatched += coord.rangesRedispatched();

        int needTotal = 0;
        for (const auto& [fp, need] : ledgers)
            needTotal += need;
        for (int w = 0; w < kWorkers; ++w) {
            EXPECT_TRUE(gotFin[w]) << "worker " << w;
            EXPECT_EQ(fetched[w], needTotal) << "worker " << w;
        }
        std::map<std::string, int> appended;
        for (const auto& entry : std::filesystem::directory_iterator(store)) {
            std::vector<JsonRecord> recs;
            ASSERT_TRUE(
                binlog::readLogRecords(entry.path().string(), recs))
                << entry.path();
            for (const JsonRecord& r : recs)
                if (sweepEpisodeIndex(r.name, nullptr) >= 0)
                    ++appended[r.name];
        }
        EXPECT_EQ(appended.size(), static_cast<std::size_t>(needTotal));
        for (const auto& [fp, need] : ledgers)
            for (int i = 0; i < need; ++i)
                EXPECT_EQ(appended[sweepEpisodeKey(fp, i)], 1)
                    << sweepEpisodeKey(fp, i);
    }
    EXPECT_GT(redispatched, 0); // kills and hangs did re-pool ranges
    removeStoreAnyFormat(store);
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
        c.close();
        coord.stop();
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

TEST(Coordinator, RestartedOnceCoordinatorWaitsForItsFleet)
{
    // A --once coordinator killed near the end of a campaign restarts on
    // its store with the campaign all but done. Its fleet reconnects one
    // worker at a time -- the last one may be asleep in connectRetry's
    // backoff -- so the first worker back finishing the campaign and
    // saying `bye` must not take the restart down under the rest. The
    // store's worker telemetry tells the restart it had a fleet.
    const std::string store = "/tmp/create_test_coord_restart.blog";
    removeStoreAnyFormat(store);
    const std::string fp = "v2|restart|t0|cfg|s0";
    std::string error;
    Coordinator::Options co;
    co.storePath = store;
    co.storeFormat = StoreFormat::Binlog;
    {
        // The first incarnation: a worker lands the whole ledger, and
        // stop() stands in for the kill.
        Coordinator first(co);
        ASSERT_TRUE(first.start(&error)) << error;
        std::thread serve([&] { first.runLoop(); });
        CoordClient w;
        ASSERT_TRUE(w.connect("127.0.0.1", first.port(), "a:1.1", 3,
                              &error))
            << error;
        ASSERT_TRUE(w.send({makeRecord(sweepEpisodeKey(fp, 0), 0.0),
                            makeRecord(sweepEpisodeKey(fp, 1), 1.0)},
                           &error))
            << error;
        EXPECT_EQ(declareAndFetch(w, fp, 2, &error), 2) << error;
        w.close();
        first.stop();
        serve.join();
    }

    co.once = true;
    Coordinator coord(co);
    ASSERT_TRUE(coord.start(&error)) << error;
    std::atomic<bool> served{false};
    std::thread serve([&] {
        coord.runLoop();
        served = true;
    });
    const auto visit = [&](const char* id) {
        CoordClient c;
        ASSERT_TRUE(c.connect("127.0.0.1", coord.port(), id, 3, &error))
            << error;
        EXPECT_EQ(declareAndFetch(c, fp, 2, &error), 2) << error;
        EXPECT_TRUE(c.send(coordwire::control("bye"), &error)) << error;
    };
    visit("a:1.1");
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (served) {
        serve.join();
        FAIL() << "the restarted --once coordinator exited under its fleet";
    }
    visit("b:1.1");
    coord.stop();
    serve.join();
    removeStoreAnyFormat(store);
}

TEST(Coordinator, DropsFramesWithMalformedIntegers)
{
    // Every integer the coordinator reads off its socket -- which listens
    // on every interface -- must be checked, not cast: a `need` past the
    // wire limit would size a have-bitmap that large, and a fetch's
    // `need` would size a scan inside the single-threaded poll loop.
    // Malformed frames are dropped; a fetch scans at most the declared
    // need.
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
        JsonRecord r = coordwire::control(verb);
        r.strings.emplace_back("fp", fp);
        r.numbers.emplace_back("need", need);
        return r;
    };
    const auto reply = [&](const JsonRecord& sent) {
        JsonRecord rec;
        std::string verb;
        if (c.send({sent, coordwire::control("req")}, &error) &&
            c.recv(rec, &error))
            coordwire::isControl(rec, &verb);
        return verb;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Each malformed declaration is dropped: nothing is declared, so the
    // request that follows it waits instead of getting a range.
    for (const double bad :
         {nan, -1.0, 0.0, 2.5, coordwire::kMaxWireInt + 1.0, 1e300})
        EXPECT_EQ(reply(frame("need", bad)), "wait") << bad;
    EXPECT_EQ(reply(frame("need", 2)), "range");

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
    EXPECT_EQ(reply(coordwire::control("bye")), "fin"); // nothing else queued
    c.close();
    coord.stop();
    serve.join();
    removeStoreAnyFormat(store);
}

TEST(Coordinator, WorkerDropsMalformedRanges)
{
    // The worker side of the same check, against a scripted coordinator:
    // a range starting before the ledger would land its episodes out of
    // bounds, and NaN or absurd fields are undefined to cast. The worker
    // drops each one and runs only the well-formed range.
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
        JsonRecord r = coordwire::control("range");
        r.strings.emplace_back("fp", fp);
        r.numbers.emplace_back("start", start);
        r.numbers.emplace_back("count", count);
        return r;
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
