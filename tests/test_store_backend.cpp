/** @file Tests for the result-store backends: the binlog frame codec
 *  (CRC-framed append log, dictionary ids, bit-exact doubles), torn-tail
 *  salvage at every byte offset, corrupted-frame quarantine, the writer's
 *  external-truncation heal, json <-> binlog conversion byte-identity,
 *  per-writer shard-log merging with the lease generation rule, and
 *  format autodetection. Then the ResultStore contract both store
 *  writers rely on: each open verdict, salvage with quarantine in both
 *  formats, one schema stamp per process, no write without a queue, an
 *  owed write healing a tear, and a throw after the retry budget. */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/binlog.hpp"
#include "common/io_retry.hpp"
#include "common/serialize.hpp"
#include "common/store_keys.hpp"
#include "core/store_backend.hpp"

using namespace create;

namespace {

std::string
slurp(const std::string& path)
{
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

void
spew(const std::string& path, const std::string& bytes)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** Remove a binlog store directory (its logs, quarantines, and the dir),
 *  or a bare file; ignores whatever does not exist. */
void
removeStore(const std::string& path)
{
    const std::string rm = "rm -rf '" + path + "'";
    ASSERT_EQ(std::system(rm.c_str()), 0);
}

/** Walk the frame stream of a complete log: the byte offset where each
 *  frame ends, tagged with whether it carries a record. Lets the
 *  truncation sweep compute the exact expected salvage for any cut. */
struct FrameEnd
{
    std::size_t end = 0;
    bool record = false;
};

std::vector<FrameEnd>
frameEnds(const std::string& bytes)
{
    std::vector<FrameEnd> out;
    std::size_t pos = binlog::kHeaderBytes;
    while (pos + 9 <= bytes.size()) {
        const auto type = static_cast<unsigned char>(bytes[pos]);
        std::uint32_t len = 0;
        std::memcpy(&len, bytes.data() + pos + 1, sizeof(len));
        pos += 9 + len;
        // Types 2..5 are the record-bearing frames (Record, Episode,
        // Lease, Meta); 1 (FpDef) and 6 (Index) are bookkeeping.
        out.push_back({pos, type >= 2 && type <= 5});
    }
    return out;
}

JsonRecord
makeRecord(const std::string& name, double salt)
{
    JsonRecord r;
    r.name = name;
    r.strings.emplace_back("tag", "payload-" + name);
    // Doubles chosen to break any text round trip that is not %.17g /
    // bit-exact: a non-terminating binary fraction, a negative zero, a
    // huge magnitude, and a subnormal.
    r.numbers.emplace_back("frac", 0.1 + salt);
    r.numbers.emplace_back("negzero", -0.0);
    r.numbers.emplace_back("huge", 1.2345678901234567e300);
    r.numbers.emplace_back("tiny", 4.9406564584124654e-324);
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
        // Bit comparison: -0.0 == 0.0 under operator==, and NaN-safe.
        std::uint64_t ba = 0, bb = 0;
        std::memcpy(&ba, &a.numbers[i].second, sizeof(ba));
        std::memcpy(&bb, &b.numbers[i].second, sizeof(bb));
        EXPECT_EQ(ba, bb) << a.name << "." << a.numbers[i].first;
    }
}

} // namespace

TEST(Binlog, RecordRoundTripAllFrameKinds)
{
    // One record through each frame encoding: episode / lease / meta
    // (dictionary-id frames), a generic name, and the degenerate
    // hand-edited shape that LOOKS like an episode key but does not
    // reconstruct through the grammar (leading zeros) -- it must travel
    // as a generic frame and come back byte-exact.
    const std::string path = "/tmp/create_test_binlog_roundtrip.crbl";
    std::remove(path.c_str());
    const std::string fp = "v2|jarvis-1|t0|cfgdeadbeef|s7";
    std::vector<JsonRecord> in;
    in.push_back(makeRecord(sweepEpisodeKey(fp, 0), 0.0));
    in.push_back(makeRecord(sweepEpisodeKey(fp, 123), 1.0));
    in.push_back(makeRecord(sweepLeaseKey(fp), 2.0));
    in.push_back(makeRecord(fp, 3.0));
    in.push_back(makeRecord("some/opaque name with spaces", 4.0));
    in.push_back(makeRecord(fp + "#007", 5.0));

    binlog::LogWriter w;
    std::string error;
    ASSERT_TRUE(w.open(path, &error)) << error;
    for (const JsonRecord& r : in)
        w.append(r);
    ASSERT_TRUE(w.commit(&error)) << error;
    w.close();

    std::vector<JsonRecord> out;
    binlog::LogSalvage sal;
    ASSERT_TRUE(binlog::readLogRecords(path, out, &sal));
    EXPECT_FALSE(sal.salvaged);
    EXPECT_EQ(sal.records, in.size());
    EXPECT_EQ(sal.goodBytes, sal.totalBytes);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        expectRecordsEqual(in[i], out[i]);
    std::remove(path.c_str());
}

TEST(Binlog, SalvageRecoversPrefixAtEveryTruncationPoint)
{
    // A log torn at ANY byte offset must salvage exactly the records
    // whose frames landed completely before the tear -- the binary
    // counterpart of the JSON store's truncation sweep.
    const std::string path = "/tmp/create_test_binlog_trunc.crbl";
    std::remove(path.c_str());
    const std::string fp = "v2|jarvis-1|t1|cfg|s0";
    {
        binlog::LogWriter w;
        std::string error;
        ASSERT_TRUE(w.open(path, &error)) << error;
        for (int i = 0; i < 4; ++i)
            w.append(makeRecord(sweepEpisodeKey(fp, i), 0.5 * i));
        ASSERT_TRUE(w.commit(&error)) << error;
    }
    const std::string full = slurp(path);
    ASSERT_GT(full.size(), binlog::kHeaderBytes);
    const std::vector<FrameEnd> frames = frameEnds(full);
    ASSERT_EQ(frames.back().end, full.size());

    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
        SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                     std::to_string(full.size()) + " bytes");
        spew(path, full.substr(0, cut));
        std::vector<JsonRecord> out;
        binlog::LogSalvage sal;
        if (cut < binlog::kHeaderBytes) {
            // Not even the magic landed: unreadable, not salvageable.
            EXPECT_FALSE(binlog::readLogRecords(path, out, &sal));
            continue;
        }
        std::size_t expectRecords = 0, expectGood = binlog::kHeaderBytes;
        for (const FrameEnd& fe : frames)
            if (fe.end <= cut) {
                expectGood = fe.end;
                if (fe.record)
                    ++expectRecords;
            }
        ASSERT_TRUE(binlog::readLogRecords(path, out, &sal));
        EXPECT_EQ(out.size(), expectRecords);
        EXPECT_EQ(sal.goodBytes, expectGood);
        EXPECT_EQ(sal.salvaged, cut != expectGood);
    }
    std::remove(path.c_str());
}

TEST(Binlog, CorruptedFrameIsDetectedAndTailQuarantined)
{
    // A bit flip in the middle of a frame (not a truncation) must fail
    // that frame's CRC; the backend keeps the prefix, quarantines the
    // bad suffix by COPY (a reader must never truncate a peer's live
    // log), and reports salvage.
    const std::string dir = "/tmp/create_test_binlog_corrupt";
    removeStore(dir);
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    const std::string log = dir + "/log-w1.crbl";
    const std::string fp = "v2|openvla+octo|t2|cfg|s0";
    {
        binlog::LogWriter w;
        std::string error;
        ASSERT_TRUE(w.open(log, &error)) << error;
        for (int i = 0; i < 4; ++i)
            w.append(makeRecord(sweepEpisodeKey(fp, i), 0.25 * i));
        ASSERT_TRUE(w.commit(&error)) << error;
    }
    std::string bytes = slurp(log);
    const std::vector<FrameEnd> frames = frameEnds(bytes);
    std::size_t recordFramesSeen = 0, corruptAt = 0, prefixRecords = 0;
    for (const FrameEnd& fe : frames) {
        if (fe.record && ++recordFramesSeen == 3) {
            corruptAt = fe.end - 3; // inside the third record's payload
            break;
        }
        if (fe.record)
            ++prefixRecords;
    }
    ASSERT_GT(corruptAt, 0u);
    bytes[corruptAt] = static_cast<char>(bytes[corruptAt] ^ 0x40);
    spew(log, bytes);

    std::vector<JsonRecord> out;
    StoreLoadInfo info;
    const auto be = openStoreBackend(dir, StoreFormat::Json, "reader");
    ASSERT_EQ(be->format(), StoreFormat::Binlog);
    ASSERT_TRUE(be->load(out, &info, /*quarantineBadTails=*/true));
    EXPECT_TRUE(info.salvaged);
    EXPECT_EQ(out.size(), prefixRecords);
    ASSERT_EQ(info.quarantined.size(), 1u);
    // Quarantine preserved exactly the bytes past the last good frame,
    // and the log itself kept its full (corrupt) length: repair belongs
    // to the owning writer, not to readers.
    const std::string q = slurp(info.quarantined.front());
    EXPECT_EQ(q, bytes.substr(static_cast<std::size_t>(info.goodBytes)));
    EXPECT_EQ(slurp(log).size(), bytes.size());
    removeStore(dir);
}

TEST(Binlog, WriterHealsExternallyTruncatedLog)
{
    // The chaos-tear shape: after a successful flush the log loses a
    // suffix underneath the writer. checkTail must notice (size !=
    // committed offset), re-salvage, truncate to the frame boundary, and
    // ask the caller to re-publish its full view; after the heal flush
    // the store reads back complete.
    const std::string dir = "/tmp/create_test_binlog_heal";
    removeStore(dir);
    const std::string fp = "v2|jarvis-1|t3|cfg|s0";
    std::map<std::string, JsonRecord> fullView;
    std::vector<JsonRecord> batch;
    for (int i = 0; i < 6; ++i) {
        JsonRecord r = makeRecord(sweepEpisodeKey(fp, i), 1.0 * i);
        fullView[r.name] = r;
        batch.push_back(std::move(r));
    }
    const auto be = openStoreBackend(dir, StoreFormat::Binlog, "w1");
    std::string error;
    ASSERT_TRUE(be->flush(fullView, batch, &error)) << error;
    const std::string log = be->lastDataFile();
    ASSERT_FALSE(log.empty());

    // Tear: cut the log mid-frame, behind the writer's back.
    const std::string bytes = slurp(log);
    spew(log, bytes.substr(0, bytes.size() - 11));

    // Next flush (empty batch -- mirroring a lease renewal tick) heals.
    ASSERT_TRUE(be->flush(fullView, {}, &error)) << error;
    std::vector<JsonRecord> out;
    StoreLoadInfo info;
    ASSERT_TRUE(be->load(out, &info, /*quarantineBadTails=*/false));
    EXPECT_EQ(out.size(), fullView.size());
    for (const JsonRecord& r : out)
        expectRecordsEqual(fullView.at(r.name), r);
    removeStore(dir);
}

TEST(StoreBackend, JsonToBinlogToJsonIsByteIdentical)
{
    // The conversion contract behind `sweep-store convert`: doubles
    // travel as IEEE bits through the binlog and as %.17g through the
    // JSON writer, and both sides write records sorted by name, so a
    // json -> binlog -> json trip reproduces the original file byte for
    // byte.
    const std::string json1 = "/tmp/create_test_conv_a.json";
    const std::string blog = "/tmp/create_test_conv.blog";
    const std::string json2 = "/tmp/create_test_conv_b.json";
    removeStore(json1);
    removeStore(blog);
    removeStore(json2);
    const std::string fp = "v2|jarvis-1|t4|cfg|s0";
    std::map<std::string, JsonRecord> full;
    JsonRecord schema;
    schema.name = kSweepStoreSchemaRecord;
    schema.numbers.emplace_back("schema", kSweepStoreSchema);
    full[schema.name] = schema;
    full[fp] = makeRecord(fp, 9.0);
    for (int i = 0; i < 5; ++i) {
        JsonRecord r = makeRecord(sweepEpisodeKey(fp, i), 0.7 * i);
        full[r.name] = r;
    }
    ASSERT_TRUE(writeJsonRecords(json1, full));

    const auto convert = [](const std::string& from, const std::string& to,
                            StoreFormat toFmt) {
        std::vector<JsonRecord> records;
        StoreLoadInfo info;
        const auto src = openStoreBackend(from, StoreFormat::Json, "t");
        ASSERT_TRUE(src->load(records, &info, false));
        EXPECT_FALSE(info.salvaged);
        std::map<std::string, JsonRecord> view;
        std::vector<JsonRecord> batch;
        for (JsonRecord& r : records)
            view[r.name] = std::move(r);
        for (const auto& [name, rec] : view)
            batch.push_back(rec);
        const auto dst = openStoreBackend(to, toFmt, "t");
        ASSERT_EQ(dst->format(), toFmt);
        std::string error;
        ASSERT_TRUE(dst->flush(view, batch, &error)) << error;
    };
    convert(json1, blog, StoreFormat::Binlog);
    convert(blog, json2, StoreFormat::Json);
    EXPECT_EQ(slurp(json1), slurp(json2));
    EXPECT_NE(slurp(json1), "");
    removeStore(json1);
    removeStore(blog);
    removeStore(json2);
}

TEST(StoreBackend, WriterLogsMergeLaterLogWins)
{
    // Two writers that shared one binlog store (say a campaign and the
    // coordinator it was later handed to) each append to their own log.
    // The merged view folds duplicate keys later-log-wins.
    const std::string dir = "/tmp/create_test_binlog_shards";
    removeStore(dir);
    const std::string fp = "v2|jarvis-1|t5|cfg|s0";
    {
        const auto a = openStoreBackend(dir, StoreFormat::Binlog, "a");
        std::map<std::string, JsonRecord> view;
        std::vector<JsonRecord> batch;
        batch.push_back(makeRecord(sweepEpisodeKey(fp, 0), 1.0));
        for (const JsonRecord& r : batch)
            view[r.name] = r;
        std::string error;
        ASSERT_TRUE(a->flush(view, batch, &error)) << error;
    }
    {
        const auto b = openStoreBackend(dir, StoreFormat::Binlog, "b");
        std::map<std::string, JsonRecord> view;
        std::vector<JsonRecord> batch;
        JsonRecord dup = makeRecord(sweepEpisodeKey(fp, 0), 2.0);
        dup.strings.emplace_back("by", "b");
        batch.push_back(dup);
        batch.push_back(makeRecord(sweepEpisodeKey(fp, 1), 3.0));
        for (const JsonRecord& r : batch)
            view[r.name] = r;
        std::string error;
        ASSERT_TRUE(b->flush(view, batch, &error)) << error;
    }
    const auto reader = openStoreBackend(dir, StoreFormat::Json, "r");
    std::vector<JsonRecord> out;
    StoreLoadInfo info;
    ASSERT_TRUE(reader->load(out, &info, false));
    EXPECT_EQ(info.files, 2u);
    ASSERT_EQ(out.size(), 2u); // ep#0 (deduped), ep#1
    for (const JsonRecord& r : out)
        if (r.name == sweepEpisodeKey(fp, 0))
            EXPECT_EQ(r.text("by"), "b"); // later log wins
    removeStore(dir);
}

TEST(StoreBackend, DetectsFormatsAndHonorsExistingStore)
{
    const std::string jsonPath = "/tmp/create_test_detect.json";
    const std::string dirPath = "/tmp/create_test_detect.dir";
    const std::string filePath = "/tmp/create_test_detect.crbl";
    removeStore(jsonPath);
    removeStore(dirPath);
    removeStore(filePath);

    StoreFormat fmt = StoreFormat::Json;
    EXPECT_FALSE(detectStoreFormat(jsonPath, fmt)); // nothing there

    ASSERT_TRUE(writeJsonRecords(jsonPath,
                                 std::vector<JsonRecord>{makeRecord("x", 0)}));
    ASSERT_TRUE(detectStoreFormat(jsonPath, fmt));
    EXPECT_EQ(fmt, StoreFormat::Json);

    ASSERT_EQ(::mkdir(dirPath.c_str(), 0777), 0);
    ASSERT_TRUE(detectStoreFormat(dirPath, fmt));
    EXPECT_EQ(fmt, StoreFormat::Binlog);

    {
        binlog::LogWriter w;
        std::string error;
        ASSERT_TRUE(w.open(filePath, &error)) << error;
        w.append(makeRecord("y", 1));
        ASSERT_TRUE(w.commit(&error)) << error;
    }
    ASSERT_TRUE(detectStoreFormat(filePath, fmt));
    EXPECT_EQ(fmt, StoreFormat::Binlog);

    // An existing store's format wins over the requested flag -- a
    // binlog request against a json store opens the json backend (and
    // says so), so mixed fleets cannot split-brain one store.
    std::string note;
    const auto be =
        openStoreBackend(jsonPath, StoreFormat::Binlog, "w", &note);
    EXPECT_EQ(be->format(), StoreFormat::Json);
    EXPECT_FALSE(note.empty());
    // And a bare binlog FILE opens in single-file mode: appendable.
    const auto single = openStoreBackend(filePath, StoreFormat::Json, "w");
    EXPECT_EQ(single->format(), StoreFormat::Binlog);
    std::vector<JsonRecord> out;
    ASSERT_TRUE(single->load(out, nullptr, false));
    EXPECT_EQ(out.size(), 1u);
    removeStore(jsonPath);
    removeStore(dirPath);
    removeStore(filePath);
}

TEST(ResultStore, OpenReturnsEachVerdict)
{
    const std::string missing = "/tmp/create_test_rs_missing.json";
    const std::string loaded = "/tmp/create_test_rs_loaded.json";
    const std::string garbage = "/tmp/create_test_rs_garbage.json";
    const std::string future = "/tmp/create_test_rs_future.json";
    for (const std::string& p : {missing, loaded, garbage, future})
        removeStore(p);
    EXPECT_EQ(ResultStore(missing, StoreFormat::Json, "t", "test").open(),
              StoreOpen::Missing);

    ASSERT_TRUE(writeJsonRecords(loaded,
                                 std::vector<JsonRecord>{makeRecord("a", 0)}));
    ResultStore old(loaded, StoreFormat::Json, "t", "test");
    EXPECT_EQ(old.open(), StoreOpen::Loaded);
    EXPECT_EQ(old.records().size(), 1u);
    EXPECT_EQ(old.schema(), 1.0); // no schema record: the oldest schema

    spew(garbage, "not a result store\n");
    EXPECT_EQ(ResultStore(garbage, StoreFormat::Json, "t", "test").open(),
              StoreOpen::Unparseable);

    JsonRecord schema;
    schema.name = kSweepStoreSchemaRecord;
    schema.numbers.emplace_back("schema", kSweepStoreSchema + 1);
    ASSERT_TRUE(writeJsonRecords(
        future, std::vector<JsonRecord>{schema, makeRecord("a", 0)}));
    ResultStore newer(future, StoreFormat::Json, "t", "test");
    EXPECT_EQ(newer.open(), StoreOpen::FutureSchema);
    EXPECT_EQ(newer.schema(), kSweepStoreSchema + 1.0);
    for (const std::string& p : {missing, loaded, garbage, future})
        removeStore(p);
}

TEST(ResultStore, TornStoreSalvagesItsPrefixAndQuarantinesTheTail)
{
    const std::string fp = "v2|jarvis-1|t6|cfg|s0";
    for (const StoreFormat fmt : {StoreFormat::Json, StoreFormat::Binlog}) {
        SCOPED_TRACE(storeFormatName(fmt));
        const std::string path =
            std::string("/tmp/create_test_rs_torn.") + storeFormatName(fmt);
        removeStore(path);
        std::map<std::string, JsonRecord> written;
        std::string dataFile;
        {
            ResultStore w(path, fmt, "w1", "test");
            ASSERT_EQ(w.open(), StoreOpen::Missing);
            for (int i = 0; i < 6; ++i)
                w.put(makeRecord(sweepEpisodeKey(fp, i), 0.5 * i));
            ASSERT_TRUE(w.publish());
            written = w.records();
            dataFile = w.lastDataFile();
        }
        ASSERT_EQ(written.size(), 7u); // six episodes and the schema
        const std::string bytes = slurp(dataFile);
        const std::string torn = bytes.substr(0, bytes.size() * 2 / 3);
        spew(dataFile, torn);

        ResultStore r(path, fmt, "w2", "test");
        ASSERT_EQ(r.open(), StoreOpen::Loaded);
        EXPECT_GT(r.records().size(), 0u);
        EXPECT_LT(r.records().size(), written.size());
        for (const auto& [name, rec] : r.records())
            expectRecordsEqual(written.at(name), rec);
        const std::string q = slurp(dataFile + ".quarantine");
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(torn.compare(torn.size() - q.size(), q.size(), q), 0)
            << "the quarantine is not the torn file's tail";
        removeStore(path);
        removeStore(path + ".quarantine");
    }
}

TEST(ResultStore, StampsTheSchemaOncePerProcess)
{
    const std::string dir = "/tmp/create_test_rs_stamp";
    removeStore(dir);
    ResultStore s(dir, StoreFormat::Binlog, "w1", "test");
    ASSERT_EQ(s.open(), StoreOpen::Missing);
    for (int i = 0; i < 3; ++i) {
        s.put(makeRecord(sweepEpisodeKey("v2|jarvis-1|t7|cfg|s0", i), i));
        ASSERT_TRUE(s.publish());
    }
    std::vector<JsonRecord> frames;
    ASSERT_TRUE(binlog::readLogRecords(s.lastDataFile(), frames));
    EXPECT_EQ(frames.size(), 4u);
    EXPECT_EQ(std::count_if(frames.begin(), frames.end(),
                            [](const JsonRecord& r) {
                                return r.name == kSweepStoreSchemaRecord;
                            }),
              1);
    removeStore(dir);
}

TEST(ResultStore, PublishWithNothingQueuedWritesNothing)
{
    for (const StoreFormat fmt : {StoreFormat::Json, StoreFormat::Binlog}) {
        SCOPED_TRACE(storeFormatName(fmt));
        const std::string path =
            std::string("/tmp/create_test_rs_idle.") + storeFormatName(fmt);
        removeStore(path);
        ResultStore s(path, fmt, "w1", "test");
        ASSERT_EQ(s.open(), StoreOpen::Missing);
        EXPECT_FALSE(s.publish());
        StoreFormat found = fmt;
        EXPECT_FALSE(detectStoreFormat(path, found)) << "store created";
        s.put(makeRecord("a", 0));
        ASSERT_TRUE(s.publish());
        // A json publish is a tmp+rename rewrite, which would replace
        // the inode; a binlog one would grow the log.
        struct stat before;
        ASSERT_EQ(::stat(s.lastDataFile().c_str(), &before), 0);
        EXPECT_FALSE(s.publish());
        struct stat after;
        ASSERT_EQ(::stat(s.lastDataFile().c_str(), &after), 0);
        EXPECT_EQ(before.st_ino, after.st_ino);
        EXPECT_EQ(before.st_size, after.st_size);
        removeStore(path);
    }
}

TEST(ResultStore, OwedPublishHealsATornJsonStore)
{
    const std::string path = "/tmp/create_test_rs_owed.json";
    removeStore(path);
    ResultStore s(path, StoreFormat::Json, "w1", "test");
    ASSERT_EQ(s.open(), StoreOpen::Missing);
    for (int i = 0; i < 4; ++i)
        s.put(makeRecord(sweepEpisodeKey("v2|jarvis-1|t8|cfg|s0", i), i));
    ASSERT_TRUE(s.publish());
    const std::string whole = slurp(path);
    spew(path, whole.substr(0, whole.size() / 2));
    EXPECT_FALSE(s.publish()); // nothing queued or owed: the tear stays
    EXPECT_NE(slurp(path), whole);
    s.owe();
    EXPECT_TRUE(s.publish());
    EXPECT_EQ(slurp(path), whole);
    removeStore(path);
}

TEST(ResultStore, ThrowsWhenTheBackendKeepsFailing)
{
    // The parent directory does not exist, so every flush fails.
    const std::string dir = "/tmp/create_test_rs_no_such_dir";
    removeStore(dir);
    ResultStore s(dir + "/store.json", StoreFormat::Json, "w1", "test");
    ASSERT_EQ(s.open(), StoreOpen::Missing);
    s.put(makeRecord("a", 0));
    testing::internal::CaptureStderr();
    EXPECT_THROW(s.publish(), std::runtime_error);
    const std::string log = testing::internal::GetCapturedStderr();
    // One line per retry after the first try.
    int retries = 0;
    for (std::size_t at = log.find("store write failed");
         at != std::string::npos;
         at = log.find("store write failed", at + 1))
        ++retries;
    EXPECT_EQ(retries, io::kRetryAttempts - 1) << log;
}
