/** @file Tests for serialization, table printing, CLI parsing. */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/chaos.hpp"
#include "common/cli.hpp"
#include "common/io_retry.hpp"
#include "common/serialize.hpp"
#include "common/table.hpp"

using namespace create;

TEST(BlobArchive, PutGetRoundTrip)
{
    BlobArchive ar;
    ar.put("a.weight", {2, 3}, {1, 2, 3, 4, 5, 6});
    EXPECT_TRUE(ar.has("a.weight"));
    EXPECT_FALSE(ar.has("missing"));
    const auto& blob = ar.get("a.weight");
    EXPECT_EQ(blob.dims.size(), 2u);
    EXPECT_EQ(blob.data[5], 6.0f);
    EXPECT_THROW(ar.get("missing"), std::out_of_range);
}

TEST(BlobArchive, RejectsMismatchedDims)
{
    BlobArchive ar;
    EXPECT_THROW(ar.put("x", {2, 2}, {1.0f}), std::invalid_argument);
}

TEST(BlobArchive, DiskRoundTrip)
{
    const std::string path = "/tmp/create_test_archive.bin";
    {
        BlobArchive ar;
        ar.put("m.w", {2, 2}, {1, 2, 3, 4});
        ar.put("m.b", {2}, {-1, -2});
        ASSERT_TRUE(ar.save(path));
    }
    BlobArchive loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.get("m.w").data[3], 4.0f);
    EXPECT_EQ(loaded.get("m.b").dims[0], 2u);
    std::remove(path.c_str());
}

TEST(BlobArchive, LoadFailsOnMissingFile)
{
    BlobArchive ar;
    EXPECT_FALSE(ar.load("/tmp/definitely_not_here_12345.bin"));
}

TEST(BlobArchive, LoadFailsOnCorruptMagic)
{
    const std::string path = "/tmp/create_test_corrupt.bin";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
    BlobArchive ar;
    EXPECT_FALSE(ar.load(path));
    std::remove(path.c_str());
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.4235, 1), "42.4%");
}

TEST(Table, CsvOutput)
{
    Table t("test");
    t.header({"a", "b"});
    t.row({"1", "2"});
    const std::string path = "/tmp/create_test_table.csv";
    t.writeCsv(path);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    EXPECT_STREQ(buf, "a,b\n1,2\n");
    std::remove(path.c_str());
}

TEST(Cli, ParsesSpaceAndEqualsForms)
{
    const char* argv[] = {"prog", "--reps", "50", "--task=stone", "--fast"};
    Cli cli(5, const_cast<char**>(argv));
    EXPECT_EQ(cli.integer("reps", 1), 50);
    EXPECT_EQ(cli.str("task", "x"), "stone");
    EXPECT_TRUE(cli.flag("fast"));
    EXPECT_FALSE(cli.flag("other"));
    EXPECT_EQ(cli.integer("missing", 7), 7);
    EXPECT_DOUBLE_EQ(cli.real("missing", 0.5), 0.5);
}

TEST(Cli, FlagFalseValues)
{
    const char* argv[] = {"prog", "--fast=0"};
    Cli cli(2, const_cast<char**>(argv));
    EXPECT_FALSE(cli.flag("fast", true));
}

TEST(Cli, FlagAcceptsBooleanWords)
{
    const char* argv[] = {"prog", "--a=true", "--b=false", "--c=yes",
                          "--d=no", "--e=on", "--f=off"};
    Cli cli(7, const_cast<char**>(argv));
    EXPECT_TRUE(cli.flag("a"));
    EXPECT_FALSE(cli.flag("b", true));
    EXPECT_TRUE(cli.flag("c"));
    EXPECT_FALSE(cli.flag("d", true));
    EXPECT_TRUE(cli.flag("e"));
    EXPECT_FALSE(cli.flag("f", true));
}

TEST(Cli, RejectsUnparsableNumerics)
{
    // `--reps=abc` used to strtoll to 0 silently and zero out a whole
    // sweep; malformed values are now a diagnostic.
    const char* argv[] = {"prog", "--reps=abc", "--frac=0.5x", "--n=12abc",
                          "--fast=maybe", "--empty="};
    Cli cli(6, const_cast<char**>(argv));
    cli.setThrowOnError(true);
    EXPECT_THROW(cli.integer("reps", 1), std::invalid_argument);
    EXPECT_THROW(cli.real("frac", 0.0), std::invalid_argument);
    EXPECT_THROW(cli.integer("n", 1), std::invalid_argument);
    EXPECT_THROW(cli.real("n", 1.0), std::invalid_argument); // nor a real
    EXPECT_THROW(cli.flag("fast"), std::invalid_argument);
    EXPECT_THROW(cli.integer("empty", 1), std::invalid_argument);
    // Missing flags still fall back to their defaults.
    EXPECT_EQ(cli.integer("absent", 9), 9);
}

TEST(Cli, RejectsOutOfRangeNumerics)
{
    // strtoll saturates (LLONG_MAX + errno=ERANGE) on overflow; without
    // the errno check `--reps=99999999999999999999` silently became a
    // huge (or, after narrowing, negative) rep count.
    const char* argv[] = {"prog", "--reps=99999999999999999999",
                          "--ber=1e999"};
    Cli cli(3, const_cast<char**>(argv));
    cli.setThrowOnError(true);
    EXPECT_THROW(cli.integer("reps", 1), std::invalid_argument);
    EXPECT_THROW(cli.real("ber", 0.0), std::invalid_argument);
}

TEST(Cli, ParsesValidNumerics)
{
    const char* argv[] = {"prog", "--reps", "50", "--ber=1e-4",
                          "--offset=-3"};
    Cli cli(5, const_cast<char**>(argv));
    cli.setThrowOnError(true);
    EXPECT_EQ(cli.integer("reps", 1), 50);
    EXPECT_DOUBLE_EQ(cli.real("ber", 0.0), 1e-4);
    EXPECT_EQ(cli.integer("offset", 0), -3);
}

TEST(JsonRecords, RoundTripIsBitExact)
{
    const std::string path = "/tmp/create_test_records.json";
    std::vector<JsonRecord> records(2);
    records[0].name = "cell/one";
    records[0].strings = {{"platform", "jarvis-1"}, {"label", "a \"b\" \\c"}};
    records[0].numbers = {{"successRate", 1.0 / 3.0},
                          {"avgComputeJ", 0.72907653395061733},
                          {"negative", -1e-17}};
    records[1].name = "cell/two";
    records[1].numbers = {{"episodes", 120}};
    ASSERT_TRUE(writeJsonRecords(path, records));

    std::vector<JsonRecord> loaded;
    ASSERT_TRUE(readJsonRecords(path, loaded));
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].name, "cell/one");
    EXPECT_EQ(loaded[0].text("platform"), "jarvis-1");
    EXPECT_EQ(loaded[0].text("label"), "a \"b\" \\c");
    // %.17g round-trips every double bit-exactly (--resume depends on it).
    EXPECT_EQ(loaded[0].number("successRate"), 1.0 / 3.0);
    EXPECT_EQ(loaded[0].number("avgComputeJ"), 0.72907653395061733);
    EXPECT_EQ(loaded[0].number("negative"), -1e-17);
    EXPECT_EQ(loaded[1].number("episodes"), 120.0);
    EXPECT_EQ(loaded[1].text("missing", "dflt"), "dflt");
    std::remove(path.c_str());
}

TEST(JsonRecords, EmptyArrayAndMalformedInput)
{
    const std::string path = "/tmp/create_test_records_edge.json";
    ASSERT_TRUE(writeJsonRecords(path, std::vector<JsonRecord>{}));
    std::vector<JsonRecord> loaded;
    ASSERT_TRUE(readJsonRecords(path, loaded));
    EXPECT_TRUE(loaded.empty());

    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("[{\"name\": \"x\", \"broken\": }]", f);
    std::fclose(f);
    EXPECT_FALSE(readJsonRecords(path, loaded));
    EXPECT_FALSE(readJsonRecords("/tmp/definitely_not_here_9876.json",
                                 loaded));
    std::remove(path.c_str());
}

TEST(JsonRecords, SalvageRecoversPrefixAtEveryTruncationPoint)
{
    // A store torn at ANY byte offset must salvage exactly the records
    // that landed completely before the tear. The test data avoids
    // braces inside strings, so each '}' in the byte stream closes one
    // record and the expected salvage count is countable directly.
    const std::string path = "/tmp/create_test_salvage_trunc.json";
    std::vector<JsonRecord> records(4);
    for (int i = 0; i < 4; ++i) {
        records[static_cast<std::size_t>(i)].name =
            "rec/" + std::to_string(i);
        records[static_cast<std::size_t>(i)].strings = {
            {"tag", "payload-" + std::to_string(i)}};
        records[static_cast<std::size_t>(i)].numbers = {
            {"value", 0.1 + i}, {"index", static_cast<double>(i)}};
    }
    ASSERT_TRUE(writeJsonRecords(path, records));
    std::string full;
    {
        std::FILE* f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            full.append(buf, n);
        std::fclose(f);
    }
    ASSERT_GT(full.size(), 0u);
    // A cut past the closing ']' only loses trailing whitespace: the
    // array is complete and salvage never engages.
    const std::size_t closed = full.rfind(']') + 1;
    ASSERT_NE(closed, std::string::npos + 1);

    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
        SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                     std::to_string(full.size()) + " bytes");
        {
            std::FILE* f = std::fopen(path.c_str(), "wb");
            ASSERT_NE(f, nullptr);
            ASSERT_EQ(std::fwrite(full.data(), 1, cut, f), cut);
            std::fclose(f);
        }
        std::size_t expect = 0;
        for (std::size_t i = 0; i < cut; ++i)
            if (full[i] == '}')
                ++expect;
        std::vector<JsonRecord> out;
        JsonSalvage sal;
        ASSERT_TRUE(readJsonRecordsSalvaged(path, out, &sal));
        EXPECT_EQ(out.size(), expect);
        EXPECT_EQ(sal.salvaged, cut < closed);
        EXPECT_EQ(sal.totalBytes, cut);
        EXPECT_LE(sal.goodBytes, cut);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i].name, records[i].name);
            EXPECT_EQ(out[i].number("value"), 0.1 + static_cast<int>(i));
            EXPECT_EQ(out[i].text("tag"),
                      "payload-" + std::to_string(i));
        }
        // The strict reader refuses any truncated file outright.
        if (cut < closed)
            EXPECT_FALSE(readJsonRecords(path, out));
    }
    std::remove(path.c_str());
}

TEST(JsonRecords, QuarantinePreservesTheBadTail)
{
    // quarantineTail copies the unparseable suffix aside so the next
    // flush rewriting the store does not destroy the post-mortem
    // evidence.
    const std::string path = "/tmp/create_test_salvage_quar.json";
    std::vector<JsonRecord> records(2);
    records[0].name = "good/0";
    records[0].numbers = {{"v", 1.0}};
    records[1].name = "good/1";
    records[1].numbers = {{"v", 2.0}};
    ASSERT_TRUE(writeJsonRecords(path, records));
    const std::string tail = "{\"name\": \"torn-mid-rec";
    {
        std::FILE* f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        // Replace the closing "]\n" with a half-written record.
        std::fseek(f, size - 2, SEEK_SET);
        std::fputs(",\n", f);
        std::fputs(tail.c_str(), f);
        std::fclose(f);
    }
    std::vector<JsonRecord> out;
    JsonSalvage sal;
    ASSERT_TRUE(readJsonRecordsSalvaged(path, out, &sal));
    EXPECT_TRUE(sal.salvaged);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].number("v"), 2.0);
    ASSERT_GT(sal.totalBytes, sal.goodBytes);

    const std::string qpath = quarantineTail(path, sal.goodBytes);
    ASSERT_EQ(qpath, path + ".quarantine");
    std::string quarantined;
    {
        std::FILE* f = std::fopen(qpath.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            quarantined.append(buf, n);
        std::fclose(f);
    }
    EXPECT_EQ(quarantined.size(), sal.totalBytes - sal.goodBytes);
    EXPECT_NE(quarantined.find(tail), std::string::npos);
    // An empty tail (offset == file size) is a no-op, not an error.
    EXPECT_EQ(quarantineTail(path, sal.totalBytes), "");
    std::remove(path.c_str());
    std::remove(qpath.c_str());
}

TEST(JsonRecords, WriteFailureReportsTheFailingStep)
{
    // ENOSPC/EACCES on the flush path must surface, not vanish: the
    // campaign layer turns this into a loud abort instead of silently
    // dropping a flush batch.
    std::vector<JsonRecord> records(1);
    records[0].name = "x";
    std::string error;
    EXPECT_FALSE(writeJsonRecords(
        "/tmp/definitely_not_a_dir_3141/store.json", records, &error));
    EXPECT_NE(error.find("open"), std::string::npos);
    EXPECT_FALSE(error.empty());
}

TEST(IoRetry, RenameFailureCarriesErrnoDetail)
{
    std::string error;
    EXPECT_FALSE(io::renameRetry("/tmp/no_such_source_2718",
                                 "/tmp/no_such_dir_2718/x", &error));
    EXPECT_NE(error.find("rename"), std::string::npos);
}

TEST(Chaos, SpecParsingClampsAndIgnoresGarbage)
{
    using chaos::parseChaosSpec;
    const chaos::Config off = parseChaosSpec(nullptr);
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(parseChaosSpec("").enabled());
    EXPECT_FALSE(parseChaosSpec("bogus=1,junk,=,x=").enabled());

    const chaos::Config cfg = parseChaosSpec("abort=0.05,tear=0.3");
    EXPECT_TRUE(cfg.enabled());
    EXPECT_DOUBLE_EQ(cfg.abortBeforeFlush, 0.05);
    EXPECT_DOUBLE_EQ(cfg.tearWrite, 0.3);

    // Probabilities clamp to [0, 1], and a malformed value disables that
    // fault rather than misfiring.
    const chaos::Config clamped = parseChaosSpec("abort=7,tear=-3");
    EXPECT_DOUBLE_EQ(clamped.abortBeforeFlush, 1.0);
    EXPECT_DOUBLE_EQ(clamped.tearWrite, 0.0);
    const chaos::Config bad = parseChaosSpec("abort=xyz,connreset=2x");
    EXPECT_FALSE(bad.enabled());
}
