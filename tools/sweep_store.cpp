/**
 * @file
 * sweep-store: inspect, convert, and compact SweepRunner result stores.
 *
 *   sweep-store inspect <store>
 *   sweep-store convert <in> <out> [--to json|binlog]
 *   sweep-store compact <store>
 *
 * Both store formats (the single-file JSON interchange array and the
 * binlog directory of per-writer append logs; see core/store_backend.hpp)
 * are autodetected by magic bytes / directory-ness, so every subcommand
 * takes either.
 *
 *  - inspect: one summary block (format, schema, files, records by kind,
 *    salvage/quarantine state). Never mutates the store.
 *  - convert: load the merged record view and rewrite it in the target
 *    format (default: the opposite of the input). Records are written
 *    sorted by name, exactly the order the JSON store uses, so
 *    json -> binlog -> json is byte-identical -- doubles travel as
 *    IEEE-754 bits through the binlog and as %.17g through the JSON.
 *  - compact: fold a binlog store's logs (and duplicate keys) into one
 *    fresh log; a no-op on JSON stores. Quiescent stores only.
 *
 * Exit code 0 = success, 2 = usage/unreadable input.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/binlog.hpp"
#include "common/serialize.hpp"
#include "common/store_keys.hpp"
#include "core/store_backend.hpp"

using namespace create;

namespace {

void
usage(std::FILE* to)
{
    std::fprintf(
        to,
        "usage: sweep-store inspect <store>\n"
        "       sweep-store convert <in> <out> [--to json|binlog]\n"
        "       sweep-store compact <store>\n"
        "\n"
        "Result-store toolbox over both on-disk formats (autodetected):\n"
        "  inspect   summarize format, schema, files, and record kinds\n"
        "  convert   rewrite <in> as <out> in the target format (--to;\n"
        "            default: the opposite of <in>); lossless both ways\n"
        "  compact   fold a binlog store's append logs into one log\n");
}

/** Load the merged view of a store; exit(2) with a diagnostic if it is
 *  missing or yields nothing parseable. */
std::unique_ptr<StoreBackend>
loadOrDie(const std::string& path, std::vector<JsonRecord>& records,
          StoreLoadInfo& info)
{
    std::unique_ptr<StoreBackend> be =
        openStoreBackend(path, StoreFormat::Json, "sweep-store");
    if (!be->load(records, &info, /*quarantineBadTails=*/false)) {
        std::fprintf(stderr, "sweep-store: cannot read result store %s\n",
                     path.c_str());
        std::exit(2);
    }
    if (info.salvaged && records.empty()) {
        std::fprintf(stderr,
                     "sweep-store: cannot parse result store %s (no "
                     "parseable records)\n",
                     path.c_str());
        std::exit(2);
    }
    return be;
}

int
runInspect(const std::string& path)
{
    std::vector<JsonRecord> records;
    StoreLoadInfo info;
    const std::unique_ptr<StoreBackend> be = loadOrDie(path, records, info);
    int schema = 1; // a store without a schema record predates it
    std::size_t episodes = 0, leases = 0, metas = 0, other = 0;
    std::map<std::string, std::size_t> perFp;
    for (const JsonRecord& rec : records) {
        if (rec.name == kSweepStoreSchemaRecord) {
            schema = static_cast<int>(rec.number("schema", 1));
            continue;
        }
        std::string fp;
        if (sweepEpisodeIndex(rec.name, &fp) >= 0) {
            ++episodes;
            ++perFp[fp];
        } else if (sweepLeaseFingerprint(rec.name)) {
            ++leases;
        } else if (rec.name.rfind("v2|", 0) == 0) {
            ++metas;
        } else {
            ++other;
        }
    }
    std::printf("store:    %s\n", path.c_str());
    std::printf("format:   %s\n", storeFormatName(be->format()));
    std::printf("schema:   %d\n", schema);
    std::printf("files:    %zu (%llu bytes)\n", info.files,
                static_cast<unsigned long long>(info.totalBytes));
    std::printf("records:  %zu merged (%zu episodes across %zu ledgers, "
                "%zu meta, %zu lease, %zu other)\n",
                records.size(), episodes, perFp.size(), metas, leases,
                other);
    if (info.salvaged)
        std::printf("salvage:  torn/corrupt content skipped (%llu of %llu "
                    "bytes were parseable)\n",
                    static_cast<unsigned long long>(info.goodBytes),
                    static_cast<unsigned long long>(info.totalBytes));
    return 0;
}

int
runConvert(const std::string& in, const std::string& out,
           const std::string& toFlag)
{
    std::vector<JsonRecord> records;
    StoreLoadInfo info;
    const std::unique_ptr<StoreBackend> src = loadOrDie(in, records, info);
    StoreFormat to = src->format() == StoreFormat::Json
                         ? StoreFormat::Binlog
                         : StoreFormat::Json;
    if (!toFlag.empty() && !parseStoreFormat(toFlag, to)) {
        std::fprintf(stderr,
                     "sweep-store: --to: expected json or binlog, got "
                     "'%s'\n",
                     toFlag.c_str());
        return 2;
    }
    StoreFormat existing;
    if (detectStoreFormat(out, existing) && existing != to) {
        // openStoreBackend would silently keep the existing format; for
        // an explicit convert that surprise should be an error.
        std::fprintf(stderr,
                     "sweep-store: %s already exists as a %s store; "
                     "remove it or pick a different output\n",
                     out.c_str(), storeFormatName(existing));
        return 2;
    }
    std::unique_ptr<StoreBackend> dst =
        openStoreBackend(out, to, "sweep-store");
    // Sorted-by-name map: the exact record order writeJsonRecords uses,
    // so a binlog converted back to json reproduces the original file
    // byte for byte.
    std::map<std::string, JsonRecord> full;
    std::vector<JsonRecord> batch;
    batch.reserve(records.size());
    for (JsonRecord& rec : records) {
        full[rec.name] = rec;
        batch.push_back(std::move(rec));
    }
    std::sort(batch.begin(), batch.end(),
              [](const JsonRecord& a, const JsonRecord& b) {
                  return a.name < b.name;
              });
    std::string error;
    if (!dst->flush(full, batch, &error)) {
        std::fprintf(stderr, "sweep-store: cannot write %s: %s\n",
                     out.c_str(), error.c_str());
        return 2;
    }
    std::printf("converted %s (%s) -> %s (%s): %zu records\n", in.c_str(),
                storeFormatName(src->format()), out.c_str(),
                storeFormatName(to), batch.size());
    return 0;
}

int
runCompact(const std::string& path)
{
    std::vector<JsonRecord> records;
    StoreLoadInfo info;
    const std::unique_ptr<StoreBackend> be = loadOrDie(path, records, info);
    std::string error, note;
    if (!be->compact(&error, &note)) {
        std::fprintf(stderr, "sweep-store: compact %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    std::printf("%s\n", note.c_str());
    return 0;
}

int
runTool(int argc, char** argv)
{
    std::vector<std::string> args;
    std::string toFlag;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(stdout);
            return 0;
        }
        if (std::strncmp(argv[i], "--to=", 5) == 0) {
            toFlag = argv[i] + 5;
        } else if (std::strcmp(argv[i], "--to") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "sweep-store: --to needs a value\n");
                return 2;
            }
            toFlag = argv[++i];
        } else if (std::strncmp(argv[i], "--", 2) == 0) {
            std::fprintf(stderr, "sweep-store: unknown flag %s\n", argv[i]);
            usage(stderr);
            return 2;
        } else {
            args.emplace_back(argv[i]);
        }
    }
    if (args.empty()) {
        usage(stderr);
        return 2;
    }
    const std::string& cmd = args[0];
    if (cmd == "inspect" && args.size() == 2)
        return runInspect(args[1]);
    if (cmd == "convert" && args.size() == 3)
        return runConvert(args[1], args[2], toFlag);
    if (cmd == "compact" && args.size() == 2)
        return runCompact(args[1]);
    usage(stderr);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return runTool(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sweep-store: %s\n", e.what());
        return 2;
    }
}
