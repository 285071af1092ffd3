#include "core/store_backend.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/binlog.hpp"
#include "common/io_retry.hpp"
#include "common/store_keys.hpp"

namespace create {

namespace {

constexpr const char* kLogSuffix = ".crbl";

bool
hasSuffix(const std::string& s, const char* suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Worker tag -> file-name-safe stem ("host:pid.seq" -> "host-pid-seq"). */
std::string
sanitizeTag(const std::string& tag)
{
    std::string out;
    for (const char c : tag)
        out.push_back(
            (std::isalnum(static_cast<unsigned char>(c)) || c == '-')
                ? c
                : '-');
    return out.empty() ? "writer" : out;
}

/** The single-file JSON array store (interchange/golden format). */
class JsonStoreBackend final : public StoreBackend
{
  public:
    explicit JsonStoreBackend(std::string path) : path_(std::move(path)) {}

    StoreFormat format() const override { return StoreFormat::Json; }
    const std::string& path() const override { return path_; }
    std::string lastDataFile() const override { return path_; }

    bool load(std::vector<JsonRecord>& out, StoreLoadInfo* info,
              bool quarantineBadTails) override
    {
        out.clear();
        if (info)
            *info = StoreLoadInfo{};
        JsonSalvage sal;
        if (!readJsonRecordsSalvaged(path_, out, &sal))
            return false; // no store yet
        if (info) {
            info->files = 1;
            info->records = out.size();
            info->salvaged = sal.salvaged;
            info->goodBytes = sal.goodBytes;
            info->totalBytes = sal.totalBytes;
        }
        if (sal.salvaged && sal.goodBytes > 0 && quarantineBadTails) {
            const std::string q = quarantineTail(path_, sal.goodBytes);
            if (info && !q.empty())
                info->quarantined.push_back(q);
        }
        return true;
    }

    bool flush(const std::map<std::string, JsonRecord>& full,
               const std::vector<JsonRecord>& batch,
               std::string* error) override
    {
        (void)batch; // a rewrite always carries the whole merged view
        return writeJsonRecords(path_, full, error);
    }

    bool compact(std::string* error, std::string* note) override
    {
        (void)error;
        if (note)
            *note = "json stores are already compact (single rewritten "
                    "file); nothing to do";
        return true;
    }

  private:
    std::string path_;
};

/** The per-writer binary append-log store (common/binlog framing). */
class BinlogStoreBackend final : public StoreBackend
{
  public:
    BinlogStoreBackend(std::string path, const std::string& writerTag,
                       bool singleFile)
        : path_(std::move(path)), singleFile_(singleFile),
          writerFile_(singleFile_
                          ? path_
                          : path_ + "/log-" + sanitizeTag(writerTag) +
                                kLogSuffix)
    {
    }

    StoreFormat format() const override { return StoreFormat::Binlog; }
    const std::string& path() const override { return path_; }

    std::string lastDataFile() const override
    {
        return writer_.isOpen() ? writer_.path() : std::string();
    }

    bool load(std::vector<JsonRecord>& out, StoreLoadInfo* info,
              bool quarantineBadTails) override
    {
        out.clear();
        if (info)
            *info = StoreLoadInfo{};
        std::vector<std::string> logs;
        if (!listLogs(logs))
            return false; // no store yet
        std::map<std::string, JsonRecord> merged;
        for (const std::string& log : logs) {
            std::vector<JsonRecord> recs;
            binlog::LogSalvage sal;
            if (!binlog::readLogRecords(log, recs, &sal)) {
                // Unreadable or foreign-magic file inside the store:
                // surface it as salvage (its bytes contribute nothing)
                // rather than failing every good log around it.
                if (info) {
                    info->salvaged = true;
                    ++info->files;
                    info->totalBytes += sal.totalBytes;
                }
                std::fprintf(stderr,
                             "[binlog] %s is not readable as a binlog; "
                             "skipped\n",
                             log.c_str());
                continue;
            }
            if (info) {
                ++info->files;
                info->salvaged = info->salvaged || sal.salvaged;
                info->goodBytes += sal.goodBytes;
                info->totalBytes += sal.totalBytes;
            }
            if (sal.salvaged && quarantineBadTails &&
                sal.goodBytes < sal.totalBytes) {
                // Copy (never truncate): the log may belong to a live
                // peer, whose own writer heals its tail on next append.
                const std::string q = quarantineTail(
                    log, static_cast<std::size_t>(sal.goodBytes));
                if (info && !q.empty())
                    info->quarantined.push_back(q);
            }
            for (JsonRecord& rec : recs) {
                std::string name = rec.name;
                merged[std::move(name)] = std::move(rec);
            }
        }
        out.reserve(merged.size());
        for (auto& [name, rec] : merged)
            out.push_back(std::move(rec));
        if (info)
            info->records = out.size();
        return true;
    }

    bool flush(const std::map<std::string, JsonRecord>& full,
               const std::vector<JsonRecord>& batch,
               std::string* error) override
    {
        if (!writer_.isOpen()) {
            if (!singleFile_ && ::mkdir(path_.c_str(), 0777) != 0 &&
                errno != EEXIST) {
                if (error)
                    *error = "mkdir " + path_ + ": " +
                             std::strerror(errno);
                return false;
            }
            if (!writer_.open(writerFile_, error))
                return false;
        }
        bool healed = false;
        if (!writer_.checkTail(&healed, error))
            return false;
        if (healed) {
            // Our log lost a suffix underneath us (injected tear,
            // external truncate): one O(store) append of the full view
            // re-publishes anything the cut destroyed. Every other
            // flush stays O(batch).
            for (const auto& [name, rec] : full)
                writer_.append(rec);
        } else {
            for (const JsonRecord& rec : batch)
                writer_.append(rec);
        }
        return writer_.commit(error);
    }

    bool compact(std::string* error, std::string* note) override
    {
        // Offline fold: every log (and every duplicate key) into one
        // fresh log. A live writer would keep appending to its unlinked
        // open log -- run compaction on quiescent stores only.
        std::vector<std::string> logs;
        if (!listLogs(logs)) {
            if (error)
                *error = "no binlog store at " + path_;
            return false;
        }
        std::vector<JsonRecord> merged;
        StoreLoadInfo info;
        if (!load(merged, &info, /*quarantineBadTails=*/true)) {
            if (error)
                *error = "cannot load " + path_;
            return false;
        }
        const std::string compacted =
            singleFile_ ? path_
                        : path_ + "/log-compact" + kLogSuffix;
        const std::string tmp = compacted + ".tmp." +
                                std::to_string(static_cast<long>(getpid()));
        binlog::LogWriter w;
        if (!w.open(tmp, error))
            return false;
        for (const JsonRecord& rec : merged)
            w.append(rec);
        if (!w.commit(error)) {
            w.close();
            std::remove(tmp.c_str());
            return false;
        }
        w.close();
        std::string renameErr;
        if (!io::renameRetry(tmp.c_str(), compacted.c_str(), &renameErr)) {
            if (error)
                *error = renameErr;
            std::remove(tmp.c_str());
            return false;
        }
        // Old logs go only after the compacted one is durable; a crash
        // in between leaves duplicates, which merge-on-read dedups.
        std::size_t removed = 0;
        for (const std::string& log : logs)
            if (log != compacted && std::remove(log.c_str()) == 0)
                ++removed;
        if (note)
            *note = "compacted " + std::to_string(info.files) +
                    " log(s), " + std::to_string(merged.size()) +
                    " records (" + std::to_string(removed) +
                    " old log(s) removed) -> " + compacted;
        return true;
    }

  private:
    /** Every data log of the store, lexicographically sorted (the merge
     *  order ties duplicate keys deterministically). False when nothing
     *  exists at path_. */
    bool listLogs(std::vector<std::string>& out) const
    {
        out.clear();
        if (singleFile_) {
            struct stat st;
            if (::stat(path_.c_str(), &st) != 0)
                return false;
            out.push_back(path_);
            return true;
        }
        DIR* dir = ::opendir(path_.c_str());
        if (!dir)
            return false;
        while (const dirent* ent = ::readdir(dir)) {
            const std::string name = ent->d_name;
            if (hasSuffix(name, kLogSuffix))
                out.push_back(path_ + "/" + name);
        }
        ::closedir(dir);
        std::sort(out.begin(), out.end());
        return true;
    }

    std::string path_;
    bool singleFile_;
    std::string writerFile_;
    binlog::LogWriter writer_;
};

} // namespace

const char*
storeFormatName(StoreFormat format)
{
    return format == StoreFormat::Binlog ? "binlog" : "json";
}

bool
parseStoreFormat(const std::string& name, StoreFormat& out)
{
    if (name == "json") {
        out = StoreFormat::Json;
        return true;
    }
    if (name == "binlog") {
        out = StoreFormat::Binlog;
        return true;
    }
    return false;
}

bool
detectStoreFormat(const std::string& path, StoreFormat& out)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return false;
    if (S_ISDIR(st.st_mode)) {
        out = StoreFormat::Binlog;
        return true;
    }
    // A bare file: binlog iff it opens with the frame-log magic; any
    // other content is the json parser's to classify (including garbage,
    // which its salvage path reports precisely).
    out = binlog::isBinlogFile(path) ? StoreFormat::Binlog
                                     : StoreFormat::Json;
    return true;
}

std::unique_ptr<StoreBackend>
openStoreBackend(const std::string& path, StoreFormat requested,
                 const std::string& writerTag, std::string* formatNote)
{
    if (path.empty())
        throw std::invalid_argument("openStoreBackend: empty store path");
    StoreFormat actual = requested;
    bool singleFile = false;
    StoreFormat detected;
    if (detectStoreFormat(path, detected)) {
        if (detected != requested && formatNote)
            *formatNote = "store " + path + " already exists as " +
                          storeFormatName(detected) + "; the requested " +
                          storeFormatName(requested) +
                          " format only applies to new stores";
        actual = detected;
        struct stat st;
        singleFile = actual == StoreFormat::Binlog &&
                     ::stat(path.c_str(), &st) == 0 &&
                     S_ISREG(st.st_mode);
    }
    if (actual == StoreFormat::Binlog)
        return std::make_unique<BinlogStoreBackend>(path, writerTag,
                                                    singleFile);
    return std::make_unique<JsonStoreBackend>(path);
}

void
reportStoreSalvage(const char* tag, const std::string& path,
                   const StoreLoadInfo& info)
{
    std::fprintf(stderr,
                 "[%s] result store %s is truncated or corrupt: salvaged "
                 "%zu records (%llu of %llu bytes, %zu file%s); bad tail "
                 "%s%s\n",
                 tag, path.c_str(), info.records,
                 static_cast<unsigned long long>(info.goodBytes),
                 static_cast<unsigned long long>(info.totalBytes),
                 info.files, info.files == 1 ? "" : "s",
                 info.quarantined.empty() ? "could not be quarantined"
                                          : "quarantined to ",
                 info.quarantined.empty()
                     ? ""
                     : info.quarantined.front().c_str());
}

ResultStore::ResultStore(const std::string& path, StoreFormat requested,
                         const std::string& writerTag, std::string tag)
    : tag_(std::move(tag))
{
    std::string note;
    backend_ = openStoreBackend(path, requested, writerTag, &note);
    if (!note.empty())
        std::fprintf(stderr, "[%s] %s\n", tag_.c_str(), note.c_str());
}

StoreOpen
ResultStore::open()
{
    std::vector<JsonRecord> records;
    StoreLoadInfo info;
    if (!backend_->load(records, &info, /*quarantineBadTails=*/true))
        return StoreOpen::Missing;
    if (info.salvaged && records.empty()) {
        // Not a record store at all (hand-edited, a foreign tool): no
        // prefix to salvage. Say so rather than replace it silently --
        // a resumed campaign re-runs every episode it held.
        std::fprintf(stderr,
                     "[%s] cannot parse result store %s; it will be "
                     "replaced\n",
                     tag_.c_str(), backend_->path().c_str());
        return StoreOpen::Unparseable;
    }
    if (info.salvaged)
        reportStoreSalvage(tag_.c_str(), backend_->path(), info);
    for (JsonRecord& rec : records) {
        if (rec.name == kSweepStoreSchemaRecord)
            schema_ = rec.number("schema", 1);
        std::string name = rec.name;
        view_.emplace(std::move(name), std::move(rec));
    }
    // Every older schema's records load as they are. A newer one (or a
    // NaN) must not be written: our records under its schema header
    // would corrupt the store for the build that owns it.
    return schema_ <= kSweepStoreSchema ? StoreOpen::Loaded
                                        : StoreOpen::FutureSchema;
}

void
ResultStore::put(JsonRecord rec)
{
    view_[rec.name] = rec;
    queue_.push_back(std::move(rec));
}

void
ResultStore::insert(JsonRecord rec)
{
    if (view_.try_emplace(rec.name, rec).second)
        queue_.push_back(std::move(rec));
}

bool
ResultStore::publish()
{
    if (queue_.empty() && !owed_)
        return false;
    if (!stamped_) {
        // An appending backend carries one stamp per process; merge on
        // read keeps the newest.
        JsonRecord schema;
        schema.name = kSweepStoreSchemaRecord;
        schema.numbers.emplace_back("schema", kSweepStoreSchema);
        put(std::move(schema));
        stamped_ = true;
    }
    // Bounded backoff over the whole backend flush: a transient
    // ENOSPC/EIO (log rotation racing us, an NFS blip) resolves within
    // the budget, a full disk does not. Both backends roll back a
    // failed flush, so a retry starts clean.
    std::string err;
    for (int attempt = 0; attempt < io::kRetryAttempts; ++attempt) {
        if (attempt > 0) {
            std::fprintf(stderr,
                         "[%s] store write failed (%s); retry %d/%d\n",
                         tag_.c_str(), err.c_str(), attempt,
                         io::kRetryAttempts - 1);
            io::sleepMs(io::kRetryBaseMs << (attempt - 1));
        }
        if (backend_->flush(view_, queue_, &err)) {
            queue_.clear();
            owed_ = false;
            return true;
        }
    }
    throw std::runtime_error(
        "cannot write result store " + backend_->path() + ": " + err +
        " -- campaign aborted; every record up to the last successful "
        "flush is on disk, and a resumed campaign (or a restarted "
        "coordinator) runs only the rest");
}

} // namespace create
