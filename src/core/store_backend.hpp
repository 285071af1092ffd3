#pragma once

/**
 * @file
 * Storage backends of the SweepRunner result store: one vtable the sweep
 * engine and the store readers (sweep-diff, sweep-stats, sweep-store)
 * talk to, two on-disk formats behind it.
 *
 *  - **json** (the default, and the interchange/diff/golden format): one
 *    `[ ... ]` array of flat records, rewritten atomically (tmp+rename)
 *    on every flush. Human-greppable and byte-stable, but a flush costs
 *    O(store).
 *  - **binlog** (the campaign-scale format): a *directory* of per-writer
 *    binary append logs (`log-<worker>.crbl`, common/binlog frame
 *    codec). A flush appends O(batch) CRC-framed records to the caller's
 *    own log -- no rewrite. Readers scan every log, salvage torn tails
 *    (quarantining the bad suffix), and fold duplicate keys
 *    last-writer-wins.
 *
 * A store has one writer process at a time (a local campaign or the
 * create-coordinator that owns it), so no backend takes a cross-process
 * lock.
 *
 * Both formats carry the same JsonRecord model and the same store-key
 *  grammar (common/store_keys), and doubles survive both round trips
 * bit-exactly, so a campaign's folded TaskStats are bit-identical
 * whichever backend ran it -- `sweep-diff a.json b.binlog` is a
 * meaningful gate, and `sweep-store convert` is lossless either way.
 *
 * Format resolution: a store that already exists on disk keeps its
 * detected format (magic bytes / directory-ness) regardless of the
 * requested one -- the flag only matters at creation -- so every reader
 * and resumed campaign autodetects.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hpp"

namespace create {

/** On-disk format of a result store. */
enum class StoreFormat
{
    Json,   //!< single rewritten JSON array (interchange/golden format)
    Binlog, //!< directory of per-writer binary append logs
};

/** Human name ("json"/"binlog"). */
const char* storeFormatName(StoreFormat format);

/** Parse "json"/"binlog"; false on anything else. */
bool parseStoreFormat(const std::string& name, StoreFormat& out);

/** Aggregated outcome of a backend load (all data files of the store). */
struct StoreLoadInfo
{
    bool salvaged = false; //!< some file had an unreadable tail
    std::size_t files = 0; //!< data files scanned (json: 1)
    std::size_t records = 0;
    std::uint64_t goodBytes = 0;
    std::uint64_t totalBytes = 0;
    std::vector<std::string> quarantined; //!< quarantine files written
};

/**
 * One result store on disk (see file comment). Not thread-safe: the
 * sweep engine serializes access under its store I/O mutex, tools are
 * single-threaded.
 */
class StoreBackend
{
  public:
    virtual ~StoreBackend() = default;

    virtual StoreFormat format() const = 0;

    /** The store path ( json: the file; binlog: the directory). */
    virtual const std::string& path() const = 0;

    /**
     * Merged view of every record on disk: one record per key, duplicate
     * keys folded later-writer-wins. Returns false when no store exists
     * yet; a store that exists but yields no parseable record returns
     * true with `info->salvaged` set and `out` empty. With
     * `quarantineBadTails`, unreadable suffixes are preserved next to
     * their file before anything rewrites them.
     */
    virtual bool load(std::vector<JsonRecord>& out, StoreLoadInfo* info,
                      bool quarantineBadTails) = 0;

    /**
     * Publish one flush. `full` is the caller's merged whole-store view,
     * `batch` the records changed since the last successful flush (in
     * arrival order; later duplicates win). The json backend rewrites
     * `full` atomically and ignores `batch`; the binlog backend appends
     * `batch` to this process's own log -- O(batch) -- falling back to
     * one `full` append only when it detects its log was torn/truncated
     * underneath it (self-heal). False on I/O failure with `error` set;
     * safe to retry.
     */
    virtual bool flush(const std::map<std::string, JsonRecord>& full,
                       const std::vector<JsonRecord>& batch,
                       std::string* error) = 0;

    /** The data file this process's flushes land in (chaos tear target;
     *  empty before the first flush of an appending backend). */
    virtual std::string lastDataFile() const = 0;

    /**
     * Fold the store to its minimal form: binlog merges every log (and
     * every duplicate key) into one fresh log and removes the old ones;
     * json stores are already compact (no-op). Quiescent stores only --
     * live writers keep appending to their (removed) open logs.
     * `note` (optional) receives a one-line human summary.
     */
    virtual bool compact(std::string* error, std::string* note) = 0;
};

/**
 * Detect the on-disk format of `path`: a directory is a binlog store, a
 * file starting with the binlog magic is a (single-log) binlog store,
 * any other file is json (its parser classifies further). Returns false
 * when nothing exists at `path` (`out` is left at the caller's
 * requested default).
 */
bool detectStoreFormat(const std::string& path, StoreFormat& out);

/**
 * Open a store at `path`. When something already exists there its
 * detected format wins over `requested` (a one-line note lands in
 * `formatNote` when they disagree); otherwise the store will be created
 * with the requested format on its first flush. `writerTag` names this
 * process's append log in a binlog store (sanitized into the file name;
 * pass the sweep worker id, or a tool name). Never returns null; throws
 * std::invalid_argument on an empty path.
 */
std::unique_ptr<StoreBackend>
openStoreBackend(const std::string& path, StoreFormat requested,
                 const std::string& writerTag,
                 std::string* formatNote = nullptr);

} // namespace create
