#pragma once

/**
 * @file
 * Storage backends of the campaign result store: one vtable that the
 * store's writer (through ResultStore) and the store readers
 * (sweep-diff, sweep-stats, sweep-store) talk to, two on-disk formats
 * behind it.
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
 * lock. Both writers drive their store through one ResultStore (below):
 * it loads the store once, keeps the merged view, stamps the schema and
 * publishes with bounded retry. The store tools (sweep-diff,
 * sweep-stats, sweep-store) and the benchmarks call the backend
 * directly.
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
 * One result store on disk (see file comment). Not thread-safe: its
 * ResultStore's owner serializes access, tools are single-threaded.
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

/**
 * Print the one-line stderr report of a load that salvaged a torn
 * store: how many records survived, how many bytes of how many files,
 * and where the bad tail was quarantined. `tag` names the reporter
 * ("sweep", "coord", "store").
 */
void reportStoreSalvage(const char* tag, const std::string& path,
                        const StoreLoadInfo& info);

/** What ResultStore::open found at the store path. */
enum class StoreOpen
{
    Missing,      //!< nothing there yet; the first publish creates it
    Loaded,       //!< records loaded (a torn tail salvaged and reported)
    Unparseable,  //!< something is there, but no record parses
    FutureSchema, //!< written by a newer build: its caller must not write
};

/**
 * The single writer of one result store: a local SweepRunner campaign
 * or the create-coordinator that owns the store. open() loads the store
 * once into a merged view (one record per name); from then on every
 * record arrives through put() or insert(), which update the view and
 * queue the record, and publish() hands the backend both. So a publish
 * never re-reads the disk, takes no lock, and never drops a loaded
 * record another campaign wrote. The first publish of the process
 * stamps the current schema, which upgrades an older store in place.
 * Not thread-safe: callers serialize access.
 */
class ResultStore
{
  public:
    /** Open the store at `path` without loading it (see
     *  openStoreBackend; a format note goes to stderr). `tag` prefixes
     *  this store's stderr lines. */
    ResultStore(const std::string& path, StoreFormat requested,
                const std::string& writerTag, std::string tag);

    /**
     * Load the store into the view. Unreadable tails are quarantined
     * before any publish can rewrite them, and a salvage or an
     * unparseable store is reported on stderr. Call once.
     */
    StoreOpen open();

    /** Schema version of the loaded store (1 when it has no schema
     *  record). */
    double schema() const { return schema_; }

    StoreFormat format() const { return backend_->format(); }

    /** The merged view: every loaded record, then every put/insert. */
    const std::map<std::string, JsonRecord>& records() const
    {
        return view_;
    }

    /** Merge `rec` into the view, replacing a record of its name, and
     *  queue it for the next publish. */
    void put(JsonRecord rec);

    /** put() unless the view already holds a record of that name: the
     *  first copy wins, in the view and on disk alike. */
    void insert(JsonRecord rec);

    /** Records queued since the last publish. */
    std::size_t queued() const { return queue_.size(); }

    /**
     * Write the queue (json: the whole view, rewritten; binlog: the
     * queue, appended) through one bounded-retry loop. Returns false,
     * writing nothing, when nothing is queued or owed. Throws
     * std::runtime_error when the backend still fails after
     * io::kRetryAttempts tries: the view keeps every record, but the
     * disk no longer keeps up, and going on would silently void the
     * crash-durability contract.
     */
    bool publish();

    /** The data file the last publish landed in (the chaos tear
     *  target; empty before the first publish to a binlog store). */
    std::string lastDataFile() const { return backend_->lastDataFile(); }

    /**
     * The last publish was damaged after it landed (a torn write): the
     * next publish writes even with nothing queued, and the backend
     * heals from the view (json rewrites it, binlog re-appends it once).
     */
    void owe() { owed_ = true; }

  private:
    std::string tag_;
    std::unique_ptr<StoreBackend> backend_;
    std::map<std::string, JsonRecord> view_;
    std::vector<JsonRecord> queue_;
    double schema_ = 1;
    bool stamped_ = false; //!< schema record published by this process
    bool owed_ = false;
};

} // namespace create
