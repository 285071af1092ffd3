#pragma once

/**
 * @file
 * SweepRunner: the declarative (task x config x reps) campaign engine the
 * figure drivers run on, with the per-episode ledger as its unit of
 * campaign state.
 *
 * Every paper figure is a sweep matrix -- the same evaluate() call over a
 * grid of deployment points -- and every driver used to hand-roll that
 * loop serially. SweepRunner replaces the loop:
 *
 *  - Drivers *declare* their matrix as SweepCells `{platform, taskId,
 *    CreateConfig, reps, seed0}` up front (add() returns a handle), call
 *    run() once, and render tables from stats(handle).
 *  - The unit of record is the episode, not the cell. Episodes are seeded
 *    seed0 + i, so a cell's identity is (platform, task, config, seed0)
 *    alone -- `reps` is just a prefix length. Cells sharing that identity
 *    share one *episode ledger*; a reps=120 ledger serves any reps<=120
 *    cell by slicing its prefix, and a reps=50 ledger partially seeds a
 *    reps=120 request, executing only episodes 50..119. TaskStats is a
 *    pure deterministic fold (aggregate()) over the ledger prefix, so
 *    sliced, resumed, and executed cells are all bit-identical.
 *  - Cell-level sharding: a shared worker pool drains the queue of
 *    pending ledgers; each worker owns bit-identical EmbodiedSystem
 *    replicas (frozen model set shared, see core/shared_models.hpp) and
 *    runs episodes through the existing engine, so every cell's stats are
 *    bit-identical to serial execution regardless of thread count. When
 *    ledgers are scarcer than workers the leftover budget fans out
 *    *within* a ledger via setEvalThreads (the ParallelEvaluator path).
 *  - Streaming result store: completed episodes flush to the JSON store
 *    in batches of Options::flushEvery (atomic tmp+rename writes that
 *    merge with the records already on disk), so a campaign killed
 *    mid-cell resumes from the surviving episode prefix instead of
 *    re-running the cell. Legacy cell-level (v1) stores are still read --
 *    served read-only for whole-cell resume, never merged into ledgers.
 *  - Distributed sharding: Options::shardIndex/shardCount partition the
 *    pending-ledger list (post-memoization, post-resume, ordered by
 *    fingerprint) so N processes sharing one --out store cover a
 *    campaign exactly once. Each flush re-merges with the store on disk,
 *    so concurrent shards union rather than clobber. The partition is
 *    computed from the pending list each process observes at startup:
 *    launch all shards against the same store snapshot (or none), not
 *    against each other's partial output.
 *  - Elastic lease mode (Options::leaseSeconds > 0): instead of a static
 *    partition, every process claims the stalest unclaimed/expired ledger
 *    under the store's cross-process flock, writing a per-fingerprint
 *    lease record ({owner host:pid, generation, renewedAt, done}) that it
 *    renews on every flush. A worker that dies (kill -9, OOM, chaos
 *    abort) simply stops renewing: within one lease period a survivor
 *    steals the ledger (generation bump) and gap-fills only the episode
 *    indices missing from the store -- the same exactly-once primitive
 *    --resume uses -- so the campaign completes with zero manual
 *    intervention and the final store is bit-identical to a serial run.
 *    A straggler whose lease is stolen keeps running; its flushes merge
 *    idempotently (episodes are deterministic) and it stops renewing the
 *    lost lease. Lease expiry compares wall clocks across machines, so
 *    hosts sharing a store should be NTP-synced with skew << the lease
 *    period.
 *
 * Scheduling constraint: freezing quantized weights is per-width state on
 * the shared model set, so cells of the same platform at different
 * QuantBits must not run concurrently. run() therefore executes in waves
 * of one (platform, bits) bucket each, pre-warming the bucket's configs
 * serially (prepare) before fanning its ledgers out.
 */

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "common/store_keys.hpp"
#include "core/embodied_system.hpp"
#include "core/store_backend.hpp"

namespace create {

/** One (platform, task, config, repetitions) point of a campaign. */
struct SweepCell
{
    std::string platform; //!< PlatformRegistry key, e.g. "jarvis-1"
    int taskId = 0;
    CreateConfig cfg;
    int reps = 1;
    std::uint64_t seed0 = EmbodiedSystem::kDefaultSeed0;
    std::string label; //!< cosmetic: verbose progress + store records
};

/** Where a cell's result came from. */
enum class CellSource
{
    Executed, //!< episodes ran in this campaign
    Memoized, //!< shared an earlier identical cell's result (same reps)
    Resumed,  //!< loaded from the resume store without executing
    Sliced,   //!< prefix of a longer ledger executed in this campaign
    Skipped,  //!< owned by another shard; stats cover the local prefix only
};

/**
 * Canonical fingerprint of a cell's *ledger*: equal behavior => equal
 * string. `reps` is canonicalized away (episodes are seeded seed0 + i, so
 * reps is a prefix length, not part of the identity), as is anything that
 * cannot affect execution. Keys memoization, the result store, and shard
 * partitioning.
 */
std::string sweepFingerprint(const SweepCell& cell);

/**
 * The PR 4-era cell fingerprint (includes reps). Only used by the store
 * migration read path to match records in legacy cell-level stores.
 */
std::string sweepFingerprintLegacyV1(const SweepCell& cell);

/** Kept only for the campaign benchmark's `batch_*` report fields. */
struct BatchStats
{
    std::uint64_t requests = 0, groups = 0, windowExpiries = 0;
};

// The store schema version and record-key grammar (sweepEpisodeKey,
// sweepLeaseKey, ...) live in common/store_keys.hpp: both storage
// backends (JSON interchange and the binary append log) and the store
// readers share them, so they sit below the sweep layer.

/** Declarative campaign runner (see file comment). */
class SweepRunner
{
  public:
    struct Options
    {
        int threads = 1;       //!< total worker budget (ledgers + episodes)
        std::string storePath; //!< result store; empty disables it
        /**
         * On-disk format when the store is created: Json (default, the
         * interchange/golden format) or Binlog (per-writer append logs,
         * O(batch) flushes). A store that already exists keeps its
         * detected format regardless of this flag.
         */
        StoreFormat storeFormat = StoreFormat::Json;
        bool resume = false;   //!< satisfy cells from the store's ledgers
        bool verbose = false;  //!< per-ledger progress lines on stderr
        bool progress = false; //!< one stderr status line per flush batch
        int flushEvery = 16;   //!< episodes per store flush / progress tick
        int shardIndex = 0;    //!< this process's shard (0-based)
        int shardCount = 1;    //!< total shards; 1 disables partitioning
        /**
         * Elastic lease mode: > 0 replaces the static shard partition
         * with lease-based work claiming against the shared store (see
         * file comment). The value is the steal latency bound: a dead
         * worker's ledger is reclaimed once its lease has not been
         * renewed for this many seconds. Renewals ride on flushes, so
         * keep leaseSeconds comfortably above the worst-case flush
         * interval (flushEvery x slowest episode). 0 (default) keeps the
         * pre-lease behavior bit-identical.
         */
        double leaseSeconds = 0.0;
        /**
         * Connected campaign mode: "host:port" of a create-coordinator
         * process (tools/create_coordinator, core/coordinator.hpp) that
         * owns the campaign store. The runner declares its ledgers to
         * the coordinator, runs the episode ranges it is dispatched,
         * and streams completed records back as binlog frames -- no
         * shared filesystem (and no local store) required. Episodes
         * another worker ran are fetched back over the wire at the end,
         * so stats() folds are bit-identical to a serial run. Mutually
         * exclusive with the shared-store options (storePath, resume,
         * shard*, leaseSeconds): the coordinator owns all store state.
         */
        std::string connect;
    };

    SweepRunner();
    explicit SweepRunner(Options opt);
    SweepRunner(const SweepRunner&) = delete;
    SweepRunner& operator=(const SweepRunner&) = delete;

    /**
     * Declare a cell; returns its handle. Validates the platform name
     * against the PlatformRegistry (throws std::invalid_argument on an
     * unknown platform). Campaigns can be phased: add() more cells after
     * a run() -- results already gathered can steer what the next phase
     * declares (e.g. fig16's fallback operating point only where the
     * voltage search failed) -- then run() again.
     */
    std::size_t add(SweepCell cell);

    /** Number of declared cells. */
    std::size_t size() const { return cells_.size(); }

    /**
     * Execute every not-yet-completed cell (so re-running after adding a
     * new phase of cells only executes the additions). Only the episodes
     * missing from each cell's ledger run -- stored or previously
     * executed prefixes are reused. Prints the one-line summary
     * ("[sweep] cells=... executed=...") after the first run and after
     * any phase with work.
     */
    void run();

    const SweepCell& cell(std::size_t handle) const;

    /**
     * Aggregated stats of a cell: the deterministic fold of its ledger
     * prefix (run() must have completed). For a Skipped cell (sharded
     * campaign, owned by another process) this covers only the episodes
     * present locally -- possibly none.
     */
    const TaskStats& stats(std::size_t handle) const;

    /** How this cell's result was obtained. */
    CellSource source(std::size_t handle) const;

    /**
     * Per-episode results of a cell: its prefix of the shared ledger.
     * Cells resumed from a v2 store read them directly; cells resumed
     * from a legacy v1 store re-derive them on demand by re-running
     * (deterministic, so the results are the ones the stored stats came
     * from).
     */
    const std::vector<EpisodeResult>& episodes(std::size_t handle);

    /**
     * The engine's prototype system of a platform (built on demand from
     * the PlatformRegistry); useful for task-name lookups when rendering.
     */
    EmbodiedSystem& system(const std::string& platform);

    int executedCells() const { return executed_; }
    int memoizedCells() const { return memoized_; }
    int resumedCells() const { return resumed_; }
    int slicedCells() const { return sliced_; }
    int skippedCells() const { return skipped_; }

    /** Episodes actually executed by this runner (campaign lifetime). */
    long long episodesExecuted() const { return episodesExecuted_; }

    /** Leases taken over from another (dead or stale) worker. */
    long long leasesStolen() const { return leasesStolen_.load(); }

    /** Expired foreign leases observed while scanning for work. */
    long long leasesExpired() const { return leasesExpired_.load(); }

    /** The worker identity lease records carry ("host:pid.seq"). */
    const std::string& workerId() const { return workerId_; }

    /** Always zero; see BatchStats. */
    BatchStats batchStats() const { return {}; }

    /** The "[sweep] ..." summary line run() prints. */
    std::string summary() const;

  private:
    /** Shared episode ledger of one fingerprint. */
    struct Ledger
    {
        std::vector<EpisodeRecord> eps;
        std::vector<char> have;
        bool anyExecuted = false; //!< gained episodes by running, ever

        void grow(int need);
        int prefixLen(int limit) const;
    };

    struct CellState
    {
        SweepCell cell;
        std::string fingerprint;
        std::size_t primary = 0; //!< first cell with this (fp, reps)
        CellSource source = CellSource::Executed;
        TaskStats stats;
        std::vector<EpisodeResult> episodes; //!< cached prefix slice
        bool hasEpisodes = false;
        bool done = false;
    };

    /** One pending ledger: the episode ranges it still needs to run. */
    struct WorkUnit
    {
        std::string fingerprint;
        std::size_t owner = 0; //!< first member cell with the max reps
        int need = 0;
        std::vector<std::pair<int, int>> runs; //!< missing (start, count)
        std::vector<std::size_t> members;      //!< primary cells, any reps
        Ledger* led = nullptr;
    };

    class StoreSink; //!< EpisodeSink streaming a unit's episodes in
    class CoordSink; //!< EpisodeSink streaming a range to the coordinator

    /** In-memory side of a lease this worker holds (keyed by fp). */
    struct ActiveLease
    {
        std::uint64_t gen = 0;
        bool done = false;
    };

    EmbodiedSystem* prototypeFor(const std::string& platform);
    void runUnit(WorkUnit& unit, EmbodiedSystem& sys);
    void finalizeGroup(const std::string& fingerprint,
                       const std::vector<std::size_t>& members,
                       std::size_t owner, bool executedNow, bool skipped);
    void loadStore(std::map<std::string, std::map<int, EpisodeRecord>>& eps,
                   std::map<std::string, TaskStats>& legacy);
    void flushStore();
    void progressLine();
    // Elastic lease mode (all under storeIoMu_ unless noted).
    void runElastic(std::vector<WorkUnit>& units); //!< takes no locks itself
    // Connected (coordinator) mode: run dispatched ranges, stream the
    // records back, fetch peers' episodes at the end.
    void runConnected(std::vector<WorkUnit>& units);
    WorkUnit* claimNext(std::vector<WorkUnit*>& pending);
    void gapFillFromStore(WorkUnit& unit);
    void mergeDiskRecordLocked(JsonRecord&& rec);
    void renewLeasesLocked(double now, std::vector<JsonRecord>& batch);
    StoreBackend* ensureBackendLocked();
    bool persistLocked(const std::vector<JsonRecord>& batch,
                       std::string* error);

    Options opt_;
    bool ran_ = false;
    // Deque: phased add() must not invalidate the stats()/cell()/
    // episodes() references handed out for earlier phases' handles.
    std::deque<CellState> cells_;
    std::map<std::string, std::size_t> byKey_; //!< (fp, reps) -> primary
    std::map<std::string, Ledger> ledgers_;
    std::map<std::string, std::unique_ptr<EmbodiedSystem>> prototypes_;
    std::map<std::string, std::vector<std::unique_ptr<EmbodiedSystem>>>
        replicas_;
    /**
     * Store records by name: everything loaded from disk plus every
     * flushed episode. Flushes write this merged view (re-merged, under
     * a cross-process file lock, with whatever is on disk when shards
     * share the store), so records another campaign or shard needs are
     * never dropped by a rewrite. Owned by the flush path: only touched
     * under storeIoMu_ (or before workers start).
     */
    std::map<std::string, JsonRecord> storeRecords_;
    /**
     * Episode records completed since the last flush. Workers append
     * here under storeMu_ -- O(batch), never O(store) -- and flushStore
     * drains it into storeRecords_ under storeIoMu_.
     */
    std::vector<JsonRecord> pendingRecords_;
    /**
     * Records produced on the I/O path since the last flush (ledger meta
     * stamps, renewed/claimed leases written directly into storeRecords_)
     * that appending backends still owe the disk. Guarded by storeIoMu_;
     * flushStore folds it into the flush batch. Rewriting backends write
     * the whole merged view anyway, so for them this is only a
     * should-we-skip signal.
     */
    std::vector<JsonRecord> pendingIo_;
    /** The storage backend behind storePath (lazily opened; reset when a
     *  future-schema store disables the store path). */
    std::unique_ptr<StoreBackend> store_;
    bool schemaStamped_ = false; //!< schema record appended this process
    std::mutex storeMu_;   //!< guards ledgers, cell completion, pending
    std::mutex storeIoMu_; //!< guards storeRecords_ + the file write
    std::uint64_t storeVersion_ = 0; //!< bumped per flush batch
    std::uint64_t storeWritten_ = 0; //!< newest version on disk
    int flushTick_ = 0;              //!< episodes since the last flush
    /**
     * Elastic lease state. workerId_ is fixed at construction; the lease
     * map and the expiry-dedup set live under storeIoMu_ (claims and
     * renewals happen inside the store's locked read-merge-write). The
     * telemetry counters are atomics so the progress line and summary
     * read them lock-free.
     */
    std::string workerId_;
    std::map<std::string, ActiveLease> activeLeases_;
    std::map<std::string, std::uint64_t> expiredSeen_; //!< fp -> max gen
    std::atomic<long long> leasesStolen_{0};
    std::atomic<long long> leasesExpired_{0};
    int executed_ = 0;
    int memoized_ = 0;
    int resumed_ = 0;
    int sliced_ = 0;
    int skipped_ = 0;
    long long episodesExecuted_ = 0;
    // Progress accounting of the current run() (guarded by storeMu_).
    long long progressTotal_ = 0;
    long long progressDone_ = 0;
    long long progressSucc_ = 0;
    std::size_t unitsTotal_ = 0;
    std::size_t unitsDone_ = 0;
    double progressStart_ = 0.0; //!< steady-clock seconds at run() start
    /**
     * Sliding window of recent episode wall times (ms) and the running
     * injected-flip total, both fed by the metrics payload each episode
     * drains; the --progress line reports live p95 episode time and
     * flips/episode from them. Guarded by storeMu_.
     */
    std::vector<double> progressWall_;
    std::size_t progressWallNext_ = 0;
    std::uint64_t progressFlips_ = 0;
};

} // namespace create
