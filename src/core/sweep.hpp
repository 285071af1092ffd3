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
 *  - Episode-level scheduling: run() hands every pending ledger's
 *    missing episodes to EmbodiedSystem::runJobs as one flat job list,
 *    run on Options::threads threads that share the platform's one
 *    prepared system (frozen model set, see core/shared_models.hpp).
 *    Whichever thread lands a ledger's last episode finalizes its cells
 *    and flushes the store. Episodes are seeded, so every cell's stats
 *    are bit-identical to serial execution regardless of thread count.
 *  - Streaming result store: completed episodes flush to the store in
 *    batches of Options::flushEvery (json: atomic tmp+rename rewrites;
 *    binlog: O(batch) appends), so a campaign killed mid-cell resumes
 *    from the surviving episode prefix instead of re-running the cell.
 *    A store has one writer process at a time -- this runner, or the
 *    create-coordinator that owns it -- and both drive it through one
 *    ResultStore (core/store_backend.hpp): the first run() loads it
 *    once, and flushes take no cross-process lock and never re-read
 *    the disk. A newer build's store is left untouched: the campaign
 *    runs without it.
 *  - One process or a coordinator fleet: a campaign runs on local
 *    threads, or as Options::connect socket workers of a
 *    create-coordinator (core/coordinator.hpp), which owns the store and
 *    dispatches episode ranges with exactly-once gap-fill, re-dispatch
 *    on timeout and salvage on restart. A worker keeps its coordinator
 *    connection across phased run() calls, so a campaign steered by its
 *    own results (fig16) spans phases on one connection.
 *
 * Scheduling constraint: freezing quantized weights is per-width state on
 * the shared model set, so cells of the same platform at different
 * QuantBits must not run concurrently. run() therefore executes in waves
 * of one (platform, bits) bucket each, one runJobs() call per wave, which
 * prepares the wave's configs serially before fanning its episodes out.
 */

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

class CoordClient;

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
};

/**
 * Canonical fingerprint of a cell's *ledger*: equal behavior => equal
 * string. `reps` is canonicalized away (episodes are seeded seed0 + i, so
 * reps is a prefix length, not part of the identity), as is anything that
 * cannot affect execution. Keys memoization, the result store, and the
 * coordinator's range dispatch.
 */
std::string sweepFingerprint(const SweepCell& cell);

/** Kept only for the campaign benchmark's `batch_*` report fields. */
struct BatchStats
{
    std::uint64_t requests = 0, groups = 0, windowExpiries = 0;
};

// The store schema version and record-key grammar (sweepEpisodeKey,
// sweepWorkerKey, ...) live in common/store_keys.hpp: both storage
// backends (JSON interchange and the binary append log) and the store
// readers share them, so they sit below the sweep layer.

/** Declarative campaign runner (see file comment). */
class SweepRunner
{
  public:
    struct Options
    {
        int threads = 1;       //!< threads running episodes
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
        /**
         * Connected campaign mode: "host:port" of a create-coordinator
         * process (tools/create_coordinator, core/coordinator.hpp) that
         * owns the campaign store. The runner declares its ledgers to
         * the coordinator, runs the episode ranges it is dispatched,
         * and streams completed records back as binlog frames -- no
         * shared filesystem (and no local store) required. Episodes
         * another worker ran are fetched back over the wire at the end,
         * so stats() folds are bit-identical to a serial run. The
         * connection stays open across phased run() calls and closes
         * with the runner. Mutually exclusive with storePath and resume:
         * the coordinator owns all store state.
         */
        std::string connect;
    };

    SweepRunner();
    explicit SweepRunner(Options opt);
    ~SweepRunner();
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
     * prefix (run() must have completed).
     */
    const TaskStats& stats(std::size_t handle) const;

    /** How this cell's result was obtained. */
    CellSource source(std::size_t handle) const;

    /** Per-episode results of a cell: its prefix of the shared ledger. */
    const std::vector<EpisodeResult>& episodes(std::size_t handle);

    /**
     * The engine's system of a platform (built on demand from the
     * PlatformRegistry), which runs every episode of that platform;
     * useful for task-name lookups when rendering.
     */
    EmbodiedSystem& system(const std::string& platform);

    int executedCells() const { return executed_; }
    int memoizedCells() const { return memoized_; }
    int resumedCells() const { return resumed_; }
    int slicedCells() const { return sliced_; }

    /** Episodes actually executed by this runner (campaign lifetime). */
    long long episodesExecuted() const { return episodesExecuted_; }

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

    /** One pending ledger: the episodes it still needs to run. */
    struct WorkUnit
    {
        std::string fingerprint;
        std::size_t owner = 0; //!< first member cell with the max reps
        int need = 0;
        std::vector<int> missing;              //!< episode indices to run
        std::vector<std::size_t> members;      //!< primary cells, any reps
        Ledger* led = nullptr;
        int remaining = 0; //!< episodes still to land (under storeMu_)
    };

    class StoreSink; //!< EpisodeSink landing a wave's episodes
    class CoordSink; //!< EpisodeSink streaming a range to the coordinator

    /** Land one completed episode in its ledger and the progress
     *  accounting; both sinks call it with storeMu_ held. */
    void landEpisodeLocked(Ledger& ledger, int index,
                           const EpisodeRecord& rec);
    void finalizeGroup(const WorkUnit& unit, bool executedNow);
    void flushStore();
    void progressLine();
    // Connected (coordinator) mode: run dispatched ranges, stream the
    // records back, fetch peers' episodes at the end.
    void runConnected(std::vector<WorkUnit>& units);

    Options opt_;
    bool ran_ = false;
    // Deque: phased add() must not invalidate the stats()/cell()/
    // episodes() references handed out for earlier phases' handles.
    std::deque<CellState> cells_;
    std::map<std::string, std::size_t> byKey_; //!< (fp, reps) -> primary
    std::map<std::string, Ledger> ledgers_;
    std::map<std::string, std::unique_ptr<EmbodiedSystem>> systems_;
    /**
     * Episode records completed since the last flush. Workers append
     * here under storeMu_ -- O(batch), never O(store) -- and flushStore
     * drains it into the store under storeIoMu_.
     */
    std::vector<JsonRecord> pendingRecords_;
    /** The result store behind storePath: opened by the first run(),
     *  null without one (or when its schema is newer than this build). */
    std::unique_ptr<ResultStore> store_;
    std::mutex storeMu_;   //!< guards ledgers, cell completion, pending
    std::mutex storeIoMu_; //!< guards store_'s records + its publish
    int flushTick_ = 0;    //!< episodes since the last flush
    /** "host:pid.seq": names this runner's binlog append log and, in
     *  connected mode, its coordinator hello and episode `by` stamps. */
    std::string workerId_;
    /** The coordinator connection of connected mode: opened by the
     *  first run() with work, kept across phases, and closed with a
     *  `bye` by the destructor (a --once coordinator exits when its
     *  fleet is gone). */
    std::unique_ptr<CoordClient> coord_;
    int executed_ = 0;
    int memoized_ = 0;
    int resumed_ = 0;
    int sliced_ = 0;
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
