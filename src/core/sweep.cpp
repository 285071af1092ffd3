#include "core/sweep.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/chaos.hpp"
#include "common/io_retry.hpp"
#include "common/serialize.hpp"
#include "core/coordinator.hpp"
#include "core/platform_registry.hpp"
#include "core/store_stats.hpp"

namespace create {

namespace {

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const char*
modeTag(InjectionMode m)
{
    switch (m) {
      case InjectionMode::None: return "none";
      case InjectionMode::Uniform: return "uniform";
      case InjectionMode::Voltage: return "voltage";
    }
    return "?";
}

/**
 * The config-dependent fingerprint tail shared by the v1 and v2 formats:
 * everything that can change execution, nothing that cannot. The policy's
 * display name never matters; the whole policy (and the LDO update
 * interval) only matters under voltageScaling; BER fields only matter
 * under Uniform injection; the injection target switches and component
 * filter only matter when injection is active at all. Operating voltages
 * always matter (the energy meter prices clean compute at them too).
 */
std::string
fingerprintTail(const CreateConfig& c)
{
    std::string fp = "|tech=";
    fp += c.anomalyDetection ? 'A' : '-';
    fp += c.weightRotation ? 'W' : '-';
    fp += c.voltageScaling ? 'V' : '-';
    fp += std::string("|bits=") + (c.bits == QuantBits::Int8 ? "8" : "4");
    fp += "|prot=" + std::to_string(static_cast<int>(c.protection));
    fp += std::string("|mode=") + modeTag(c.mode);
    fp += "|pV=" + fmt(c.plannerVoltage) + "|cV=" + fmt(c.controllerVoltage);
    if (c.mode != InjectionMode::None) {
        fp += "|injP=" + std::to_string(c.injectPlanner ? 1 : 0) +
              "|injC=" + std::to_string(c.injectController ? 1 : 0);
        fp += "|filter=" + c.componentFilter;
        if (c.mode == InjectionMode::Uniform)
            fp += "|ber=" + fmt(c.uniformBer) + "|pber=" + fmt(c.plannerBer) +
                  "|cber=" + fmt(c.controllerBer);
    }
    if (c.voltageScaling) {
        fp += "|vsInt=" + std::to_string(c.vsInterval) + "|policy=";
        for (double t : c.policy.thresholds())
            fp += fmt(t) + ",";
        fp += ":";
        for (double v : c.policy.voltages())
            fp += fmt(v) + ",";
    }
    return fp;
}

double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/**
 * Wall-clock seconds for lease timestamps. Leases are compared across
 * processes and machines, so this must be the system clock, not the
 * steady clock (whose epoch is per-boot).
 */
double
wallSeconds()
{
    using namespace std::chrono;
    return duration<double>(system_clock::now().time_since_epoch()).count();
}

/**
 * This worker's lease identity: "host:pid.seq". The per-process sequence
 * distinguishes multiple runners inside one process (tests, embedded
 * campaigns) -- two workers must never share an identity or a steal from
 * a dead sibling would look like a self-renewal.
 */
std::string
makeWorkerId()
{
    char host[256] = "";
    if (::gethostname(host, sizeof(host) - 1) != 0 || host[0] == '\0')
        std::snprintf(host, sizeof(host), "localhost");
    host[sizeof(host) - 1] = '\0';
    static std::atomic<int> seq{0};
    return std::string(host) + ":" + std::to_string(::getpid()) + "." +
           std::to_string(++seq);
}

/** Split a "host:port" coordinator spec; false on anything malformed. */
bool
parseHostPort(const std::string& spec, std::string& host, int& port)
{
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.size())
        return false;
    char* end = nullptr;
    const long p = std::strtol(spec.c_str() + colon + 1, &end, 10);
    if (end == spec.c_str() + colon + 1 || (end && *end != '\0') ||
        p < 1 || p > 65535)
        return false;
    host = spec.substr(0, colon);
    port = static_cast<int>(p);
    return true;
}

} // namespace

std::string
sweepFingerprint(const SweepCell& cell)
{
    // v2: reps is canonicalized away. Episodes run at seed0 + i, so a
    // cell's reps is the length of the prefix it reads off the shared
    // ledger, not part of the ledger's identity.
    return "v2|" + cell.platform + "|task=" + std::to_string(cell.taskId) +
           "|seed0=" + std::to_string(cell.seed0) + fingerprintTail(cell.cfg);
}

std::string
sweepFingerprintLegacyV1(const SweepCell& cell)
{
    return "v1|" + cell.platform + "|task=" + std::to_string(cell.taskId) +
           "|reps=" + std::to_string(cell.reps) +
           "|seed0=" + std::to_string(cell.seed0) + fingerprintTail(cell.cfg);
}

void
SweepRunner::Ledger::grow(int need)
{
    if (static_cast<int>(eps.size()) < need) {
        eps.resize(static_cast<std::size_t>(need));
        have.resize(static_cast<std::size_t>(need), 0);
    }
}

int
SweepRunner::Ledger::prefixLen(int limit) const
{
    int n = 0;
    const int cap = std::min(limit, static_cast<int>(have.size()));
    while (n < cap && have[static_cast<std::size_t>(n)])
        ++n;
    return n;
}

/** Streams one work unit's completed episodes into the ledger + store. */
class SweepRunner::StoreSink : public EpisodeSink
{
  public:
    StoreSink(SweepRunner& runner, const std::string& fingerprint,
              Ledger& ledger, const PaperEnergyModel& energy)
        : runner_(runner), fingerprint_(fingerprint), ledger_(ledger),
          energy_(energy), toStore_(!runner.opt_.storePath.empty())
    {
    }

    int base = 0; //!< ledger index of this run's episode 0

    void onEpisode(int index, const EpisodeResult& result,
                   const EpisodeMetrics& metrics) override
    {
        // Price the episode once, at completion: the record is the unit
        // of campaign state from here on. The metrics payload rides along
        // into the ledger/store but never into the TaskStats fold.
        const EpisodeRecord rec{result, energy_.episodeComputeJ(result),
                                metrics};
        bool doFlush = false;
        {
            std::lock_guard<std::mutex> lock(runner_.storeMu_);
            const auto idx = static_cast<std::size_t>(base + index);
            ledger_.eps[idx] = rec;
            ledger_.have[idx] = 1;
            ledger_.anyExecuted = true;
            ++runner_.episodesExecuted_;
            ++runner_.progressDone_;
            if (result.success)
                ++runner_.progressSucc_;
            if (metrics.present) {
                // Bounded sliding window: live tail latency, O(1) space.
                constexpr std::size_t kWallWindow = 4096;
                if (runner_.progressWall_.size() < kWallWindow)
                    runner_.progressWall_.push_back(metrics.wallMs);
                else
                    runner_.progressWall_[runner_.progressWallNext_++ %
                                          kWallWindow] = metrics.wallMs;
                runner_.progressFlips_ += metrics.flipsInjected;
            }
            if (toStore_) {
                JsonRecord jr = episodeToRecord(
                    sweepEpisodeKey(fingerprint_, base + index), rec);
                // Elastic campaigns stamp each episode with the worker
                // that ran it: per-shard attribution for sweep-stats.
                // The field is a string, so the diff/stat folds never
                // see it; chaos-off stores stay byte-identical.
                if (runner_.opt_.leaseSeconds > 0.0)
                    jr.strings.emplace_back("by", runner_.workerId_);
                runner_.pendingRecords_.push_back(std::move(jr));
            }
            if (++runner_.flushTick_ >= runner_.opt_.flushEvery) {
                runner_.flushTick_ = 0;
                doFlush = true;
            }
        }
        if (doFlush) {
            runner_.flushStore();
            if (runner_.opt_.progress)
                runner_.progressLine();
        }
    }

  private:
    SweepRunner& runner_;
    const std::string& fingerprint_;
    Ledger& ledger_;
    const PaperEnergyModel& energy_;
    const bool toStore_;
};

/**
 * Streams one dispatched range's completed episodes to the coordinator:
 * the ledger/progress side of StoreSink, but the records go onto the
 * wire instead of the local store. Every record of the current range is
 * retained until the range is acknowledged -- a send that fails
 * mid-range (coordinator restart, injected connreset) just marks the
 * sink broken and the range runner re-sends the whole range after
 * reconnecting (episodes are deterministic, so the coordinator's merge
 * is idempotent).
 */
class SweepRunner::CoordSink : public EpisodeSink
{
  public:
    CoordSink(SweepRunner& runner, const std::string& fingerprint,
              Ledger& ledger, const PaperEnergyModel& energy,
              CoordClient& client)
        : runner_(runner), fingerprint_(fingerprint), ledger_(ledger),
          energy_(energy), client_(client)
    {
    }

    int base = 0;        //!< ledger index of this range's episode 0
    bool broken = false; //!< a send failed; caller reconnects + re-sends
    std::vector<JsonRecord> records; //!< the whole range, arrival order

    void onEpisode(int index, const EpisodeResult& result,
                   const EpisodeMetrics& metrics) override
    {
        const EpisodeRecord rec{result, energy_.episodeComputeJ(result),
                                metrics};
        {
            std::lock_guard<std::mutex> lock(runner_.storeMu_);
            const auto idx = static_cast<std::size_t>(base + index);
            ledger_.eps[idx] = rec;
            ledger_.have[idx] = 1;
            ledger_.anyExecuted = true;
            ++runner_.episodesExecuted_;
            ++runner_.progressDone_;
            if (result.success)
                ++runner_.progressSucc_;
            if (metrics.present) {
                constexpr std::size_t kWallWindow = 4096;
                if (runner_.progressWall_.size() < kWallWindow)
                    runner_.progressWall_.push_back(metrics.wallMs);
                else
                    runner_.progressWall_[runner_.progressWallNext_++ %
                                          kWallWindow] = metrics.wallMs;
                runner_.progressFlips_ += metrics.flipsInjected;
            }
        }
        JsonRecord jr = episodeToRecord(
            sweepEpisodeKey(fingerprint_, base + index), rec);
        // Worker attribution, same contract as elastic mode: a string
        // field the diff/stat folds never compare.
        jr.strings.emplace_back("by", runner_.workerId_);
        bool flushed = false;
        {
            // Episodes complete on the evaluator's worker threads; the
            // range buffer, the send cursor and the client are shared.
            std::lock_guard<std::mutex> lock(mu_);
            records.push_back(std::move(jr));
            if (!broken &&
                records.size() - sent_ >=
                    static_cast<std::size_t>(runner_.opt_.flushEvery)) {
                const std::vector<JsonRecord> out(
                    records.begin() + static_cast<std::ptrdiff_t>(sent_),
                    records.end());
                std::string err;
                if (client_.send(out, &err)) {
                    sent_ = records.size();
                } else {
                    broken = true;
                    std::fprintf(stderr,
                                 "[sweep] coordinator send failed "
                                 "mid-range (%s); finishing the range "
                                 "for re-send\n",
                                 err.c_str());
                }
                flushed = true;
            }
        }
        if (flushed && runner_.opt_.progress)
            runner_.progressLine();
    }

    /** Records not yet on the wire (tail of the range); call after the
     *  range's runEpisodes() has returned. */
    std::vector<JsonRecord> unsent() const
    {
        return {records.begin() + static_cast<std::ptrdiff_t>(sent_),
                records.end()};
    }

  private:
    SweepRunner& runner_;
    const std::string& fingerprint_;
    Ledger& ledger_;
    const PaperEnergyModel& energy_;
    CoordClient& client_;
    std::mutex mu_; //!< guards records, sent_, broken and client_ sends
    std::size_t sent_ = 0;
};

SweepRunner::SweepRunner() : SweepRunner(Options()) {}

SweepRunner::SweepRunner(Options opt) : opt_(std::move(opt))
{
    if (opt_.threads < 1)
        opt_.threads = 1;
    if (opt_.flushEvery < 1)
        opt_.flushEvery = 1;
    if (opt_.shardCount < 1)
        opt_.shardCount = 1;
    if (opt_.shardIndex < 0 || opt_.shardIndex >= opt_.shardCount)
        throw std::invalid_argument("SweepRunner: shard index " +
                                    std::to_string(opt_.shardIndex) +
                                    " outside 0.." +
                                    std::to_string(opt_.shardCount - 1));
    if (opt_.leaseSeconds < 0.0)
        opt_.leaseSeconds = 0.0;
    if (opt_.leaseSeconds > 0.0 && opt_.shardCount > 1) {
        // Leases subsume the static partition: every process claims
        // dynamically, so a shard index would only mislead.
        std::fprintf(stderr,
                     "[sweep] elastic lease mode: --shard partition "
                     "ignored (workers claim ledgers dynamically)\n");
        opt_.shardIndex = 0;
        opt_.shardCount = 1;
    }
    if (!opt_.connect.empty()) {
        std::string host;
        int port = 0;
        if (!parseHostPort(opt_.connect, host, port))
            throw std::invalid_argument(
                "SweepRunner: connect expects host:port, got '" +
                opt_.connect + "'");
        if (!opt_.storePath.empty() || opt_.resume ||
            opt_.shardCount > 1 || opt_.leaseSeconds > 0.0)
            throw std::invalid_argument(
                "SweepRunner: connect replaces the shared-store options "
                "(store/resume/shard/lease) -- the coordinator owns all "
                "store state");
    }
    workerId_ = makeWorkerId();
}

std::size_t
SweepRunner::add(SweepCell cell)
{
    if (!PlatformRegistry::instance().find(cell.platform))
        throw std::invalid_argument("SweepRunner: unknown platform '" +
                                    cell.platform + "'");
    if (cell.reps < 1)
        throw std::invalid_argument("SweepRunner: cell needs reps >= 1");
    CellState st;
    st.cell = std::move(cell);
    st.fingerprint = sweepFingerprint(st.cell);
    const std::size_t handle = cells_.size();
    // Exact duplicates (same ledger *and* same prefix length) memoize
    // onto the first declaration; distinct-reps cells of one ledger stay
    // separate handles and slice their own prefixes.
    const auto [it, inserted] = byKey_.emplace(
        st.fingerprint + "|reps=" + std::to_string(st.cell.reps), handle);
    st.primary = it->second;
    cells_.push_back(std::move(st));
    return handle;
}

const SweepCell&
SweepRunner::cell(std::size_t handle) const
{
    return cells_.at(handle).cell;
}

CellSource
SweepRunner::source(std::size_t handle) const
{
    const CellState& st = cells_.at(handle);
    return st.primary == handle ? st.source : CellSource::Memoized;
}

const TaskStats&
SweepRunner::stats(std::size_t handle) const
{
    const CellState& st = cells_.at(cells_.at(handle).primary);
    if (!st.done)
        throw std::logic_error("SweepRunner::stats before run()");
    return st.stats;
}

EmbodiedSystem&
SweepRunner::system(const std::string& platform)
{
    return *prototypeFor(platform);
}

EmbodiedSystem*
SweepRunner::prototypeFor(const std::string& platform)
{
    auto it = prototypes_.find(platform);
    if (it == prototypes_.end())
        it = prototypes_
                 .emplace(platform, PlatformRegistry::instance().make(
                                        platform, /*verbose=*/false))
                 .first;
    return it->second.get();
}

void
SweepRunner::finalizeGroup(const std::string& fingerprint,
                           const std::vector<std::size_t>& members,
                           std::size_t owner, bool executedNow, bool skipped)
{
    std::lock_guard<std::mutex> lock(storeMu_);
    const Ledger& led = ledgers_.find(fingerprint)->second;
    for (const std::size_t m : members) {
        CellState& st = cells_[m];
        // A skipped cell (another shard owns the ledger) folds whatever
        // contiguous prefix is locally available -- possibly nothing.
        const int n =
            skipped ? led.prefixLen(st.cell.reps) : st.cell.reps;
        st.stats = aggregate(led.eps.data(), static_cast<std::size_t>(n));
        if (skipped)
            st.source = CellSource::Skipped;
        else if (m == owner && executedNow)
            st.source = CellSource::Executed;
        else if (led.anyExecuted)
            st.source = CellSource::Sliced;
        else
            st.source = CellSource::Resumed;
        st.done = true;
    }
    if (executedNow)
        ++unitsDone_;
}

void
SweepRunner::runUnit(WorkUnit& unit, EmbodiedSystem& sys)
{
    const SweepCell& c = cells_[unit.owner].cell;
    StoreSink sink(*this, unit.fingerprint, *unit.led, sys.energyModel());
    for (const auto& [start, count] : unit.runs) {
        sink.base = start;
        sys.runEpisodes(c.taskId, c.cfg, count,
                        c.seed0 + static_cast<std::uint64_t>(start), &sink);
    }
    finalizeGroup(unit.fingerprint, unit.members, unit.owner,
                  /*executedNow=*/true, /*skipped=*/false);
    if (opt_.leaseSeconds > 0.0 && !opt_.storePath.empty()) {
        // Mark our lease done before the unit-boundary flush renews it:
        // the same write that lands the final episodes publishes the
        // ledger as complete, so peers stop honoring the lease.
        std::lock_guard<std::mutex> io(storeIoMu_);
        const auto it = activeLeases_.find(unit.fingerprint);
        if (it != activeLeases_.end())
            it->second.done = true;
    }
    if (!opt_.storePath.empty())
        flushStore(); // unit boundary: a killed campaign resumes from here
    if (opt_.progress)
        progressLine();
    if (opt_.verbose)
        std::fprintf(stderr, "[sweep] done %s (%s, success %.0f%%)\n",
                     c.label.empty() ? unit.fingerprint.c_str()
                                     : c.label.c_str(),
                     sys.taskName(c.taskId),
                     100.0 * cells_[unit.owner].stats.successRate);
}

void
SweepRunner::loadStore(
    std::map<std::string, std::map<int, EpisodeRecord>>& eps,
    std::map<std::string, TaskStats>& legacy)
{
    // Called from run() before any worker starts (and after any previous
    // phase's workers joined), so storeRecords_ is safe to fill; the
    // lock below just documents the storeIoMu_ ownership.
    std::lock_guard<std::mutex> io(storeIoMu_);
    StoreBackend* be = ensureBackendLocked();
    if (!be)
        return;
    std::vector<JsonRecord> records;
    StoreLoadInfo sal;
    // Backend loads quarantine unreadable tails before anything rewrites
    // or truncates them (post-mortem evidence survives the heal).
    if (!be->load(records, &sal, /*quarantineBadTails=*/true))
        return; // no store yet
    if (sal.salvaged) {
        if (records.empty()) {
            // Not a record store at all (hand-edited, foreign tool): no
            // prefix to salvage. Don't silently ignore it -- with
            // --resume this re-runs hours of episodes, and either way
            // the next flush replaces the file.
            std::fprintf(stderr,
                         "[sweep] cannot parse result store %s; %s\n",
                         opt_.storePath.c_str(),
                         opt_.resume ? "re-running every cell"
                                     : "it will be replaced");
            return;
        }
        // Truncated/torn store: keep the longest parseable record prefix
        // (every episode that landed intact resumes); the bad tails were
        // quarantined above before the next flush rewrites them.
        std::fprintf(stderr,
                     "[sweep] result store %s is truncated or corrupt: "
                     "salvaged %zu records (%llu of %llu bytes, %zu "
                     "file%s); bad tail %s%s\n",
                     opt_.storePath.c_str(), records.size(),
                     static_cast<unsigned long long>(sal.goodBytes),
                     static_cast<unsigned long long>(sal.totalBytes),
                     sal.files, sal.files == 1 ? "" : "s",
                     sal.quarantined.empty() ? "could not be quarantined"
                                             : "quarantined to ",
                     sal.quarantined.empty()
                         ? ""
                         : sal.quarantined.front().c_str());
    }

    // A store without a schema record is a PR 4-era (v1) cell-level
    // store; its records are served read-only for whole-cell resume.
    int schema = 1;
    for (const JsonRecord& rec : records)
        if (rec.name == kSweepStoreSchemaRecord)
            schema = static_cast<int>(rec.number("schema", 1));
    if (schema > kSweepStoreSchema) {
        // Rewriting a future-schema store would mix our records under
        // its (still present) newer schema header and corrupt it for the
        // build that owns it. Treat it strictly read-only: disable the
        // store for this campaign (no resume, no flushes).
        std::fprintf(stderr,
                     "[sweep] result store %s has schema %d (newer than "
                     "this build's %d); leaving it untouched -- this "
                     "campaign runs without a store\n",
                     opt_.storePath.c_str(), schema, kSweepStoreSchema);
        opt_.storePath.clear();
        store_.reset();
        return;
    }

    for (JsonRecord& rec : records) {
        if (opt_.resume && rec.name != kSweepStoreSchemaRecord) {
            std::string fp;
            const int idx = sweepEpisodeIndex(rec.name, &fp);
            if (idx >= 0) {
                EpisodeRecord er;
                if (episodeFromRecord(rec, er))
                    eps[fp][idx] = er;
                else
                    std::fprintf(stderr,
                                 "[sweep] store record %s is missing "
                                 "episode fields; re-running it\n",
                                 rec.name.c_str());
            } else if (rec.name.rfind("v1|", 0) == 0 &&
                       rec.number("episodes", -1.0) >= 0.0) {
                TaskStats s;
                s.episodes = static_cast<int>(rec.number("episodes"));
                s.successes = static_cast<int>(rec.number("successes"));
                for (const auto& [key, member] : kTaskStatFields)
                    s.*member = rec.number(key);
                legacy.emplace(rec.name, s);
            }
        }
        // Keep every record through future flushes, including ones no
        // declared cell (yet) matches -- a rewrite must never drop
        // another campaign's (or shard's) results.
        storeRecords_.emplace(rec.name, std::move(rec));
    }
}

void
SweepRunner::flushStore()
{
    if (opt_.storePath.empty())
        return;
    // Chaos injection point: a worker that dies here leaves its pending
    // batch unflushed -- exactly the kill -9 shape the lease protocol
    // and --resume gap-fill must absorb.
    chaos::maybeAbortBeforeFlush();
    // Drain the pending batch under storeMu_ (O(batch), so workers
    // streaming episodes never queue behind disk or an O(store) copy),
    // then merge + write under the separate I/O mutex. A version stamp
    // drops stale batches when two flushes race: the loser's records are
    // already merged into storeRecords_, so the winning (newer) write --
    // and every later one -- carries them; the file on disk only moves
    // forward.
    std::vector<JsonRecord> batch;
    std::uint64_t version = 0;
    {
        std::lock_guard<std::mutex> lock(storeMu_);
        batch.swap(pendingRecords_);
        version = ++storeVersion_;
    }
    std::lock_guard<std::mutex> io(storeIoMu_);
    StoreBackend* be = ensureBackendLocked();
    if (!be)
        return; // future-schema store disabled the path under io race
    for (const JsonRecord& rec : batch)
        storeRecords_[rec.name] = rec;
    // Records minted on the I/O path since the last flush (ledger meta,
    // claimed leases) are already merged into storeRecords_ but still
    // owe the disk a frame when the backend appends.
    if (!pendingIo_.empty()) {
        batch.insert(batch.end(),
                     std::make_move_iterator(pendingIo_.begin()),
                     std::make_move_iterator(pendingIo_.end()));
        pendingIo_.clear();
    }
    const bool renewing = opt_.leaseSeconds > 0.0 && !activeLeases_.empty();
    // Skip the write only when a newer flush already reached disk AND we
    // merged nothing new AND no lease needs its renewal timestamp: a
    // racing newer flush can win the I/O mutex before our batch is
    // merged, so its file does not contain our records -- returning then
    // would strand this batch in memory past the at-most-one-flush-batch
    // kill-durability guarantee.
    if (version <= storeWritten_ && batch.empty() && !renewing)
        return;
    {
        // Always (re)stamp the current schema: merging into an older
        // (v2) store upgrades it -- old records stay valid, new episode
        // records carry the optional v3 fields. Setting it before the
        // shard disk-merge below means a concurrent shard's older stamp
        // never wins (emplace keeps ours). Appending backends publish it
        // once per process (merge-on-read keeps the newest copy).
        JsonRecord schema;
        schema.name = kSweepStoreSchemaRecord;
        schema.numbers.emplace_back("schema", kSweepStoreSchema);
        if (!schemaStamped_) {
            batch.push_back(schema);
            schemaStamped_ = true;
        }
        storeRecords_[kSweepStoreSchemaRecord] = std::move(schema);
    }
    // Sharded/elastic campaigns on a *rewriting* backend: other processes
    // rewrite the same file, so the read-merge-rename must be atomic
    // across processes too. The flock on a sidecar serializes writers (a
    // kill while holding it is harmless -- an flock dies with its
    // process) and the re-read carries their records forward; ours win
    // per key except leases, where the higher generation wins (a steal
    // must stick). A single static process skips both: its in-memory
    // view is already a superset of the disk. Appending backends skip
    // all of it unconditionally -- every writer owns its own log, so the
    // data path takes no lock and no disk re-merge (merge happens on
    // read); the store flock is left to guard only lease claims.
    int lockFd = -1;
    if (be->rewritesWholeStore() &&
        (opt_.shardCount > 1 || opt_.leaseSeconds > 0.0)) {
        const std::string lockPath = be->lockPath();
        lockFd = io::openRetry(lockPath.c_str(), O_CREAT | O_RDWR, 0644);
        if (lockFd < 0 || !io::flockRetry(lockFd, LOCK_EX)) {
            // Proceeding unlocked risks two shards' read-merge-rename
            // interleaving (last writer drops the other's batch); there
            // is no safe fallback, so at least say it happened.
            std::fprintf(stderr,
                         "[sweep] warning: cannot lock %s; concurrent "
                         "shard flushes may drop each other's records\n",
                         lockPath.c_str());
        }
        std::vector<JsonRecord> disk;
        StoreLoadInfo sal;
        if (be->load(disk, &sal, /*quarantineBadTails=*/false)) {
            if (sal.salvaged)
                std::fprintf(stderr,
                             "[sweep] store %s torn on disk: merged the "
                             "%zu-record parseable prefix (%llu of %llu "
                             "bytes); this flush heals it\n",
                             opt_.storePath.c_str(), disk.size(),
                             static_cast<unsigned long long>(sal.goodBytes),
                             static_cast<unsigned long long>(
                                 sal.totalBytes));
            for (JsonRecord& rec : disk)
                mergeDiskRecordLocked(std::move(rec));
        }
    }
    io::FdCloser closeLock(lockFd); // releases the flock, even on throw
    if (renewing) {
        chaos::maybeDelayRenewal(); // chaos: straggler going stale
        renewLeasesLocked(wallSeconds(), batch);
    }
    std::string error;
    if (!persistLocked(batch, &error)) {
        // Loud terminal failure: the records are retained in
        // storeRecords_, but disk no longer keeps up -- continuing would
        // silently void the crash-durability contract (and, in lease
        // mode, our renewals). The throw propagates through the episode
        // worker's error capture and fails the campaign.
        throw std::runtime_error(
            "cannot write result store " + opt_.storePath + ": " + error +
            " -- campaign aborted; completed episodes up to the last "
            "successful flush are on disk and --resume re-runs the rest");
    }
    storeWritten_ = std::max(storeWritten_, version);
    if (chaos::shouldTearWrite()) {
        // Chaos injection point: truncate the just-written data file to a
        // random fraction, simulating a torn write landing on disk. For
        // the json backend that is the store file itself; for binlog it
        // is this process's own append log (the peers' logs are separate
        // files a tear cannot reach). The in-memory view is intact, so a
        // later flush heals it -- json by rewriting, binlog via the
        // writer's checkTail resync; readers in between (peers' claims, a
        // post-kill resume) must salvage the parseable prefix.
        const std::string tearPath = be->lastDataFile();
        const int fd = tearPath.empty()
                           ? -1
                           : io::openRetry(tearPath.c_str(), O_RDWR);
        if (fd >= 0) {
            io::FdCloser closeStore(fd);
            const off_t size = ::lseek(fd, 0, SEEK_END);
            const off_t keep =
                static_cast<off_t>(static_cast<double>(size) *
                                   chaos::tearKeepFraction());
            if (size > 0 && ::ftruncate(fd, keep) == 0)
                std::fprintf(stderr,
                             "[chaos] tore store %s to %lld of %lld "
                             "bytes\n",
                             tearPath.c_str(),
                             static_cast<long long>(keep),
                             static_cast<long long>(size));
        }
        storeWritten_ = 0; // force the next flush to write (heal)
    }
}

void
SweepRunner::mergeDiskRecordLocked(JsonRecord&& rec)
{
    if (sweepLeaseFingerprint(rec.name)) {
        const auto it = storeRecords_.find(rec.name);
        // Higher lease generation wins regardless of which side holds it
        // in memory: a steal recorded on disk must never be resurrected
        // by the victim's next rewrite. Ties keep ours (our renewal
        // timestamp is at least as fresh).
        if (it == storeRecords_.end())
            storeRecords_.emplace(rec.name, std::move(rec));
        else if (rec.number("gen") > it->second.number("gen"))
            it->second = std::move(rec);
        return;
    }
    std::string name = rec.name;
    storeRecords_.emplace(std::move(name), std::move(rec));
}

StoreBackend*
SweepRunner::ensureBackendLocked()
{
    if (!store_ && !opt_.storePath.empty()) {
        std::string note;
        store_ = openStoreBackend(opt_.storePath, opt_.storeFormat,
                                  workerId_, &note);
        if (!note.empty())
            std::fprintf(stderr, "[sweep] %s\n", note.c_str());
    }
    return store_.get();
}

bool
SweepRunner::persistLocked(const std::vector<JsonRecord>& batch,
                           std::string* error)
{
    // Bounded backoff over the whole backend flush (json: tmp-write +
    // rename; binlog: framed append + fsync-equivalent): a transient
    // ENOSPC/EIO (log rotation racing us, NFS blip) resolves within the
    // retry budget; a real full disk does not, and the caller escalates.
    // Both backends roll back a failed flush, so a retry starts clean.
    std::string err;
    for (int attempt = 0; attempt < io::kRetryAttempts; ++attempt) {
        if (attempt > 0) {
            std::fprintf(stderr,
                         "[sweep] store write failed (%s); retry %d/%d\n",
                         err.c_str(), attempt, io::kRetryAttempts - 1);
            io::sleepMs(io::kRetryBaseMs << (attempt - 1));
        }
        if (store_->flush(storeRecords_, batch, &err))
            return true;
    }
    if (error)
        *error = err;
    return false;
}

void
SweepRunner::renewLeasesLocked(double now, std::vector<JsonRecord>& batch)
{
    for (auto it = activeLeases_.begin(); it != activeLeases_.end();) {
        const std::string key = sweepLeaseKey(it->first);
        const auto rit = storeRecords_.find(key);
        if (rit != storeRecords_.end() &&
            (rit->second.text("owner") != workerId_ ||
             static_cast<std::uint64_t>(rit->second.number("gen")) !=
                 it->second.gen)) {
            // Stolen from us: we went stale (straggler, paused, clock
            // skew) and a peer claimed the ledger. Keep running --
            // episodes are deterministic, so the flush merge is
            // idempotent -- but stop renewing the lost lease.
            std::fprintf(stderr,
                         "[sweep] lease on %s lost to %s; continuing "
                         "(duplicate episodes merge idempotently)\n",
                         it->first.c_str(),
                         rit->second.text("owner").c_str());
            it = activeLeases_.erase(it);
            continue;
        }
        JsonRecord lr;
        lr.name = key;
        lr.strings.emplace_back("owner", workerId_);
        lr.numbers.emplace_back("gen",
                                static_cast<double>(it->second.gen));
        lr.numbers.emplace_back("renewedAt", now);
        lr.numbers.emplace_back("done", it->second.done ? 1.0 : 0.0);
        batch.push_back(lr); // appending backends owe the disk a frame
        storeRecords_[key] = std::move(lr);
        ++it;
    }
}

void
SweepRunner::gapFillFromStore(WorkUnit& unit)
{
    // Caller holds storeIoMu_; ledger + progress live under storeMu_.
    // The io -> mu nesting is safe: no path acquires storeIoMu_ while
    // holding storeMu_ (flushStore releases storeMu_ first).
    std::lock_guard<std::mutex> lock(storeMu_);
    Ledger& led = *unit.led;
    long long seeded = 0;
    for (int idx = 0; idx < unit.need; ++idx) {
        if (led.have[static_cast<std::size_t>(idx)])
            continue;
        const auto rit =
            storeRecords_.find(sweepEpisodeKey(unit.fingerprint, idx));
        if (rit == storeRecords_.end())
            continue;
        EpisodeRecord er;
        if (!episodeFromRecord(rit->second, er))
            continue;
        led.eps[static_cast<std::size_t>(idx)] = er;
        led.have[static_cast<std::size_t>(idx)] = 1;
        ++seeded;
    }
    if (seeded > 0)
        progressTotal_ -= seeded; // a peer already ran these
    unit.runs.clear();
    for (int k = 0; k < unit.need;) {
        if (led.have[static_cast<std::size_t>(k)]) {
            ++k;
            continue;
        }
        const int start = k;
        while (k < unit.need && !led.have[static_cast<std::size_t>(k)])
            ++k;
        unit.runs.emplace_back(start, k - start);
    }
}

SweepRunner::WorkUnit*
SweepRunner::claimNext(std::vector<WorkUnit*>& pending)
{
    // One locked scan: refresh the store view, fold peers' progress into
    // every pending unit (finalizing ledgers they completed), then claim
    // the stalest claimable ledger by writing a generation-bumped lease.
    // Both backends share the `<store>.lock` sidecar (computed literally
    // here: the flock is taken before storeIoMu_, so the lazily-opened
    // backend cannot be consulted yet). For binlog stores this flock
    // guards *only* claims -- the data path appends lock-free.
    const std::string lockPath = opt_.storePath + ".lock";
    const int lockFd = io::openRetry(lockPath.c_str(), O_CREAT | O_RDWR,
                                     0644);
    io::FdCloser closeLock(lockFd);
    if (lockFd < 0 || !io::flockRetry(lockFd, LOCK_EX))
        std::fprintf(stderr,
                     "[sweep] warning: cannot lock %s; lease claims may "
                     "race\n",
                     lockPath.c_str());
    std::lock_guard<std::mutex> io(storeIoMu_);
    StoreBackend* be = ensureBackendLocked();
    if (be) {
        std::vector<JsonRecord> disk;
        StoreLoadInfo sal;
        // No quarantine on the claim path: scans are frequent and a torn
        // log's owner heals its own tail on its next append.
        if (be->load(disk, &sal, /*quarantineBadTails=*/false)) {
            if (sal.salvaged)
                std::fprintf(stderr,
                             "[sweep] store %s torn on disk: claim scan "
                             "salvaged %zu records (%llu of %llu bytes)\n",
                             opt_.storePath.c_str(), disk.size(),
                             static_cast<unsigned long long>(sal.goodBytes),
                             static_cast<unsigned long long>(
                                 sal.totalBytes));
            for (JsonRecord& rec : disk)
                mergeDiskRecordLocked(std::move(rec));
        }
    }
    for (auto it = pending.begin(); it != pending.end();) {
        gapFillFromStore(**it);
        if ((*it)->runs.empty()) {
            // A peer completed this ledger; its episodes are all local
            // now, so the fold is the full bit-identical prefix.
            finalizeGroup((*it)->fingerprint, (*it)->members, (*it)->owner,
                          /*executedNow=*/false, /*skipped=*/false);
            {
                std::lock_guard<std::mutex> lock(storeMu_);
                ++unitsDone_;
            }
            it = pending.erase(it);
        } else {
            ++it;
        }
    }
    const double now = wallSeconds();
    WorkUnit* best = nullptr;
    double bestRenewed = 0.0;
    for (WorkUnit* u : pending) {
        double renewed = -1.0; // never leased: maximally stale
        bool claimable = true;
        const auto rit = storeRecords_.find(sweepLeaseKey(u->fingerprint));
        if (rit != storeRecords_.end()) {
            const std::string owner = rit->second.text("owner");
            const bool done = rit->second.number("done") != 0.0;
            renewed = rit->second.number("renewedAt");
            const bool expired = now - renewed > opt_.leaseSeconds;
            if (expired && !done && !owner.empty() && owner != workerId_) {
                // Telemetry: count each foreign lease generation's
                // expiry once, however many scans observe it.
                auto& maxGen = expiredSeen_[u->fingerprint];
                const auto gen =
                    static_cast<std::uint64_t>(rit->second.number("gen"));
                if (gen > maxGen) {
                    maxGen = gen;
                    ++leasesExpired_;
                }
            }
            claimable = done || owner == workerId_ || expired;
        }
        if (claimable && (!best || renewed < bestRenewed)) {
            best = u;
            bestRenewed = renewed;
        }
    }
    if (!best)
        return nullptr; // everything left is live-leased by peers
    std::uint64_t gen = 1;
    const auto rit = storeRecords_.find(sweepLeaseKey(best->fingerprint));
    if (rit != storeRecords_.end()) {
        gen = static_cast<std::uint64_t>(rit->second.number("gen")) + 1;
        const std::string owner = rit->second.text("owner");
        if (!owner.empty() && owner != workerId_ &&
            rit->second.number("done") == 0.0) {
            ++leasesStolen_;
            std::fprintf(stderr,
                         "[sweep] stealing lease on %s from %s (stale "
                         "%.1fs > lease %.1fs)\n",
                         best->fingerprint.c_str(), owner.c_str(),
                         now - rit->second.number("renewedAt"),
                         opt_.leaseSeconds);
        }
    }
    activeLeases_[best->fingerprint] = ActiveLease{gen, false};
    JsonRecord lr;
    lr.name = sweepLeaseKey(best->fingerprint);
    lr.strings.emplace_back("owner", workerId_);
    lr.numbers.emplace_back("gen", static_cast<double>(gen));
    lr.numbers.emplace_back("renewedAt", now);
    lr.numbers.emplace_back("done", 0.0);
    // The claim must hit the disk before the flock drops (that ordering
    // IS the mutual exclusion); appending backends write just this one
    // lease frame, rewriting ones the merged view containing it.
    std::vector<JsonRecord> claimBatch;
    claimBatch.push_back(lr);
    storeRecords_[lr.name] = std::move(lr);
    std::string error;
    if (!persistLocked(claimBatch, &error))
        throw std::runtime_error(
            "cannot write result store " + opt_.storePath +
            " while claiming a lease: " + error + " -- campaign aborted");
    return best;
}

void
SweepRunner::runElastic(std::vector<WorkUnit>& units)
{
    std::vector<WorkUnit*> pending;
    pending.reserve(units.size());
    for (WorkUnit& u : units)
        pending.push_back(&u);
    // Poll cadence when everything left is live-leased by peers: a
    // quarter lease bounds the steal latency to well within one lease
    // period without hammering the store.
    const int pollMs = std::max(
        50, std::min(1000, static_cast<int>(opt_.leaseSeconds * 250.0)));
    while (!pending.empty()) {
        WorkUnit* unit = claimNext(pending);
        if (!unit) {
            io::sleepMs(pollMs);
            continue;
        }
        pending.erase(std::find(pending.begin(), pending.end(), unit));
        const SweepCell& c = cells_[unit->owner].cell;
        EmbodiedSystem* proto = prototypeFor(c.platform);
        // Units run one at a time per process (processes are the elastic
        // scale-out unit), so the serial prepare() here satisfies the
        // per-width weight-freeze constraint; the thread budget fans out
        // within the unit via the episode-parallel engine.
        proto->prepare(c.cfg);
        proto->setEvalThreads(opt_.threads);
        runUnit(*unit, *proto);
        std::lock_guard<std::mutex> io(storeIoMu_);
        activeLeases_.erase(unit->fingerprint);
    }
}

void
SweepRunner::runConnected(std::vector<WorkUnit>& units)
{
    std::string host;
    int port = 0;
    parseHostPort(opt_.connect, host, port); // validated at construction

    CoordClient client;
    // The reconnect budget doubles as the coordinator-restart budget:
    // connectRetry's backoff (capped at 2 s per sleep) spans ~30 s over
    // 20 attempts, comfortably past a kill -9 + restart-from-salvage.
    constexpr int kConnectAttempts = 20;

    // Everything after hello is idempotent, so a (re)connect just
    // replays the declarations: ledger meta (the coordinator stores it
    // exactly as a local campaign would) + the episode need per unit.
    const auto declareAll = [&]() -> bool {
        std::vector<JsonRecord> decl;
        decl.reserve(units.size() * 2);
        for (const WorkUnit& u : units) {
            const SweepCell& oc = cells_[u.owner].cell;
            JsonRecord meta;
            meta.name = u.fingerprint;
            meta.strings.emplace_back("platform", oc.platform);
            meta.strings.emplace_back("label", oc.label);
            meta.numbers.emplace_back("task", oc.taskId);
            meta.numbers.emplace_back("seed0",
                                      static_cast<double>(oc.seed0));
            decl.push_back(std::move(meta));
            JsonRecord need = coordwire::control("need");
            need.strings.emplace_back("fp", u.fingerprint);
            need.numbers.emplace_back("need", u.need);
            decl.push_back(std::move(need));
        }
        std::string err;
        return client.send(decl, &err);
    };
    const auto reconnect = [&]() {
        std::string err;
        if (!client.connect(host, port, workerId_, kConnectAttempts,
                            &err) ||
            !declareAll())
            throw std::runtime_error(
                "cannot reach coordinator " + opt_.connect + ": " + err);
    };
    reconnect();

    // Per-unit bookkeeping: which units this worker actually ran
    // episodes for (their owner cells report Executed, the rest Sliced/
    // Resumed), keyed by fingerprint.
    std::map<std::string, WorkUnit*> byFp;
    std::map<std::string, bool> ranAny;
    for (WorkUnit& u : units)
        byFp[u.fingerprint] = &u;

    // Units run one range at a time in-process (the coordinator is the
    // scale-out), so the serial prepare() per fingerprint switch
    // satisfies the per-width weight-freeze constraint; the thread
    // budget fans out within the range via the episode engine.
    std::string preparedFp;
    for (;;) {
        JsonRecord rec;
        std::string err;
        if (!client.send(coordwire::control("req"), &err) ||
            !client.recv(rec, &err)) {
            std::fprintf(stderr,
                         "[sweep] coordinator connection lost (%s); "
                         "reconnecting\n",
                         err.c_str());
            reconnect();
            preparedFp.clear(); // replays are cheap; state is unknown
            continue;
        }
        std::string verb;
        if (!coordwire::isControl(rec, &verb))
            continue; // data frames are only expected during fetch
        if (verb == "fin")
            break;
        if (verb == "wait") {
            io::sleepMs(std::max(
                50, static_cast<int>(rec.number("ms", 250.0))));
            continue;
        }
        if (verb != "range")
            continue;
        const std::string fp = rec.text("fp");
        const int start = static_cast<int>(rec.number("start"));
        const int count = static_cast<int>(rec.number("count"));
        const auto uit = byFp.find(fp);
        if (uit == byFp.end() || count < 1) {
            // A fingerprint we never declared (mixed campaign with a
            // differently-scoped fleet): let the assignment time out
            // and land on a worker that can run it.
            std::fprintf(stderr,
                         "[sweep] dispatched unknown ledger %s; "
                         "ignoring\n",
                         fp.c_str());
            io::sleepMs(250);
            continue;
        }
        WorkUnit& unit = *uit->second;
        const SweepCell& c = cells_[unit.owner].cell;
        EmbodiedSystem* proto = prototypeFor(c.platform);
        if (preparedFp != fp) {
            proto->prepare(c.cfg);
            proto->setEvalThreads(opt_.threads);
            preparedFp = fp;
        }
        CoordSink sink(*this, unit.fingerprint, *unit.led,
                       proto->energyModel(), client);
        sink.base = start;
        proto->runEpisodes(c.taskId, c.cfg, count,
                           c.seed0 + static_cast<std::uint64_t>(start),
                           &sink);
        ranAny[fp] = true;
        // Land the range: the unsent tail (or, after a mid-range send
        // failure, the whole range again) followed by the completion
        // mark. Retried wholesale on failure -- duplicates merge
        // idempotently on the coordinator.
        JsonRecord done = coordwire::control("done");
        done.strings.emplace_back("fp", fp);
        done.numbers.emplace_back("start", start);
        done.numbers.emplace_back("count", count);
        for (;;) {
            std::vector<JsonRecord> out =
                sink.broken ? sink.records : sink.unsent();
            out.push_back(done);
            if (client.connected() && client.send(out, &err))
                break;
            std::fprintf(stderr,
                         "[sweep] range %s [%d, %d) did not land (%s); "
                         "reconnecting to re-send\n",
                         fp.c_str(), start, start + count, err.c_str());
            reconnect();
            preparedFp.clear();
            sink.broken = true; // everything must go again
        }
        if (opt_.verbose)
            std::fprintf(stderr, "[sweep] range %s [%d, %d) done\n",
                         fp.c_str(), start, start + count);
    }

    // Fetch phase: episodes peers ran are pulled back over the wire so
    // every cell's fold is the full bit-identical prefix.
    for (WorkUnit& u : units) {
        bool missing = false;
        {
            std::lock_guard<std::mutex> lock(storeMu_);
            missing = u.led->prefixLen(u.need) < u.need;
        }
        for (int attempt = 0; missing; ++attempt) {
            JsonRecord req = coordwire::control("fetch");
            req.strings.emplace_back("fp", u.fingerprint);
            req.numbers.emplace_back("need", u.need);
            std::string err;
            bool ok = client.connected() && client.send(req, &err);
            while (ok) {
                JsonRecord rec;
                if (!client.recv(rec, &err)) {
                    ok = false;
                    break;
                }
                std::string verb;
                if (coordwire::isControl(rec, &verb)) {
                    if (verb == "fetched")
                        break;
                    continue;
                }
                std::string fp;
                const int idx = sweepEpisodeIndex(rec.name, &fp);
                EpisodeRecord er;
                if (idx < 0 || fp != u.fingerprint || idx >= u.need ||
                    !episodeFromRecord(rec, er))
                    continue;
                std::lock_guard<std::mutex> lock(storeMu_);
                if (!u.led->have[static_cast<std::size_t>(idx)]) {
                    u.led->eps[static_cast<std::size_t>(idx)] = er;
                    u.led->have[static_cast<std::size_t>(idx)] = 1;
                }
            }
            if (ok) {
                std::lock_guard<std::mutex> lock(storeMu_);
                missing = u.led->prefixLen(u.need) < u.need;
                if (missing && attempt >= io::kRetryAttempts)
                    throw std::runtime_error(
                        "coordinator reported " + u.fingerprint +
                        " complete but episodes are missing after fetch");
                if (missing)
                    io::sleepMs(io::kRetryBaseMs << attempt);
            } else {
                if (attempt >= io::kRetryAttempts)
                    throw std::runtime_error(
                        "cannot fetch " + u.fingerprint +
                        " from coordinator " + opt_.connect + ": " + err);
                reconnect();
            }
        }
        finalizeGroup(u.fingerprint, u.members, u.owner,
                      /*executedNow=*/ranAny.count(u.fingerprint) > 0,
                      /*skipped=*/false);
        if (opt_.progress)
            progressLine();
    }
    client.close();
}

void
SweepRunner::progressLine()
{
    long long done = 0, total = 0, succ = 0;
    std::size_t unitsDone = 0, unitsTotal = 0;
    double elapsed = 0.0;
    std::vector<double> wall;
    std::uint64_t flips = 0;
    {
        std::lock_guard<std::mutex> lock(storeMu_);
        done = progressDone_;
        total = progressTotal_;
        succ = progressSucc_;
        unitsDone = unitsDone_;
        unitsTotal = unitsTotal_;
        elapsed = nowSeconds() - progressStart_;
        wall = progressWall_; // bounded window, cheap copy
        flips = progressFlips_;
    }
    // Division audit: every ratio below is guarded against its zero
    // denominator. The first flush can land within the same steady-clock
    // tick as run()'s start (elapsed == 0.0 exactly), so eps/s reports
    // 0.0 and the ETA falls through to "?" (or "0s" when already done)
    // instead of dividing by a zero rate; success%, flips/ep, and p95
    // are likewise gated on done > 0 / a non-empty sample window.
    const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed
                                      : 0.0;
    char eta[32];
    if (rate > 0.0 && done < total)
        std::snprintf(eta, sizeof(eta), "%.0fs",
                      static_cast<double>(total - done) / rate);
    else
        std::snprintf(eta, sizeof(eta), "%s", done >= total ? "0s" : "?");
    // Live observability from the metrics registry: p95 episode time over
    // the recent-episode window and mean injected flips per episode
    // (absent when the registry is disabled).
    char live[64] = "";
    if (!wall.empty() && done > 0) {
        const double p95 = percentile(wall, 95.0);
        std::snprintf(live, sizeof(live), ", p95 %.0fms, flips/ep %.1f",
                      p95,
                      static_cast<double>(flips) /
                          static_cast<double>(done));
    }
    // Lease telemetry (elastic mode only): ledgers taken over from dead
    // or stale workers, and foreign lease expiries observed.
    char lease[48] = "";
    if (opt_.leaseSeconds > 0.0)
        std::snprintf(lease, sizeof(lease), ", stolen=%lld expired=%lld",
                      leasesStolen_.load(), leasesExpired_.load());
    std::fprintf(stderr,
                 "[sweep] progress: ledgers %zu/%zu, episodes %lld/%lld, "
                 "%.1f eps/s, success %.1f%%%s%s, eta %s\n",
                 unitsDone, unitsTotal, done, total, rate,
                 done > 0 ? 100.0 * static_cast<double>(succ) /
                                static_cast<double>(done)
                          : 0.0,
                 live, lease, eta);
}

void
SweepRunner::run()
{
    if (!ran_) {
        if (opt_.resume && opt_.storePath.empty())
            std::fprintf(stderr, "[sweep] --resume without a result store "
                                 "(--out) has no effect\n");
        if (opt_.shardCount > 1 && opt_.storePath.empty())
            std::fprintf(stderr,
                         "[sweep] --shard without a result store (--out) "
                         "computes results other processes cannot see\n");
        if (opt_.leaseSeconds > 0.0 && opt_.storePath.empty())
            std::fprintf(stderr,
                         "[sweep] --lease without a result store (--out) "
                         "has no shared state to lease; running "
                         "statically\n");
    }

    // Load the store on every run() call: campaigns can be phased (add()
    // more cells after a run, run again: only the new work executes).
    // Existing records are preserved through flushes even without
    // --resume (two campaigns can share one store); --resume additionally
    // seeds the ledgers from them.
    std::map<std::string, std::map<int, EpisodeRecord>> storedEps;
    std::map<std::string, TaskStats> legacy;
    if (!opt_.storePath.empty())
        loadStore(storedEps, legacy);

    bool phaseHadWork = false;

    // Legacy v1 records satisfy whole cells read-only (stats without a
    // ledger) -- but only when the v2 ledger cannot already cover the
    // cell (episodes beat opaque aggregates).
    if (opt_.resume && !legacy.empty()) {
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            CellState& st = cells_[i];
            if (st.primary != i || st.done)
                continue;
            const auto it = legacy.find(sweepFingerprintLegacyV1(st.cell));
            if (it == legacy.end())
                continue;
            const auto se = storedEps.find(st.fingerprint);
            if (se != storedEps.end()) {
                bool covered = true;
                for (int k = 0; k < st.cell.reps && covered; ++k)
                    covered = se->second.count(k) > 0;
                if (covered)
                    continue;
            }
            st.stats = it->second;
            st.source = CellSource::Resumed;
            st.done = true;
            phaseHadWork = true;
        }
    }

    // Group the pending primary cells by ledger fingerprint (submission
    // order); the group's episode budget is its deepest cell's reps.
    std::vector<std::string> order;
    std::map<std::string, WorkUnit> groups;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        CellState& st = cells_[i];
        if (st.primary != i || st.done)
            continue;
        auto [it, inserted] = groups.emplace(st.fingerprint, WorkUnit{});
        WorkUnit& u = it->second;
        if (inserted) {
            u.fingerprint = st.fingerprint;
            order.push_back(st.fingerprint);
        }
        u.members.push_back(i);
        if (st.cell.reps > u.need) {
            u.need = st.cell.reps;
            u.owner = i;
        }
    }

    // Seed each group's ledger from the store (prefixes, with holes from
    // a mid-flush kill allowed) and collect the episode ranges it still
    // needs. Fully-covered groups complete without executing anything.
    std::vector<WorkUnit> units;
    for (const std::string& fp : order) {
        WorkUnit u = std::move(groups.find(fp)->second);
        Ledger& led = ledgers_[fp];
        led.grow(u.need);
        const auto se = storedEps.find(fp);
        if (se != storedEps.end()) {
            for (const auto& [idx, rec] : se->second)
                if (idx < u.need && !led.have[static_cast<std::size_t>(idx)]) {
                    led.eps[static_cast<std::size_t>(idx)] = rec;
                    led.have[static_cast<std::size_t>(idx)] = 1;
                }
        }
        for (int k = 0; k < u.need;) {
            if (led.have[static_cast<std::size_t>(k)]) {
                ++k;
                continue;
            }
            const int start = k;
            while (k < u.need && !led.have[static_cast<std::size_t>(k)])
                ++k;
            u.runs.emplace_back(start, k - start);
        }
        u.led = &led;
        if (!opt_.storePath.empty()) {
            // Ledger meta record: lets tools (sweep-diff, progress
            // viewers) label a fingerprint without re-deriving it.
            const SweepCell& oc = cells_[u.owner].cell;
            JsonRecord meta;
            meta.name = fp;
            meta.strings.emplace_back("platform", oc.platform);
            meta.strings.emplace_back("label", oc.label);
            meta.numbers.emplace_back("task", oc.taskId);
            meta.numbers.emplace_back("seed0",
                                      static_cast<double>(oc.seed0));
            std::lock_guard<std::mutex> lock(storeIoMu_);
            pendingIo_.push_back(meta); // appended at the next flush
            storeRecords_[fp] = std::move(meta);
        }
        if (u.runs.empty()) {
            finalizeGroup(fp, u.members, u.owner, /*executedNow=*/false,
                          /*skipped=*/false);
            phaseHadWork = true;
        } else {
            units.push_back(std::move(u));
        }
    }

    // Distributed sharding: partition the pending-ledger list (ordered by
    // fingerprint, so every process derives the same partition from the
    // same store snapshot) and keep our share. Skipped ledgers complete
    // with whatever local prefix they have -- the shared store's union is
    // the campaign's real artifact.
    if (opt_.shardCount > 1 && !units.empty()) {
        std::sort(units.begin(), units.end(),
                  [](const WorkUnit& a, const WorkUnit& b) {
                      return a.fingerprint < b.fingerprint;
                  });
        std::vector<WorkUnit> mine;
        for (std::size_t k = 0; k < units.size(); ++k) {
            if (static_cast<int>(k % static_cast<std::size_t>(
                                         opt_.shardCount)) ==
                opt_.shardIndex) {
                mine.push_back(std::move(units[k]));
            } else {
                finalizeGroup(units[k].fingerprint, units[k].members,
                              units[k].owner, /*executedNow=*/false,
                              /*skipped=*/true);
                phaseHadWork = true;
            }
        }
        units = std::move(mine);
    }

    // Progress accounting for this run().
    {
        std::lock_guard<std::mutex> lock(storeMu_);
        progressTotal_ = 0;
        for (const WorkUnit& u : units)
            for (const auto& [start, count] : u.runs)
                progressTotal_ += count;
        progressDone_ = progressSucc_ = 0;
        unitsTotal_ = units.size();
        unitsDone_ = 0;
        progressStart_ = nowSeconds();
        progressWall_.clear();
        progressWallNext_ = 0;
        progressFlips_ = 0;
    }
    if (!units.empty())
        phaseHadWork = true;

    // Elastic lease mode: the pending list is not a partition but a
    // candidate pool -- claim, run, and re-scan until every ledger is
    // done (by us or a peer). Units run serially in-process with the
    // full thread budget fanned out inside each unit, so the per-width
    // freeze constraint the wave scheduler exists for cannot arise and
    // the wave/bucket path below is skipped entirely.
    const bool elasticRun = opt_.leaseSeconds > 0.0 && !opt_.storePath.empty();
    if (elasticRun)
        runElastic(units);

    // Connected (coordinator) mode: the pending list is a candidate
    // pool the coordinator carves into episode ranges across the whole
    // fleet. Ranges run serially in-process (full thread budget inside
    // each range), so the wave scheduler is skipped here too.
    const bool connectedRun = !opt_.connect.empty();
    if (connectedRun && !units.empty())
        runConnected(units);

    // Waves: freezing quantized weights is per-width state on the shared
    // model set, so ledgers of one platform at different QuantBits must
    // not run concurrently. Bucket pending units by (platform, bits) in
    // first-appearance order and run the buckets sequentially.
    std::vector<std::pair<std::string, std::vector<std::size_t>>> buckets;
    for (std::size_t k = 0; !elasticRun && !connectedRun && k < units.size();
         ++k) {
        const SweepCell& c = cells_[units[k].owner].cell;
        const std::string key =
            c.platform + (c.cfg.bits == QuantBits::Int8 ? "|8" : "|4");
        auto it = std::find_if(buckets.begin(), buckets.end(),
                               [&](const auto& b) { return b.first == key; });
        if (it == buckets.end()) {
            buckets.push_back({key, {}});
            it = buckets.end() - 1;
        }
        it->second.push_back(k);
    }

    for (auto& [key, bucketUnits] : buckets) {
        const std::string& platform =
            cells_[units[bucketUnits.front()].owner].cell.platform;
        EmbodiedSystem* proto = prototypeFor(platform);
        // Serial warm point: build lazy models (rotated planner, entropy
        // predictor) and freeze every layer at this bucket's width before
        // any fan-out, so workers only read shared model state.
        for (const std::size_t k : bucketUnits)
            proto->prepare(cells_[units[k].owner].cell.cfg);

        const int cellWorkers = std::max(
            1, std::min<int>(opt_.threads,
                             static_cast<int>(bucketUnits.size())));
        // Leftover thread budget fans out within ledgers via the existing
        // episode-parallel engine (a one-ledger campaign still scales).
        const int episodeThreads = std::max(1, opt_.threads / cellWorkers);

        if (cellWorkers == 1) {
            proto->setEvalThreads(episodeThreads);
            for (const std::size_t k : bucketUnits)
                runUnit(units[k], *proto);
            continue;
        }

        auto& replicas = replicas_[platform];
        while (static_cast<int>(replicas.size()) < cellWorkers)
            replicas.push_back(proto->replicate());
        for (auto& r : replicas)
            r->setEvalThreads(episodeThreads);

        std::atomic<std::size_t> cursor{0};
        std::string firstError;
        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(cellWorkers));
        for (int w = 0; w < cellWorkers; ++w) {
            workers.emplace_back([&, w] {
                try {
                    for (;;) {
                        const std::size_t i = cursor.fetch_add(1);
                        if (i >= bucketUnits.size())
                            return;
                        runUnit(units[bucketUnits[i]],
                                *replicas[static_cast<std::size_t>(w)]);
                    }
                } catch (const std::exception& e) {
                    std::lock_guard<std::mutex> lock(storeMu_);
                    if (firstError.empty())
                        firstError = e.what();
                }
            });
        }
        for (auto& w : workers)
            w.join();
        if (!firstError.empty())
            throw std::runtime_error("SweepRunner worker failed: " +
                                     firstError);
    }

    if (!opt_.storePath.empty())
        flushStore(); // include resumed/meta records so the store is whole

    // Recount from cell state (idempotent across phased runs).
    executed_ = memoized_ = resumed_ = sliced_ = skipped_ = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const CellState& st = cells_[i];
        if (st.primary != i) {
            ++memoized_;
            continue;
        }
        if (!st.done)
            continue;
        switch (st.source) {
          case CellSource::Executed: ++executed_; break;
          case CellSource::Resumed: ++resumed_; break;
          case CellSource::Sliced: ++sliced_; break;
          case CellSource::Skipped: ++skipped_; break;
          case CellSource::Memoized: break; // primaries are never Memoized
        }
    }
    // Print the summary on the first run even when nothing was pending (a
    // fully-resumed campaign still reports executed=0); later phases only
    // report when they actually had work.
    if (!ran_ || phaseHadWork)
        std::printf("%s\n", summary().c_str());
    ran_ = true;
}

const std::vector<EpisodeResult>&
SweepRunner::episodes(std::size_t handle)
{
    CellState& st = cells_.at(cells_.at(handle).primary);
    if (!st.done)
        throw std::logic_error("SweepRunner::episodes before run()");
    if (st.hasEpisodes)
        return st.episodes;
    // The cell's prefix of the shared ledger, when present (executed,
    // sliced, or resumed from a v2 store).
    const int want = st.source == CellSource::Skipped ? st.stats.episodes
                                                      : st.cell.reps;
    const auto lit = ledgers_.find(st.fingerprint);
    if (lit != ledgers_.end() && lit->second.prefixLen(want) >= want) {
        st.episodes.reserve(static_cast<std::size_t>(want));
        for (int i = 0; i < want; ++i)
            st.episodes.push_back(
                lit->second.eps[static_cast<std::size_t>(i)].result);
    } else {
        // Legacy v1 resume: the store only held the aggregate. Re-derive
        // the per-episode results; execution is deterministic, so these
        // are exactly the episodes the stored stats came from.
        EmbodiedSystem* proto = prototypeFor(st.cell.platform);
        proto->prepare(st.cell.cfg);
        proto->setEvalThreads(opt_.threads);
        st.episodes = proto->runEpisodes(st.cell.taskId, st.cell.cfg,
                                         st.cell.reps, st.cell.seed0);
    }
    st.hasEpisodes = true;
    return st.episodes;
}

std::string
SweepRunner::summary() const
{
    char buf[256];
    int n = std::snprintf(
        buf, sizeof(buf),
        "[sweep] cells=%zu executed=%d memoized=%d resumed=%d sliced=%d "
        "eps=%lld",
        cells_.size(), executed_, memoized_, resumed_, sliced_,
        episodesExecuted_);
    if (opt_.shardCount > 1 && n > 0 &&
        n < static_cast<int>(sizeof(buf)))
        std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                      " shard=%d/%d skipped=%d", opt_.shardIndex,
                      opt_.shardCount, skipped_);
    else if (opt_.leaseSeconds > 0.0 && n > 0 &&
             n < static_cast<int>(sizeof(buf)))
        std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                      " lease=%gs stolen=%lld expired=%lld",
                      opt_.leaseSeconds, leasesStolen_.load(),
                      leasesExpired_.load());
    return buf;
}

} // namespace create
