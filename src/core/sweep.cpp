#include "core/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

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
 * The config-dependent fingerprint tail: everything that can change
 * execution, nothing that cannot. The policy's display name never
 * matters; the whole policy (and the LDO update interval) only matters
 * under voltageScaling; BER fields only matter under Uniform injection;
 * the injection target switches and component filter only matter when
 * injection is active at all. Operating voltages always matter (the
 * energy meter prices clean compute at them too).
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
 * This runner's worker identity: "host:pid.seq". The per-process sequence
 * distinguishes multiple runners inside one process (tests, embedded
 * campaigns): each gets its own binlog append log and its own
 * coordinator telemetry row.
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

/** Ledger meta record: lets tools (sweep-diff, progress viewers) label a
 *  fingerprint without re-deriving it. */
JsonRecord
ledgerMeta(const std::string& fingerprint, const SweepCell& owner)
{
    JsonRecord meta;
    meta.name = fingerprint;
    meta.strings.emplace_back("platform", owner.platform);
    meta.strings.emplace_back("label", owner.label);
    meta.numbers.emplace_back("task", owner.taskId);
    meta.numbers.emplace_back("seed0", static_cast<double>(owner.seed0));
    return meta;
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

/**
 * Streams one wave's completed episodes into their ledgers + the store.
 * Job i of the wave is episode slots[i].index of ledger slots[i].unit.
 * Whichever thread lands a ledger's last episode finalizes its cells and
 * flushes the store: the ledger boundary a killed campaign resumes from.
 */
class SweepRunner::StoreSink : public EpisodeSink
{
  public:
    struct Slot
    {
        WorkUnit* unit;
        int index; //!< episode index within the unit's ledger
    };

    StoreSink(SweepRunner& runner, const EmbodiedSystem& sys)
        : runner_(runner), sys_(sys)
    {
    }

    std::vector<Slot> slots; //!< one per job of the wave

    void onEpisode(int job, const EpisodeResult& result,
                   const EpisodeMetrics& metrics) override
    {
        const Slot& slot = slots[static_cast<std::size_t>(job)];
        WorkUnit& unit = *slot.unit;
        // Price the episode once, at completion: the record is the unit
        // of campaign state from here on. The metrics payload rides along
        // into the ledger/store but never into the TaskStats fold.
        const EpisodeRecord rec{
            result, sys_.energyModel().episodeComputeJ(result), metrics};
        bool doFlush = false;
        bool ledgerDone = false;
        {
            std::lock_guard<std::mutex> lock(runner_.storeMu_);
            runner_.landEpisodeLocked(*unit.led, slot.index, rec);
            if (runner_.store_)
                runner_.pendingRecords_.push_back(episodeToRecord(
                    sweepEpisodeKey(unit.fingerprint, slot.index), rec));
            if (++runner_.flushTick_ >= runner_.opt_.flushEvery) {
                runner_.flushTick_ = 0;
                doFlush = true;
            }
            ledgerDone = --unit.remaining == 0;
        }
        if (ledgerDone)
            runner_.finalizeGroup(unit, /*executedNow=*/true);
        if (!doFlush && !ledgerDone)
            return;
        runner_.flushStore();
        if (runner_.opt_.progress)
            runner_.progressLine();
        if (ledgerDone && runner_.opt_.verbose) {
            const CellState& owner = runner_.cells_[unit.owner];
            std::fprintf(stderr, "[sweep] done %s (%s, success %.0f%%)\n",
                         owner.cell.label.empty()
                             ? unit.fingerprint.c_str()
                             : owner.cell.label.c_str(),
                         sys_.taskName(owner.cell.taskId),
                         100.0 * owner.stats.successRate);
        }
    }

  private:
    SweepRunner& runner_;
    const EmbodiedSystem& sys_;
};

/**
 * Streams one dispatched range's completed episodes to the coordinator:
 * the same ledger landing as StoreSink, but the records go onto the
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
            runner_.landEpisodeLocked(ledger_, base + index, rec);
        }
        JsonRecord jr = episodeToRecord(
            sweepEpisodeKey(fingerprint_, base + index), rec);
        // Worker attribution for sweep-stats: a string field the
        // diff/stat folds never compare.
        jr.strings.emplace_back("by", runner_.workerId_);
        bool flushed = false;
        {
            // Episodes complete on every runJobs() thread; the range
            // buffer, the send cursor and the client are shared.
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
     *  range's runJobs() has returned. */
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
    if (!opt_.connect.empty()) {
        std::string host;
        int port = 0;
        if (!parseHostPort(opt_.connect, host, port))
            throw std::invalid_argument(
                "SweepRunner: connect expects host:port, got '" +
                opt_.connect + "'");
        if (!opt_.storePath.empty() || opt_.resume)
            throw std::invalid_argument(
                "SweepRunner: connect replaces the store options "
                "(store/resume) -- the coordinator owns all store state");
    }
    workerId_ = makeWorkerId();
}

SweepRunner::~SweepRunner()
{
    // A clean goodbye: a --once coordinator treats any other close as a
    // reset and waits briefly for this worker to reconnect.
    if (coord_ && coord_->connected()) {
        std::string err;
        coord_->send(coordwire::control("bye"), &err);
    }
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
    auto it = systems_.find(platform);
    if (it == systems_.end())
        it = systems_
                 .emplace(platform, PlatformRegistry::instance().make(
                                        platform, /*verbose=*/false))
                 .first;
    return *it->second;
}

void
SweepRunner::landEpisodeLocked(Ledger& ledger, int index,
                               const EpisodeRecord& rec)
{
    const auto idx = static_cast<std::size_t>(index);
    ledger.eps[idx] = rec;
    ledger.have[idx] = 1;
    ledger.anyExecuted = true;
    ++episodesExecuted_;
    ++progressDone_;
    if (rec.result.success)
        ++progressSucc_;
    if (rec.metrics.present) {
        // Bounded sliding window: live tail latency, O(1) space.
        constexpr std::size_t kWallWindow = 4096;
        if (progressWall_.size() < kWallWindow)
            progressWall_.push_back(rec.metrics.wallMs);
        else
            progressWall_[progressWallNext_++ % kWallWindow] =
                rec.metrics.wallMs;
        progressFlips_ += rec.metrics.flipsInjected;
    }
}

void
SweepRunner::finalizeGroup(const WorkUnit& unit, bool executedNow)
{
    std::lock_guard<std::mutex> lock(storeMu_);
    const Ledger& led = *unit.led;
    for (const std::size_t m : unit.members) {
        CellState& st = cells_[m];
        st.stats = aggregate(led.eps.data(),
                             static_cast<std::size_t>(st.cell.reps));
        if (m == unit.owner && executedNow)
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
SweepRunner::flushStore()
{
    if (!store_)
        return;
    // Chaos injection point: a worker that dies here leaves its pending
    // batch unflushed -- exactly the kill -9 shape --resume gap-fill
    // must absorb.
    chaos::maybeAbortBeforeFlush();
    // Drain the pending batch under storeMu_ (O(batch), so workers
    // streaming episodes never queue behind disk or an O(store) copy),
    // then publish under the separate I/O mutex. Of two racing flushes,
    // each publishes whatever is queued when it gets the I/O mutex, so
    // no batch outlives the flush that drained it. A publish that
    // throws fails the campaign through the episode worker's error
    // capture.
    std::vector<JsonRecord> batch;
    {
        std::lock_guard<std::mutex> lock(storeMu_);
        batch.swap(pendingRecords_);
    }
    std::lock_guard<std::mutex> io(storeIoMu_);
    for (JsonRecord& rec : batch)
        store_->put(std::move(rec));
    // Chaos injection point: a torn write landing on disk. The view is
    // intact, so the owed next publish heals it; a reader in between (a
    // post-kill resume) must salvage the parseable prefix.
    if (store_->publish() && chaos::maybeTearWrite(store_->lastDataFile()))
        store_->owe();
}

void
SweepRunner::runConnected(std::vector<WorkUnit>& units)
{
    std::string host;
    int port = 0;
    parseHostPort(opt_.connect, host, port); // validated at construction

    if (!coord_)
        coord_ = std::make_unique<CoordClient>();
    CoordClient& client = *coord_;
    // The reconnect budget doubles as the coordinator-restart budget:
    // connectRetry's backoff (capped at 2 s per sleep) spans ~30 s over
    // 20 attempts, comfortably past a kill -9 + restart-from-salvage.
    constexpr int kConnectAttempts = 20;

    // Everything after hello is idempotent, so a (re)connect just
    // replays the declarations: ledger meta (the coordinator stores it
    // exactly as a local campaign would) + the episode need per unit.
    const auto declareAll = [&](std::string* err) -> bool {
        std::vector<JsonRecord> decl;
        decl.reserve(units.size() * 2);
        for (const WorkUnit& u : units) {
            decl.push_back(ledgerMeta(u.fingerprint, cells_[u.owner].cell));
            JsonRecord need = coordwire::control("need");
            need.strings.emplace_back("fp", u.fingerprint);
            need.numbers.emplace_back("need", u.need);
            decl.push_back(std::move(need));
        }
        return client.send(decl, err);
    };
    // connect() gives up only when the coordinator stays unreachable; a
    // reset can cut the handshake, which goes out with the declarations,
    // like any later send, so that is tried again.
    const auto reconnect = [&]() {
        std::string err;
        for (int tries = 0; tries <= io::kRetryAttempts; ++tries) {
            if (!client.connect(host, port, workerId_, kConnectAttempts,
                                &err))
                break;
            if (declareAll(&err))
                return;
        }
        throw std::runtime_error("cannot reach coordinator " + opt_.connect +
                                 ": " + err);
    };
    // A later phase declares its ledgers on the connection an earlier
    // phase opened: closing it between phases would let a --once
    // coordinator see an idle, complete fleet and exit under us.
    {
        std::string err;
        if (!client.connected() || !declareAll(&err))
            reconnect();
    }

    // Per-unit bookkeeping: which units this worker actually ran
    // episodes for (their owner cells report Executed, the rest Sliced/
    // Resumed), keyed by fingerprint.
    std::map<std::string, WorkUnit*> byFp;
    std::map<std::string, bool> ranAny;
    for (WorkUnit& u : units)
        byFp[u.fingerprint] = &u;

    // Ranges run one at a time in-process (the coordinator is the
    // scale-out). Each is one runJobs() call, which prepares the range's
    // config serially -- satisfying the per-width weight-freeze
    // constraint -- and fans its episodes out over the thread budget.
    // The coordinator answers a `req` once a range or `fin` exists, so
    // the worker blocks in recv until then.
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
            continue;
        }
        std::string verb;
        if (!coordwire::isControl(rec, &verb))
            continue; // data frames are only expected during fetch
        if (verb == "fin")
            break;
        if (verb != "range")
            continue; // an unknown verb: ask again
        const std::string fp = rec.text("fp");
        const int start = coordwire::wireInt(rec, "start");
        const int count = coordwire::wireInt(rec, "count");
        if (start < 0 || count < 1)
            continue; // malformed: dropped
        const auto uit = byFp.find(fp);
        if (uit == byFp.end()) {
            // A fingerprint this phase did not declare (a fleet running
            // differently-scoped campaigns): let the assignment time out
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
        EmbodiedSystem& sys = system(c.platform);
        {
            // The coordinator sizes ranges against the deepest need any
            // worker declared for this ledger, which can exceed ours.
            std::lock_guard<std::mutex> lock(storeMu_);
            unit.led->grow(start + count);
        }
        std::vector<EpisodeJob> jobs;
        jobs.reserve(static_cast<std::size_t>(count));
        for (int i = start; i < start + count; ++i)
            jobs.push_back(
                {c.taskId, &c.cfg, c.seed0 + static_cast<std::uint64_t>(i)});
        CoordSink sink(*this, unit.fingerprint, *unit.led,
                       sys.energyModel(), client);
        sink.base = start;
        sys.runJobs(jobs, opt_.threads, &sink);
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
        finalizeGroup(u, /*executedNow=*/ranAny.count(u.fingerprint) > 0);
        if (opt_.progress)
            progressLine();
    }
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
    std::fprintf(stderr,
                 "[sweep] progress: ledgers %zu/%zu, episodes %lld/%lld, "
                 "%.1f eps/s, success %.1f%%%s, eta %s\n",
                 unitsDone, unitsTotal, done, total, rate,
                 done > 0 ? 100.0 * static_cast<double>(succ) /
                                static_cast<double>(done)
                          : 0.0,
                 live, eta);
}

void
SweepRunner::run()
{
    if (!ran_ && opt_.resume && opt_.storePath.empty())
        std::fprintf(stderr, "[sweep] --resume without a result store "
                             "(--out) has no effect\n");

    // The store loads once, on the first run(): this runner is its only
    // writer, so a later phase reads the in-memory view. Existing
    // records are preserved through flushes even without --resume (two
    // campaigns can share one store); --resume additionally seeds the
    // ledgers from them.
    if (!ran_ && !opt_.storePath.empty()) {
        store_ = std::make_unique<ResultStore>(
            opt_.storePath, opt_.storeFormat, workerId_, "sweep");
        if (store_->open() == StoreOpen::FutureSchema) {
            std::fprintf(stderr,
                         "[sweep] result store %s has schema %g (newer "
                         "than this build's %d); leaving it untouched -- "
                         "this campaign runs without a store\n",
                         opt_.storePath.c_str(), store_->schema(),
                         kSweepStoreSchema);
            store_.reset();
        }
    }

    bool phaseHadWork = false;

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
    // No episode runs yet, so the store needs no lock here.
    std::vector<WorkUnit> units;
    for (const std::string& fp : order) {
        WorkUnit u = std::move(groups.find(fp)->second);
        Ledger& led = ledgers_[fp];
        led.grow(u.need);
        for (int k = 0; k < u.need; ++k) {
            const auto i = static_cast<std::size_t>(k);
            if (!led.have[i] && opt_.resume && store_) {
                const auto& view = store_->records();
                const auto it = view.find(sweepEpisodeKey(fp, k));
                if (it != view.end()) {
                    led.have[i] = episodeFromRecord(it->second, led.eps[i]);
                    if (!led.have[i])
                        std::fprintf(stderr,
                                     "[sweep] store record %s is missing "
                                     "episode fields; re-running it\n",
                                     it->first.c_str());
                }
            }
            if (!led.have[i])
                u.missing.push_back(k);
        }
        u.remaining = static_cast<int>(u.missing.size());
        u.led = &led;
        if (store_)
            store_->put(ledgerMeta(fp, cells_[u.owner].cell));
        if (u.missing.empty()) {
            finalizeGroup(u, /*executedNow=*/false);
            phaseHadWork = true;
        } else {
            units.push_back(std::move(u));
        }
    }

    // Progress accounting for this run().
    {
        std::lock_guard<std::mutex> lock(storeMu_);
        progressTotal_ = 0;
        for (const WorkUnit& u : units)
            progressTotal_ += u.remaining;
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

    // Connected (coordinator) mode: the pending list is a candidate
    // pool the coordinator carves into episode ranges across the whole
    // fleet. Ranges run serially in-process (full thread budget inside
    // each range), so the per-width freeze constraint the wave scheduler
    // exists for cannot arise and the wave/bucket path below is skipped.
    const bool connectedRun = !opt_.connect.empty();
    if (connectedRun && !units.empty())
        runConnected(units);

    // Waves: freezing quantized weights is per-width state on the shared
    // model set, so ledgers of one platform at different QuantBits must
    // not run concurrently. Bucket pending units by (platform, bits) in
    // first-appearance order and run the buckets sequentially.
    std::vector<std::pair<std::string, std::vector<std::size_t>>> buckets;
    for (std::size_t k = 0; !connectedRun && k < units.size(); ++k) {
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

    // One wave per bucket: every pending ledger's missing episodes as
    // one flat job list over the thread budget, so a deep ledger spreads
    // over every thread and no thread idles while another finishes a
    // ledger alone. runJobs prepares the wave's configs serially first.
    for (const auto& [key, bucketUnits] : buckets) {
        EmbodiedSystem& sys =
            system(cells_[units[bucketUnits.front()].owner].cell.platform);
        StoreSink sink(*this, sys);
        std::vector<EpisodeJob> jobs;
        for (const std::size_t k : bucketUnits) {
            WorkUnit& u = units[k];
            const SweepCell& c = cells_[u.owner].cell;
            for (const int i : u.missing) {
                jobs.push_back(
                    {c.taskId, &c.cfg, c.seed0 + static_cast<std::uint64_t>(i)});
                sink.slots.push_back({&u, i});
            }
        }
        sys.runJobs(jobs, opt_.threads, &sink);
    }

    flushStore(); // include resumed/meta records so the store is whole

    // Recount from cell state (idempotent across phased runs).
    executed_ = memoized_ = resumed_ = sliced_ = 0;
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
    // The cell's prefix of the shared ledger: run() completes a cell only
    // once that prefix is whole (executed, sliced, resumed or fetched).
    const Ledger& led = ledgers_.at(st.fingerprint);
    st.episodes.reserve(static_cast<std::size_t>(st.cell.reps));
    for (int i = 0; i < st.cell.reps; ++i)
        st.episodes.push_back(led.eps[static_cast<std::size_t>(i)].result);
    st.hasEpisodes = true;
    return st.episodes;
}

std::string
SweepRunner::summary() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "[sweep] cells=%zu executed=%d memoized=%d resumed=%d "
                  "sliced=%d eps=%lld",
                  cells_.size(), executed_, memoized_, resumed_, sliced_,
                  episodesExecuted_);
    return buf;
}

} // namespace create
