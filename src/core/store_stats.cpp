#include "core/store_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <tuple>

#include "common/store_keys.hpp"

namespace create {

namespace {

std::string
fmtg(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Parse an integer field `|<key>=N` out of a ledger fingerprint. */
int
fingerprintInt(const std::string& fp, const char* key)
{
    const std::string needle = std::string("|") + key + "=";
    const std::size_t pos = fp.find(needle);
    if (pos == std::string::npos)
        return -1;
    const char* s = fp.c_str() + pos + needle.size();
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || v < 0)
        return -1;
    return static_cast<int>(v);
}

/** Platform segment of a v2 fingerprint: "v2|<platform>|task=...". */
std::string
fingerprintPlatform(const std::string& fp)
{
    if (fp.rfind("v2|", 0) != 0)
        return {};
    const std::size_t start = 3;
    const std::size_t end = fp.find('|', start);
    return end == std::string::npos ? std::string()
                                    : fp.substr(start, end - start);
}

/** Checkpoint reps of the convergence curve: 1, 2, 5, 10, 20, 50, ... */
std::vector<int>
convergenceCheckpoints(int episodes)
{
    std::vector<int> cps;
    for (int base = 1; base <= episodes; base *= 10)
        for (const int mul : {1, 2, 5}) {
            const int cp = base * mul;
            if (cp <= episodes)
                cps.push_back(cp);
        }
    if (cps.empty() || cps.back() != episodes)
        cps.push_back(episodes);
    return cps;
}

} // namespace

double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    // Nearest rank: the ceil(p/100 * n)-th smallest sample (1-based),
    // clamped into range. Every result is an actual sample value, so a
    // deterministic ledger yields bit-exact percentiles.
    const double n = static_cast<double>(samples.size());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    if (rank < 1)
        rank = 1;
    if (rank > samples.size())
        rank = samples.size();
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

PercentileSummary
summarize(const std::vector<double>& samples)
{
    PercentileSummary s;
    s.p50 = percentile(samples, 50.0);
    s.p95 = percentile(samples, 95.0);
    s.p99 = percentile(samples, 99.0);
    return s;
}

StoreStatsResult
computeStoreStats(const std::vector<StoreCell>& cells,
                  const std::vector<JsonRecord>& workers)
{
    StoreStatsResult res;
    // Pooled samples per (platform, task, protection) rollup.
    struct Pool
    {
        std::vector<double> energy, steps;
        int ledgers = 0, episodes = 0, successes = 0;
    };
    std::map<std::tuple<std::string, int, int>, Pool> pools;
    // Per-worker attribution (coordinator campaigns only).
    struct OwnerLoad
    {
        int episodes = 0, ledgers = 0;
        const JsonRecord* telemetry = nullptr;
    };
    std::map<std::string, OwnerLoad> owners;
    // Coordinator range telemetry joins the attribution rows by worker
    // id (the coordinator keys worker| records by the hello identity,
    // which is the same "host:pid.seq" string stamped into episode `by`
    // fields). One record per worker; a re-flush rewrites it, so the
    // last one in store order wins.
    for (const JsonRecord& rec : workers) {
        std::string id;
        if (sweepWorkerId(rec.name, &id))
            owners[id].telemetry = &rec;
    }

    for (const StoreCell& cell : cells) {
        for (const auto& [owner, n] : cell.episodeOwners) {
            OwnerLoad& load = owners[owner];
            load.episodes += n;
            ++load.ledgers;
        }
        if (cell.records.empty())
            continue;
        LedgerTail t;
        t.fingerprint = cell.fingerprint;
        t.platform = cell.platform.empty()
                         ? fingerprintPlatform(cell.fingerprint)
                         : cell.platform;
        t.label = cell.label;
        t.taskId = fingerprintInt(cell.fingerprint, "task");
        t.protection = fingerprintInt(cell.fingerprint, "prot");
        t.episodes = cell.episodes;
        t.stats = cell.stats;
        t.metrics = cell.metrics;
        t.hasMetrics = cell.hasMetrics;

        std::vector<double> energy, steps, wall;
        energy.reserve(cell.records.size());
        steps.reserve(cell.records.size());
        int successes = 0;
        for (const EpisodeRecord& rec : cell.records) {
            energy.push_back(rec.computeJ);
            steps.push_back(static_cast<double>(rec.result.steps));
            if (rec.metrics.present)
                wall.push_back(rec.metrics.wallMs);
            if (rec.result.success)
                ++successes;
        }
        t.energyJ = summarize(energy);
        t.steps = summarize(steps);
        t.hasWall = wall.size() == cell.records.size() && !wall.empty();
        if (t.hasWall)
            t.wallMs = summarize(wall);

        int succSoFar = 0, idx = 0;
        for (const int cp : convergenceCheckpoints(t.episodes)) {
            for (; idx < cp; ++idx)
                succSoFar += cell.records[static_cast<std::size_t>(idx)]
                                 .result.success
                                 ? 1
                                 : 0;
            t.convergence.emplace_back(
                cp, static_cast<double>(succSoFar) / cp);
        }

        Pool& pool =
            pools[{t.platform, t.taskId, t.protection}];
        pool.energy.insert(pool.energy.end(), energy.begin(), energy.end());
        pool.steps.insert(pool.steps.end(), steps.begin(), steps.end());
        ++pool.ledgers;
        pool.episodes += t.episodes;
        pool.successes += successes;

        res.ledgers.push_back(std::move(t));
    }

    for (const auto& [key, pool] : pools) {
        GroupTail g;
        g.platform = std::get<0>(key);
        g.taskId = std::get<1>(key);
        g.protection = std::get<2>(key);
        g.ledgers = pool.ledgers;
        g.episodes = pool.episodes;
        g.successRate = pool.episodes > 0
                            ? static_cast<double>(pool.successes) /
                                  static_cast<double>(pool.episodes)
                            : 0.0;
        g.energyJ = summarize(pool.energy);
        g.steps = summarize(pool.steps);
        res.groups.push_back(std::move(g));
    }
    for (const auto& [owner, load] : owners) {
        ShardLoad s;
        s.owner = owner;
        s.episodes = load.episodes;
        s.ledgers = load.ledgers;
        if (load.telemetry) {
            const JsonRecord& t = *load.telemetry;
            s.hasRanges = true;
            s.rangesAssigned =
                static_cast<long long>(t.number("rangesAssigned"));
            s.rangesCompleted =
                static_cast<long long>(t.number("rangesCompleted"));
            s.rangesRedispatched =
                static_cast<long long>(t.number("rangesRedispatched"));
            s.rangeP50Ms = t.number("rangeP50Ms");
            s.rangeP95Ms = t.number("rangeP95Ms");
            const double elapsed = t.number("elapsed");
            if (elapsed > 0.0)
                s.epsPerSec = t.number("episodes") / elapsed;
        }
        res.shards.push_back(std::move(s));
    }
    std::sort(res.shards.begin(), res.shards.end(),
              [](const ShardLoad& a, const ShardLoad& b) {
                  return a.episodes != b.episodes ? a.episodes > b.episodes
                                                  : a.owner < b.owner;
              });
    return res;
}

bool
computeStoreStats(const std::string& path, StoreStatsResult& out,
                  std::string& error)
{
    std::vector<StoreCell> cells;
    std::vector<JsonRecord> workers;
    if (!loadStoreCells(path, cells, error, &workers))
        return false;
    out = computeStoreStats(cells, workers);
    return true;
}

StatsCompareResult
compareStoreStats(const StoreStatsResult& a, const StoreStatsResult& b,
                  const StoreDiffOptions& opt)
{
    StatsCompareResult res;
    std::map<std::string, const LedgerTail*> byFpB;
    for (const LedgerTail& t : b.ledgers)
        byFpB.emplace(t.fingerprint, &t);

    auto within = [&](double x, double y) {
        if (x == y)
            return true;
        const double scale = std::max(std::fabs(x), std::fabs(y));
        return std::fabs(x - y) <= opt.absTol + opt.relTol * scale;
    };

    for (const LedgerTail& ta : a.ledgers) {
        const auto it = byFpB.find(ta.fingerprint);
        if (it == byFpB.end()) {
            ++res.onlyA;
            continue;
        }
        const LedgerTail& tb = *it->second;
        byFpB.erase(it);
        ++res.compared;
        if (ta.episodes != tb.episodes) {
            res.entries.push_back(
                {ta.fingerprint,
                 "episodes " + std::to_string(ta.episodes) + " vs " +
                     std::to_string(tb.episodes)});
            continue; // percentile drift is implied by a shorter fold
        }
        const std::pair<const char*, const PercentileSummary LedgerTail::*>
            dims[] = {{"energyJ", &LedgerTail::energyJ},
                      {"steps", &LedgerTail::steps}};
        for (const auto& [dim, member] : dims)
            for (const auto& [pkey, pmember] : kPercentileFields) {
                const double va = (ta.*member).*pmember;
                const double vb = (tb.*member).*pmember;
                if (!within(va, vb))
                    res.entries.push_back(
                        {ta.fingerprint, std::string(dim) + "." + pkey +
                                             " " + fmtg(va) + " vs " +
                                             fmtg(vb)});
            }
    }
    res.onlyB = static_cast<int>(byFpB.size());
    return res;
}

} // namespace create
