#include "core/store_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/serialize.hpp"
#include "core/store_backend.hpp"
#include "core/sweep.hpp"

namespace create {

namespace {

std::string
fmtg(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
withinTolerance(double a, double b, const StoreDiffOptions& opt)
{
    if (a == b)
        return true; // covers exact equality including both zero
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= opt.absTol + opt.relTol * scale;
}

} // namespace

bool
loadStoreCells(const std::string& path, std::vector<StoreCell>& out,
               std::string& error, std::vector<JsonRecord>* workers)
{
    out.clear();
    error.clear();
    if (workers)
        workers->clear();
    // Format autodetection (magic bytes / directory-ness) means every
    // reader accepts either store format -- and a mix of the two across
    // the A/B sides of a diff -- with no flag: json vs binlog diffs are
    // how cross-format bit-identity is certified.
    std::vector<JsonRecord> records;
    StoreLoadInfo sal;
    std::unique_ptr<StoreBackend> be =
        openStoreBackend(path, StoreFormat::Json, "reader");
    if (!be->load(records, &sal, /*quarantineBadTails=*/true)) {
        error = "cannot read result store " + path;
        return false;
    }
    if (sal.salvaged) {
        if (records.empty()) {
            error = "cannot parse result store " + path +
                    " (no parseable records)";
            return false;
        }
        // Truncated/torn store: fold the parseable prefix (a campaign
        // killed mid-write still certifies every record that landed);
        // the backend quarantined the bad tails for post-mortem.
        reportStoreSalvage("store", path, sal);
    }

    // Pass 1: collect episode ledgers (with per-episode owner
    // attribution when present) and meta records. Anything else -- a
    // `lease|` record an older build wrote, for one -- is opaque here:
    // no fingerprint looks it up.
    std::map<std::string, std::map<int, std::pair<EpisodeRecord,
                                                  std::string>>> ledgers;
    std::map<std::string, const JsonRecord*> metas;
    for (const JsonRecord& rec : records) {
        if (rec.name == kSweepStoreSchemaRecord)
            continue;
        std::string fp;
        const int idx = sweepEpisodeIndex(rec.name, &fp);
        if (idx >= 0) {
            EpisodeRecord er;
            if (episodeFromRecord(rec, er))
                ledgers[fp][idx] = {er, rec.text("by")};
            continue;
        }
        if (sweepWorkerId(rec.name)) {
            // Coordinator range-dispatch telemetry: handed to callers
            // that ask for it (sweep-stats), never folded into a cell.
            if (workers)
                workers->push_back(rec);
            continue;
        }
        metas.emplace(rec.name, &rec);
    }

    // Pass 2: fold each ledger's contiguous prefix (a hole from a killed
    // mid-flush campaign ends the comparable range; the suffix beyond it
    // was never certified by a completed fold).
    for (const auto& [fp, eps] : ledgers) {
        StoreCell cell;
        cell.fingerprint = fp;
        std::vector<EpisodeRecord> prefix;
        prefix.reserve(eps.size());
        std::map<std::string, int> owners;
        int next = 0;
        for (const auto& [idx, recOwner] : eps) {
            if (idx != next)
                break;
            prefix.push_back(recOwner.first);
            if (!recOwner.second.empty())
                ++owners[recOwner.second];
            ++next;
        }
        cell.episodes = next;
        cell.episodeOwners.assign(owners.begin(), owners.end());
        cell.stats = aggregate(prefix);
        // Metrics are comparable only with full coverage: a ledger mixing
        // metrics-on and metrics-off (or v2 and v3) episodes would make
        // the summed counters depend on which build ran which episode.
        cell.hasMetrics = next > 0;
        for (const EpisodeRecord& rec : prefix) {
            cell.hasMetrics = cell.hasMetrics && rec.metrics.present;
            cell.metrics += rec.metrics;
        }
        if (!cell.hasMetrics)
            cell.metrics = EpisodeMetrics{};
        cell.records = std::move(prefix);
        const auto mit = metas.find(fp);
        if (mit != metas.end()) {
            cell.platform = mit->second->text("platform");
            cell.label = mit->second->text("label");
        }
        out.push_back(std::move(cell));
    }

    std::sort(out.begin(), out.end(),
              [](const StoreCell& a, const StoreCell& b) {
                  return a.fingerprint < b.fingerprint;
              });
    return true;
}

StoreDiffResult
diffStoreCells(const std::vector<StoreCell>& a,
               const std::vector<StoreCell>& b, const StoreDiffOptions& opt)
{
    StoreDiffResult res;
    res.cellsA = static_cast<int>(a.size());
    res.cellsB = static_cast<int>(b.size());

    std::map<std::string, const StoreCell*> byFpB;
    for (const StoreCell& cell : b)
        byFpB.emplace(cell.fingerprint, &cell);

    std::vector<StoreDiffEntry> onlyA, onlyB;
    for (const StoreCell& ca : a) {
        const auto it = byFpB.find(ca.fingerprint);
        if (it == byFpB.end()) {
            onlyA.push_back({StoreDiffEntry::Kind::OnlyInA, ca.fingerprint,
                             ca.label.empty() ? "missing from B"
                                              : ca.label + ": missing from B"});
            continue;
        }
        const StoreCell& cb = *it->second;
        byFpB.erase(it);
        ++res.compared;
        if (ca.episodes != cb.episodes ||
            ca.stats.successes != cb.stats.successes) {
            res.entries.push_back(
                {StoreDiffEntry::Kind::Episodes, ca.fingerprint,
                 "episodes/successes " + std::to_string(ca.episodes) + "/" +
                     std::to_string(ca.stats.successes) + " vs " +
                     std::to_string(cb.episodes) + "/" +
                     std::to_string(cb.stats.successes)});
            continue; // stat drift is implied by a different fold length
        }
        for (const auto& [key, member] : kTaskStatFields) {
            const double va = ca.stats.*member;
            const double vb = cb.stats.*member;
            if (!withinTolerance(va, vb, opt))
                res.entries.push_back({StoreDiffEntry::Kind::Stat,
                                       ca.fingerprint,
                                       std::string(key) + " " + fmtg(va) +
                                           " vs " + fmtg(vb)});
        }
        // Observability counters are RNG-seed-driven and therefore as
        // deterministic as the stats; compare them when both sides have
        // full coverage (never wallMs -- wall time is honest noise).
        if (ca.hasMetrics && cb.hasMetrics) {
            for (const auto& [key, member] : kEpisodeMetricFields) {
                const double va =
                    static_cast<double>(ca.metrics.*member);
                const double vb =
                    static_cast<double>(cb.metrics.*member);
                if (!withinTolerance(va, vb, opt))
                    res.entries.push_back(
                        {StoreDiffEntry::Kind::Stat, ca.fingerprint,
                         "metrics." + std::string(key) + " " + fmtg(va) +
                             " vs " + fmtg(vb)});
            }
        }
    }
    for (const auto& [fp, cell] : byFpB)
        onlyB.push_back({StoreDiffEntry::Kind::OnlyInB, fp,
                         cell->label.empty() ? "new in B"
                                             : cell->label + ": new in B"});

    res.entries.insert(res.entries.end(), onlyA.begin(), onlyA.end());
    res.entries.insert(res.entries.end(), onlyB.begin(), onlyB.end());
    return res;
}

StoreDiffResult
diffStores(const std::string& pathA, const std::string& pathB,
           const StoreDiffOptions& opt)
{
    std::vector<StoreCell> a, b;
    std::string error;
    if (!loadStoreCells(pathA, a, error))
        throw std::runtime_error(error);
    if (!loadStoreCells(pathB, b, error))
        throw std::runtime_error(error);
    return diffStoreCells(a, b, opt);
}

} // namespace create
