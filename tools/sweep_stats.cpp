/**
 * @file
 * sweep-stats: tail analytics over a SweepRunner result store.
 *
 *   sweep-stats store.json [--compare other.json] [--abs-tol X]
 *               [--rel-tol Y] [--json out.json] [--csv out.csv]
 *               [--curve] [--top N]
 *
 * Renders p50/p95/p99 episode energy and steps per (platform, task,
 * protection mode), per-fingerprint flip-attribution tables (stores
 * written at schema v3), and -- with --curve -- success-vs-rep
 * convergence curves. --json/--csv export the analytics for plotting.
 *
 * --compare reports percentile drift vs another store of the same
 * campaign under the sweep-diff tolerance rule (defaults: bit-exact) and
 * is the second leg of the golden-store CI gate. Exit code 0 = ok /
 * no drift, 1 = drift, 2 = usage or I/O error.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/serialize.hpp"
#include "common/table.hpp"
#include "core/store_stats.hpp"

using namespace create;

namespace {

const char*
protectionName(int prot)
{
    switch (prot) {
      case 0: return "none";
      case 1: return "dmr";
      case 2: return "tvolt";
      case 3: return "abft";
    }
    return "?";
}

/** Short display handle of a ledger: its label when present. */
std::string
ledgerName(const LedgerTail& t)
{
    if (!t.label.empty())
        return t.label;
    // Fall back to the fingerprint, elided from the middle (the head and
    // the config tail carry the distinguishing bits).
    if (t.fingerprint.size() <= 48)
        return t.fingerprint;
    return t.fingerprint.substr(0, 24) + ".." +
           t.fingerprint.substr(t.fingerprint.size() - 22);
}

Table
groupTable(const StoreStatsResult& stats)
{
    Table table("Episode tails per (platform, task, protection)");
    table.header({"platform", "task", "prot", "ledgers", "eps", "success",
                  "J p50", "J p95", "J p99", "steps p50", "steps p95",
                  "steps p99"});
    for (const GroupTail& g : stats.groups)
        table.row({g.platform, std::to_string(g.taskId),
                   protectionName(g.protection), std::to_string(g.ledgers),
                   std::to_string(g.episodes), Table::pct(g.successRate),
                   Table::num(g.energyJ.p50), Table::num(g.energyJ.p95),
                   Table::num(g.energyJ.p99), Table::num(g.steps.p50, 0),
                   Table::num(g.steps.p95, 0), Table::num(g.steps.p99, 0)});
    return table;
}

void
printAttribution(const StoreStatsResult& stats, int top)
{
    std::vector<const LedgerTail*> with;
    for (const LedgerTail& t : stats.ledgers)
        if (t.hasMetrics)
            with.push_back(&t);
    if (with.empty()) {
        std::printf("\n(no fault-attribution counters in this store -- "
                    "written before schema v3 or with CREATE_METRICS=0)\n");
        return;
    }
    // Most fault activity first; the cap keeps a 100-cell campaign's
    // report readable and is reported explicitly, never silently.
    std::stable_sort(with.begin(), with.end(),
                     [](const LedgerTail* a, const LedgerTail* b) {
                         return a->metrics.flipsInjected >
                                b->metrics.flipsInjected;
                     });
    Table table("Per-fingerprint flip attribution (schema v3 metrics)");
    table.header({"ledger", "eps", "gemms", "injected", "detected",
                  "corrected", "escaped", "reexec", "p95 ms"});
    int shown = 0;
    for (const LedgerTail* t : with) {
        if (top > 0 && shown >= top)
            break;
        const EpisodeMetrics& m = t->metrics;
        table.row({ledgerName(*t), std::to_string(t->episodes),
                   std::to_string(m.gemms), std::to_string(m.flipsInjected),
                   std::to_string(m.flipsDetected),
                   std::to_string(m.flipsCorrected),
                   std::to_string(m.flipsEscaped),
                   std::to_string(m.reExecutions),
                   t->hasWall ? Table::num(t->wallMs.p95, 1) : "-"});
        ++shown;
    }
    std::printf("\n");
    table.print();
    if (shown < static_cast<int>(with.size()))
        std::printf("(+%zu more ledgers; raise --top to see them)\n",
                    with.size() - static_cast<std::size_t>(shown));

    // Per-layer rollup across every ledger: where in the model flips
    // land and what happens to them.
    EpisodeMetrics all;
    for (const LedgerTail* t : with)
        all += t->metrics;
    if (!all.layers.empty()) {
        Table layers("Per-layer fault attribution (all ledgers)");
        layers.header({"layer", "gemms", "injected", "detected",
                       "corrected", "escaped", "reexec"});
        for (const auto& [tag, c] : all.layers)
            layers.row({tag, std::to_string(c.gemms),
                        std::to_string(c.injected),
                        std::to_string(c.detected),
                        std::to_string(c.corrected),
                        std::to_string(c.escaped),
                        std::to_string(c.reExecutions)});
        std::printf("\n");
        layers.print();
    }
}

void
printShards(const StoreStatsResult& stats)
{
    // Only coordinator campaigns stamp episodes with a `by` field and
    // write worker| range telemetry; a local campaign's store has no
    // workers to attribute and prints nothing. The table carries the
    // dispatch counters, throughput, and the p95/p50 range-wall-time
    // straggler ratio.
    if (stats.shards.empty())
        return;
    Table table("Per-worker range dispatch (coordinator campaign)");
    table.header({"worker", "episodes", "ledgers", "ranges", "redisp",
                  "eps/s", "rng p50 ms", "rng p95 ms", "straggler"});
    for (const ShardLoad& s : stats.shards) {
        std::vector<std::string> row = {s.owner, std::to_string(s.episodes),
                                        std::to_string(s.ledgers)};
        if (s.hasRanges) {
            row.push_back(std::to_string(s.rangesCompleted) + "/" +
                          std::to_string(s.rangesAssigned));
            row.push_back(std::to_string(s.rangesRedispatched));
            row.push_back(Table::num(s.epsPerSec, 1));
            row.push_back(Table::num(s.rangeP50Ms, 1));
            row.push_back(Table::num(s.rangeP95Ms, 1));
            row.push_back(s.rangeP50Ms > 0.0
                              ? Table::num(s.rangeP95Ms / s.rangeP50Ms, 2)
                              : "-");
        } else {
            // Episodes without telemetry (a store written by an older
            // build): attribution only, no range counters.
            for (int i = 0; i < 6; ++i)
                row.emplace_back("-");
        }
        table.row(row);
    }
    std::printf("\n");
    table.print();
}

void
printCurves(const StoreStatsResult& stats)
{
    Table table("Success-vs-rep convergence");
    table.header({"ledger", "reps", "success"});
    for (const LedgerTail& t : stats.ledgers)
        for (const auto& [reps, rate] : t.convergence)
            table.row({ledgerName(t), std::to_string(reps),
                       Table::pct(rate)});
    std::printf("\n");
    table.print();
}

/** Export the full analytics as JsonRecords (one per ledger + group). */
void
exportJson(const StoreStatsResult& stats, const std::string& path)
{
    std::vector<JsonRecord> records;
    for (const LedgerTail& t : stats.ledgers) {
        JsonRecord rec;
        rec.name = t.fingerprint;
        rec.strings.emplace_back("platform", t.platform);
        rec.strings.emplace_back("label", t.label);
        rec.numbers.emplace_back("task", t.taskId);
        rec.numbers.emplace_back("protection", t.protection);
        rec.numbers.emplace_back("episodes", t.episodes);
        rec.numbers.emplace_back("successRate", t.stats.successRate);
        for (const auto& [key, member] : kPercentileFields) {
            rec.numbers.emplace_back("energyJ." + std::string(key),
                                     t.energyJ.*member);
            rec.numbers.emplace_back("steps." + std::string(key),
                                     t.steps.*member);
            if (t.hasWall)
                rec.numbers.emplace_back("wallMs." + std::string(key),
                                         t.wallMs.*member);
        }
        for (const auto& [reps, rate] : t.convergence)
            rec.numbers.emplace_back("success@" + std::to_string(reps),
                                     rate);
        if (t.hasMetrics) {
            for (const auto& [key, member] : kEpisodeMetricFields)
                rec.numbers.emplace_back(
                    key, static_cast<double>(t.metrics.*member));
            for (const auto& [tag, c] : t.metrics.layers)
                for (const auto& [key, member] : kLayerFaultFields)
                    if (c.*member != 0)
                        rec.numbers.emplace_back(
                            std::string(kLayerFieldPrefix) + tag + "." +
                                key,
                            static_cast<double>(c.*member));
        }
        records.push_back(std::move(rec));
    }
    for (const GroupTail& g : stats.groups) {
        JsonRecord rec;
        rec.name = "group|" + g.platform +
                   "|task=" + std::to_string(g.taskId) +
                   "|prot=" + std::to_string(g.protection);
        rec.numbers.emplace_back("ledgers", g.ledgers);
        rec.numbers.emplace_back("episodes", g.episodes);
        rec.numbers.emplace_back("successRate", g.successRate);
        for (const auto& [key, member] : kPercentileFields) {
            rec.numbers.emplace_back("energyJ." + std::string(key),
                                     g.energyJ.*member);
            rec.numbers.emplace_back("steps." + std::string(key),
                                     g.steps.*member);
        }
        records.push_back(std::move(rec));
    }
    if (!writeJsonRecords(path, records))
        std::fprintf(stderr, "sweep-stats: cannot write %s\n",
                     path.c_str());
}

int
runStats(int argc, char** argv)
{
    Cli cli(argc, argv);
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) == 0) {
            // Only this tool's value-taking flags consume a detached
            // token; an unknown bare flag must not swallow the store path.
            const bool takesValue =
                std::strcmp(argv[i], "--compare") == 0 ||
                std::strcmp(argv[i], "--abs-tol") == 0 ||
                std::strcmp(argv[i], "--rel-tol") == 0 ||
                std::strcmp(argv[i], "--json") == 0 ||
                std::strcmp(argv[i], "--csv") == 0 ||
                std::strcmp(argv[i], "--top") == 0;
            if (takesValue && std::strchr(argv[i], '=') == nullptr) {
                if (i + 1 >= argc ||
                    std::strncmp(argv[i + 1], "--", 2) == 0) {
                    std::fprintf(stderr, "sweep-stats: %s needs a value\n",
                                 argv[i]);
                    return 2;
                }
                ++i; // skip the flag's value
            }
            continue;
        }
        paths.emplace_back(argv[i]);
    }
    if (cli.flag("help") || paths.size() != 1) {
        std::printf(
            "usage: sweep-stats store.json [--compare other.json]\n"
            "       [--abs-tol X] [--rel-tol Y] [--json out.json]\n"
            "       [--csv out.csv] [--curve] [--top N]\n"
            "\nTail analytics over a SweepRunner result store:\n"
            "p50/p95/p99 episode energy and steps per (platform, task,\n"
            "protection), per-fingerprint flip attribution (schema v3\n"
            "stores), and --curve success-vs-rep convergence. --compare\n"
            "reports percentile drift vs another store (a stat passes\n"
            "when |a-b| <= abs-tol + rel-tol*max; defaults 0 = exact).\n"
            "Exit 0 = ok, 1 = drift, 2 = error.\n");
        return cli.flag("help") ? 0 : 2;
    }

    StoreStatsResult stats;
    std::string error;
    if (!computeStoreStats(paths[0], stats, error)) {
        std::fprintf(stderr, "sweep-stats: %s\n", error.c_str());
        return 2;
    }
    if (stats.ledgers.empty()) {
        // Same guard as sweep-diff: an empty (or non-store) file must not
        // let a CI gate pass vacuously.
        std::fprintf(stderr,
                     "sweep-stats: %s contains no store cells; nothing to "
                     "analyze\n",
                     paths[0].c_str());
        return 2;
    }

    Table groups = groupTable(stats);
    groups.print();
    printAttribution(stats,
                     static_cast<int>(cli.integer("top", 10)));
    printShards(stats);
    if (cli.flag("curve"))
        printCurves(stats);

    const std::string jsonPath = cli.str("json", "");
    if (!jsonPath.empty())
        exportJson(stats, jsonPath);
    const std::string csvPath = cli.str("csv", "");
    if (!csvPath.empty())
        groups.writeCsv(csvPath);

    const std::string comparePath = cli.str("compare", "");
    if (comparePath.empty())
        return 0;

    StoreStatsResult other;
    if (!computeStoreStats(comparePath, other, error)) {
        std::fprintf(stderr, "sweep-stats: %s\n", error.c_str());
        return 2;
    }
    StoreDiffOptions tol;
    tol.absTol = cli.real("abs-tol", 0.0);
    tol.relTol = cli.real("rel-tol", 0.0);
    const StatsCompareResult cmp = compareStoreStats(stats, other, tol);
    for (const StatsDriftEntry& e : cmp.entries)
        std::printf("drift      %s\n           %s\n", e.fingerprint.c_str(),
                    e.detail.c_str());
    std::printf("sweep-stats: compared %d ledger%s vs %s, %zu drift%s, "
                "%d only here, %d only there\n",
                cmp.compared, cmp.compared == 1 ? "" : "s",
                comparePath.c_str(), cmp.entries.size(),
                cmp.entries.size() == 1 ? "" : "s", cmp.onlyA, cmp.onlyB);
    return cmp.clean() ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    // Fail closed like sweep-diff: any exception out of the loader or
    // analytics is a one-line diagnostic and exit 2, never an
    // unhandled-exception abort.
    try {
        return runStats(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sweep-stats: %s\n", e.what());
        return 2;
    } catch (...) {
        std::fprintf(stderr, "sweep-stats: unknown error\n");
        return 2;
    }
}
