/**
 * @file
 * Fig. 16: the headline evaluation across eight Minecraft tasks.
 *  (a) reliability at a fixed aggressive 0.75 V operating point;
 *  (b) energy savings at each configuration's minimal reliable voltage
 *      (the paper's 40.6% average computational energy saving).
 *
 * Declared as one SweepRunner campaign: the error-free baseline cell per
 * task is shared between sections (a) and (b) through the engine's
 * memoization, and (b)'s per-task operating-point search candidates are
 * all independent cells, so the whole figure fans out across --threads
 * workers (or --connect coordinator workers) and checkpoints with
 * --out/--resume at episode granularity -- a kill mid-cell resumes from
 * the surviving episode prefix. The fallback cells are a second phase
 * steered by the first phase's results; a --connect worker declares
 * them on the connection its first phase opened.
 */

#include "bench_util.hpp"

using namespace create;

namespace {

const char* kTasks[] = {"wooden", "stone", "charcoal", "chicken",
                        "coal",   "iron",  "wool",     "seed"};

constexpr double kSearchVoltages[] = {0.68, 0.72, 0.75, 0.78};

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    const auto opt =
        bench::setupSweep(cli, "Fig. 16 overall evaluation (8 tasks)", 6);
    const int reps = opt.reps;

    SweepRunner sweep(bench::sweepOptions(opt));

    // --- declare the sweep matrix ---------------------------------------
    struct TaskCells
    {
        const char* name;
        // (a) protection ladder at 0.75 V + clean baseline.
        std::size_t none, ad, adwr, full, clean;
        // (b) AD reference at 0.80 V, the voltage search, the fallback
        // (declared in a second phase only where the search fails).
        std::size_t ad80;
        std::vector<std::size_t> search;
        std::size_t fallback = SIZE_MAX;
    };
    std::vector<TaskCells> taskCells;
    for (const char* name : kTasks) {
        const int task = static_cast<int>(mineTaskByName(name));
        auto cell = [&](const CreateConfig& cfg, const std::string& label) {
            return sweep.add({"jarvis-1", task, cfg, reps,
                              EmbodiedSystem::kDefaultSeed0,
                              std::string(name) + "/" + label});
        };
        TaskCells tc;
        tc.name = name;

        CreateConfig none = CreateConfig::atVoltage(0.75, 0.75);
        CreateConfig ad = none;
        ad.anomalyDetection = true;
        CreateConfig adwr = ad;
        adwr.weightRotation = true;
        CreateConfig full = adwr;
        full.voltageScaling = true;
        full.controllerVoltage = 0.90;
        full.policy = EntropyVoltagePolicy::preset('C');
        tc.none = cell(none, "none@0.75");
        tc.ad = cell(ad, "AD@0.75");
        tc.adwr = cell(adwr, "AD+WR@0.75");
        tc.full = cell(full, "AD+WR+VS@0.75");
        tc.clean = cell(CreateConfig::clean(), "clean");

        CreateConfig ad80 = CreateConfig::atVoltage(0.80, 0.80);
        ad80.anomalyDetection = true;
        tc.ad80 = cell(ad80, "AD@0.80");
        for (double v : kSearchVoltages) {
            CreateConfig fullV = CreateConfig::fullCreate(
                v, EntropyVoltagePolicy::preset('E'));
            tc.search.push_back(cell(fullV, "CREATE@" + Table::num(v, 2)));
        }
        taskCells.push_back(std::move(tc));
    }

    sweep.run();

    // Like the paper, (b)'s operating point is searched per task: the
    // lowest planner voltage (with AD+WR, controller on AD+VS) whose
    // success rate stays within 10 points of the error-free baseline,
    // breaking ties on energy (a too-aggressive point can pass on
    // success yet waste steps).
    struct SearchResult
    {
        bool found = false;
        double v = 0.90;
        TaskStats stats{};
    };
    auto searchBest = [&](const TaskCells& tc) {
        SearchResult r;
        const auto& nominal = sweep.stats(tc.clean);
        for (std::size_t i = 0; i < tc.search.size(); ++i) {
            const auto& s = sweep.stats(tc.search[i]);
            if (s.successRate < nominal.successRate - 0.10)
                continue;
            if (!r.found || s.avgComputeJ < r.stats.avgComputeJ) {
                r.stats = s;
                r.v = kSearchVoltages[i];
                r.found = true;
            }
        }
        return r;
    };

    // Phase 2: a conservative fallback operating point, declared only for
    // the tasks whose voltage search failed.
    for (auto& tc : taskCells) {
        if (searchBest(tc).found)
            continue;
        CreateConfig fallback = CreateConfig::fullCreate(
            0.80, EntropyVoltagePolicy::preset('C'));
        tc.fallback = sweep.add({"jarvis-1",
                                 static_cast<int>(mineTaskByName(tc.name)),
                                 fallback, reps, EmbodiedSystem::kDefaultSeed0,
                                 std::string(tc.name) +
                                     "/CREATE-fallback@0.80"});
    }
    sweep.run();

    // --- render ----------------------------------------------------------

    // (a) Reliability at 0.75 V.
    {
        Table t("Fig. 16(a): success rate / energy at VDD = 0.75 V");
        t.header({"task", "no protection", "AD", "AD+WR", "AD+WR+VS",
                  "AD+WR+VS energy (J)", "error-free energy (J)"});
        for (const auto& tc : taskCells) {
            const auto& s3 = sweep.stats(tc.full);
            const auto& clean = sweep.stats(tc.clean);
            t.row({tc.name, Table::pct(sweep.stats(tc.none).successRate),
                   Table::pct(sweep.stats(tc.ad).successRate),
                   Table::pct(sweep.stats(tc.adwr).successRate),
                   Table::pct(s3.successRate),
                   Table::num(s3.avgComputeJ, 2),
                   Table::num(clean.avgComputeJ, 2)});
        }
        t.print();
    }

    // (b) Energy at the minimal voltage sustaining task quality.
    {
        Table t("Fig. 16(b): computational energy at minimal reliable "
                "voltage (avg J/task)");
        t.header({"task", "nominal J", "AD J", "CREATE minimal V",
                  "CREATE success", "CREATE J", "CREATE savings"});
        double totalNominal = 0.0, totalCreate = 0.0;
        for (const auto& tc : taskCells) {
            const auto& nominal = sweep.stats(tc.clean);
            const auto& sAd = sweep.stats(tc.ad80);
            SearchResult best = searchBest(tc);
            if (!best.found) {
                best.stats = sweep.stats(tc.fallback);
                best.v = 0.80;
            }
            const double savings =
                1.0 - best.stats.avgComputeJ / nominal.avgComputeJ;
            totalNominal += nominal.avgComputeJ;
            totalCreate += best.stats.avgComputeJ;
            t.row({tc.name, Table::num(nominal.avgComputeJ, 2),
                   Table::num(sAd.avgComputeJ, 2), Table::num(best.v, 2),
                   Table::pct(best.stats.successRate),
                   Table::num(best.stats.avgComputeJ, 2),
                   Table::pct(savings)});
        }
        t.row({"AVERAGE", "", "", "", "", Table::num(totalCreate / 8.0, 2),
               Table::pct(1.0 - totalCreate / totalNominal)});
        t.print();
    }
    std::printf("\nShape check vs paper: unprotected 0.75 V operation "
                "collapses; AD recovers most tasks; AD+WR approaches the "
                "error-free baseline; CREATE saves ~40%% computational "
                "energy on average (paper: 40.6%%).\n");
    return 0;
}
