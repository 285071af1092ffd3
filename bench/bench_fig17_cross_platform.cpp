/**
 * @file
 * Fig. 17: cross-platform generality, driven by the PlatformRegistry.
 *  (a) Planners: AD+WR applied to every registered platform's planner
 *      stand-in -- planner-side energy savings at iso task quality.
 *  (b) Controllers: AD+VS applied to every platform's controller
 *      stand-in -- controller-side savings.
 *  (c) Navigation resilience: the third platform family (NavWorld drone
 *      missions) at an aggressive operating point, unprotected vs the
 *      full CREATE stack.
 *
 * Platforms are enumerated from core/platform_registry.hpp (no platform
 * list is hard-coded here): `--list-platforms` prints the catalogue and
 * `--platforms a,b,c` restricts the run. The whole figure is one
 * SweepRunner campaign over platform-named cells: the clean deployment
 * of each (platform, task) pair is declared by every section that
 * baselines against it and executed once by the engine's memoization,
 * and the cells fan out across --threads workers (or --connect
 * coordinator workers) / checkpoint with --out/--resume at episode
 * granularity.
 */

#include <set>
#include <vector>

#include "bench_util.hpp"
#include "core/platform_registry.hpp"

using namespace create;

namespace {

constexpr const char* kExtraHelp =
    "  --platforms a,b,c  restrict to a comma-separated platform list\n"
    "  --list-platforms   print the platform registry and exit\n";

void
listPlatforms(const PlatformRegistry& reg)
{
    Table t("Registered embodied platforms");
    t.header({"platform", "family", "planner", "GOps", "controller", "GOps",
              "planner V", "controller V"});
    for (const auto& p : reg.all())
        t.row({p.name, p.envFamily, p.plannerName,
               Table::num(p.plannerGops, 0), p.controllerName,
               Table::num(p.controllerGops, 0),
               Table::num(p.defaultPlannerV, 2),
               Table::num(p.defaultControllerV, 2)});
    t.print();
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    const auto& reg = PlatformRegistry::instance();
    if (cli.flag("list-platforms")) {
        listPlatforms(reg);
        return 0;
    }
    std::vector<const PlatformInfo*> selected;
    try {
        selected = reg.select(cli.str("platforms", ""));
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s (try --list-platforms)\n", e.what());
        return 1;
    }
    const auto opt =
        bench::setupSweep(cli, "Fig. 17 cross-platform generality", 10,
                          kExtraHelp);
    bench::JsonReport json(opt.jsonPath);

    SweepRunner sweep(bench::sweepOptions(opt));
    auto cell = [&](const PlatformInfo* info, int task,
                    const CreateConfig& cfg, const std::string& label) {
        return sweep.add({info->name, task, cfg, opt.reps,
                          EmbodiedSystem::kDefaultSeed0,
                          info->name + "/" + label});
    };
    auto cleanCell = [&](const PlatformInfo* info, int task) {
        return cell(info, task, CreateConfig::clean(), "clean");
    };

    // --- declare the sweep matrix ---------------------------------------
    struct ARow
    {
        const PlatformInfo* info;
        int task;
        std::size_t clean, prot;
    };
    std::vector<ARow> aRows, bRows;
    for (const auto* info : selected) {
        CreateConfig adwr = CreateConfig::atVoltage(info->defaultPlannerV,
                                                    info->defaultControllerV);
        adwr.anomalyDetection = true;
        adwr.weightRotation = true;
        adwr.injectController = false;
        for (const int task : info->plannerTasks)
            aRows.push_back({info, task, cleanCell(info, task),
                             cell(info, task, adwr, "AD+WR")});
    }
    for (const auto* info : selected) {
        CreateConfig advs = CreateConfig::atVoltage(info->defaultControllerV,
                                                    info->defaultControllerV);
        advs.anomalyDetection = true;
        advs.voltageScaling = true;
        advs.policy = EntropyVoltagePolicy::preset('E');
        advs.injectPlanner = false;
        for (const int task : info->controllerTasks)
            bRows.push_back({info, task, cleanCell(info, task),
                             cell(info, task, advs, "AD+VS")});
    }
    struct CRow
    {
        const PlatformInfo* info;
        int task;
        std::size_t clean, unprot, full;
    };
    std::vector<CRow> cRows;
    for (const auto* info : selected) {
        if (info->envFamily != "navigation")
            continue;
        CreateConfig unprot = CreateConfig::atVoltage(info->defaultPlannerV,
                                                      0.80);
        CreateConfig full = CreateConfig::fullCreate(
            info->defaultPlannerV, EntropyVoltagePolicy::preset('E'));
        std::set<int> missions(info->plannerTasks.begin(),
                               info->plannerTasks.end());
        missions.insert(info->controllerTasks.begin(),
                        info->controllerTasks.end());
        for (const int task : missions)
            cRows.push_back({info, task, cleanCell(info, task),
                             cell(info, task, unprot, "unprotected"),
                             cell(info, task, full, "CREATE")});
    }

    sweep.run();

    // Task-name lookup for rendering, off the engine's own prototypes.
    auto taskName = [&](const PlatformInfo* info, int task) -> std::string {
        return sweep.system(info->name).taskName(task);
    };

    // --- (a) planners: AD+WR ------------------------------------------------
    Table a("Fig. 17(a): planner energy savings with AD+WR (iso quality)");
    a.header({"platform", "benchmark task", "baseline success",
              "AD+WR success", "planner energy savings"});
    for (const auto& r : aRows) {
        const auto& base = sweep.stats(r.clean);
        const auto& prot = sweep.stats(r.prot);
        const double save = 1.0 - prot.avgPlannerV2 / base.avgPlannerV2;
        a.row({r.info->name, taskName(r.info, r.task),
               Table::pct(base.successRate), Table::pct(prot.successRate),
               Table::pct(save)});
        json.add("fig17a/" + r.info->name + "/" + taskName(r.info, r.task),
                 {{"baselineSuccess", base.successRate},
                  {"adwrSuccess", prot.successRate},
                  {"plannerEnergySavings", save}});
    }
    a.print();

    // --- (b) controllers: AD+VS ---------------------------------------------
    Table b("Fig. 17(b): controller energy savings with AD+VS (iso "
            "quality)");
    b.header({"platform", "benchmark task", "baseline success",
              "AD+VS success", "controller energy savings"});
    for (const auto& r : bRows) {
        const auto& base = sweep.stats(r.clean);
        const auto& prot = sweep.stats(r.prot);
        const double save =
            1.0 - prot.avgControllerV2 / base.avgControllerV2;
        b.row({r.info->name, taskName(r.info, r.task),
               Table::pct(base.successRate), Table::pct(prot.successRate),
               Table::pct(save)});
        json.add("fig17b/" + r.info->name + "/" + taskName(r.info, r.task),
                 {{"baselineSuccess", base.successRate},
                  {"advsSuccess", prot.successRate},
                  {"controllerEnergySavings", save}});
    }
    b.print();

    // --- (c) navigation family: protection at an aggressive voltage --------
    Table c("Fig. 17(c): navigation missions at aggressive voltage -- "
            "unprotected vs full CREATE (AD+WR+VS)");
    if (!cRows.empty())
        c.header({"platform", "mission", "clean success",
                  "unprotected @ low V", "CREATE @ low V"});
    for (const auto& r : cRows) {
        const auto& clean = sweep.stats(r.clean);
        const auto& bad = sweep.stats(r.unprot);
        const auto& prot = sweep.stats(r.full);
        c.row({r.info->name, taskName(r.info, r.task),
               Table::pct(clean.successRate), Table::pct(bad.successRate),
               Table::pct(prot.successRate)});
        json.add("fig17c/" + r.info->name + "/" + taskName(r.info, r.task),
                 {{"cleanSuccess", clean.successRate},
                  {"unprotectedSuccess", bad.successRate},
                  {"createSuccess", prot.successRate}});
    }
    if (!cRows.empty())
        c.print();

    std::printf("\nShape check vs paper: AD+WR and AD+VS transfer across "
                "platform families and tasks with consistent savings "
                "(paper: 50.7%% planner / 39.3%% controller averages), and "
                "the full stack recovers task success at voltages where "
                "the unprotected stacks collapse.\n");
    json.write();
    return 0;
}
