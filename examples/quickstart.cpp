/**
 * @file
 * Quickstart: build the JARVIS-1 stand-in stack, run one Minecraft task
 * under three deployment points, and print what CREATE buys you.
 *
 *   ./quickstart [--task wooden] [--reps 10] [--threads N]
 *
 * Deployment points compared:
 *   1. nominal voltage (0.90 V), no errors;
 *   2. aggressive undervolting (0.75 V) with no protection;
 *   3. the same 0.75 V point with the full CREATE stack
 *      (anomaly detection + weight rotation + adaptive voltage scaling).
 */

#include <algorithm>
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/create_system.hpp"

using namespace create;

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    const MineTask task = mineTaskByName(cli.str("task", "wooden"));
    const int reps = static_cast<int>(cli.integer("reps", 10));
    const int threads = std::max(
        1, static_cast<int>(
               cli.integer("threads", EmbodiedSystem::defaultEvalThreads())));

    std::printf("CREATE quickstart: task '%s', %d episodes per config, "
                "%d evaluation thread%s\n",
                mineTaskName(task), reps, threads, threads == 1 ? "" : "s");
    std::printf("(first run trains and caches the models; later runs "
                "load from %s)\n\n",
                ModelZoo::assetsDir().c_str());

    CreateSystem sys;
    sys.setEvalThreads(threads);

    const CreateConfig nominal = CreateConfig::clean();
    CreateConfig unprotected = CreateConfig::atVoltage(0.75, 0.75);
    CreateConfig createFull =
        CreateConfig::fullCreate(0.75, EntropyVoltagePolicy::preset('C'));

    Table t("Quickstart: nominal vs 0.75 V unprotected vs 0.75 V + CREATE");
    t.header({"config", "success", "avg steps", "energy (J)",
              "ctrl eff V", "planner eff V"});
    for (const auto& [name, cfg] :
         {std::pair<const char*, const CreateConfig*>{"nominal 0.90 V",
                                                      &nominal},
          {"0.75 V unprotected", &unprotected},
          {"0.75 V + CREATE (AD+WR+VS)", &createFull}}) {
        const TaskStats s = sys.evaluate(task, *cfg, reps);
        t.row({name, Table::pct(s.successRate),
               Table::num(s.avgStepsSuccess, 0), Table::num(s.avgComputeJ, 2),
               Table::num(s.avgControllerEffV, 3),
               Table::num(s.avgPlannerEffV, 3)});
    }
    t.print();
    std::printf("\nCREATE keeps the nominal success rate while cutting "
                "computational energy (Sec. 6.7 reports 40.6%% on average "
                "across tasks).\n");
    return 0;
}
