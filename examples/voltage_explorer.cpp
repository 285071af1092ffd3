/**
 * @file
 * Voltage explorer: sweep the operating voltage for a task and print the
 * reliability/efficiency frontier with and without the CREATE stack --
 * the what-if tool for picking a deployment point.
 *
 *   ./voltage_explorer [--task stone] [--reps 8] [--vmin 0.66] [--vmax 0.90]
 *                      [--threads N]
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
    const MineTask task = mineTaskByName(cli.str("task", "stone"));
    const int reps = static_cast<int>(cli.integer("reps", 8));
    const double vmin = cli.real("vmin", 0.66);
    const double vmax = cli.real("vmax", 0.90);
    const int threads = std::max(
        1, static_cast<int>(
               cli.integer("threads", EmbodiedSystem::defaultEvalThreads())));

    std::printf("Voltage exploration on '%s' (%d episodes/point, %d "
                "thread%s)\n",
                mineTaskName(task), reps, threads, threads == 1 ? "" : "s");
    CreateSystem sys;
    sys.setEvalThreads(threads);

    Table t("Reliability/efficiency frontier");
    t.header({"voltage (V)", "BER", "plain success", "plain J",
              "CREATE success", "CREATE J"});
    for (double v = vmax; v >= vmin - 1e-9; v -= 0.03) {
        const auto plain =
            sys.evaluate(task, CreateConfig::atVoltage(v, v), reps);
        const auto created = sys.evaluate(
            task,
            CreateConfig::fullCreate(v, EntropyVoltagePolicy::preset('D')),
            reps);
        t.row({Table::num(v, 2),
               Table::num(TimingErrorModel::berAtVoltage(v), 8),
               Table::pct(plain.successRate),
               Table::num(plain.avgComputeJ, 2),
               Table::pct(created.successRate),
               Table::num(created.avgComputeJ, 2)});
    }
    t.print();
    std::printf("\nPick the lowest voltage where CREATE holds the nominal "
                "success rate; the plain pipeline collapses several steps "
                "earlier.\n");
    return 0;
}
