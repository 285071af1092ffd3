/**
 * @file
 * Cross-platform demo: run any registered embodied platform (Minecraft,
 * manipulation, or navigation) under a clean deployment vs AD+WR at an
 * aggressive planner voltage -- all through the shared EmbodiedSystem
 * facade, with platforms enumerated from the PlatformRegistry.
 *
 *   ./cross_platform_manip [--platforms openvla+octo,navllama+pathrt]
 *                          [--task wine] [--voltage 0.72] [--reps 10]
 *                          [--threads N] [--list-platforms] [--help]
 *
 * Without --task each platform runs its first registry benchmark task;
 * with --task the named task is used on every selected platform that has
 * it (others fall back to their first benchmark task).
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/platform_registry.hpp"

using namespace create;

namespace {

int
resolveTask(const EmbodiedSystem& sys, const PlatformInfo& info,
            const std::string& name)
{
    if (!name.empty())
        for (int t = 0; t < sys.numTasks(); ++t)
            if (name == sys.taskName(t))
                return t;
    return info.plannerTasks.empty() ? 0 : info.plannerTasks.front();
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    const auto& reg = PlatformRegistry::instance();
    if (cli.flag("help")) {
        std::printf(
            "Cross-platform demo: clean vs AD+WR on registered platforms.\n\n"
            "Options:\n"
            "  --platforms a,b,c  comma-separated platform list (default: "
            "openvla+octo)\n"
            "  --list-platforms   print the registered platforms and exit\n"
            "  --task NAME        benchmark task name (default: each "
            "platform's first)\n"
            "  --voltage V        aggressive planner voltage (default: each "
            "platform's registry default)\n"
            "  --reps N           episodes per configuration (default 10)\n"
            "  --threads N        threads running episodes (default: all "
            "hardware threads, here %d)\n",
            EmbodiedSystem::defaultEvalThreads());
        return 0;
    }
    if (cli.flag("list-platforms")) {
        std::printf("Registered platforms:\n");
        for (const auto& p : reg.all())
            std::printf("  %-22s (%s: %s + %s)\n", p.name.c_str(),
                        p.envFamily.c_str(), p.plannerName.c_str(),
                        p.controllerName.c_str());
        return 0;
    }

    const std::string taskName = cli.str("task", "");
    const int reps = static_cast<int>(cli.integer("reps", 10));
    const int threads = std::max(
        1, static_cast<int>(
               cli.integer("threads", EmbodiedSystem::defaultEvalThreads())));

    std::vector<const PlatformInfo*> selected;
    try {
        selected = reg.select(cli.str("platforms", "openvla+octo"));
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s (try --list-platforms)\n", e.what());
        return 1;
    }

    for (const auto* info : selected) {
        const double voltage = cli.real("voltage", info->defaultPlannerV);
        auto sys = info->factory(/*verbose=*/false);
        sys->setEvalThreads(threads);
        const int task = resolveTask(*sys, *info, taskName);

        std::printf("\n=== %s (%s) -- task '%s', AD+WR @ %.2f V ===\n",
                    info->name.c_str(), info->envFamily.c_str(),
                    sys->taskName(task), voltage);

        CreateConfig protFlags =
            CreateConfig::atVoltage(voltage, info->defaultControllerV);
        protFlags.anomalyDetection = true;
        protFlags.weightRotation = true;
        protFlags.injectController = false;

        // One verbose episode through the shared runner.
        const EpisodeResult r = sys->runEpisode(task, 777, protFlags);
        std::printf("Single episode: task %s after %d steps, %d subtasks "
                    "done; %llu planner bit flips injected, %llu anomalies "
                    "cleared by AD.\n",
                    r.success ? "COMPLETE" : "failed", r.steps,
                    r.subtasksCompleted,
                    static_cast<unsigned long long>(r.bitFlips),
                    static_cast<unsigned long long>(r.anomaliesCleared));

        // Aggregate comparison via the shared evaluation engine.
        const TaskStats clean =
            sys->evaluate(task, CreateConfig::clean(), reps);
        const TaskStats prot = sys->evaluate(task, protFlags, reps);
        Table t("Clean vs AD+WR at " + Table::num(voltage, 2) + " V (" +
                std::to_string(reps) + " episodes)");
        t.header({"config", "success", "avg steps", "planner eff V",
                  "energy (J)"});
        t.row({"clean " + Table::num(info->defaultControllerV, 2) + " V",
               Table::pct(clean.successRate),
               Table::num(clean.avgStepsSuccess, 0),
               Table::num(clean.avgPlannerEffV, 3),
               Table::num(clean.avgComputeJ, 2)});
        t.row({"AD+WR undervolted", Table::pct(prot.successRate),
               Table::num(prot.avgStepsSuccess, 0),
               Table::num(prot.avgPlannerEffV, 3),
               Table::num(prot.avgComputeJ, 2)});
        t.print();
        std::printf("Planner-side energy savings at iso quality: %.1f%%\n",
                    100.0 * (1.0 - prot.avgPlannerV2 / clean.avgPlannerV2));
    }
    return 0;
}
