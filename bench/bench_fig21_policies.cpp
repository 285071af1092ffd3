/**
 * @file
 * Fig. 21 + the Sec. 6.5 policy search: the entropy-to-voltage mappings.
 * Prints the A-F preset tables and runs a random search over candidate
 * policies (paper: 100 candidates), reporting the Pareto frontier of
 * (success rate, effective voltage). Candidates are generated first and
 * the whole search is declared as one SweepRunner campaign, so a large
 * --candidates run fans out across --threads (or --connect coordinator
 * workers) and resumes with --out at episode granularity.
 */

#include "bench_util.hpp"

using namespace create;

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    const auto opt =
        bench::setupSweep(cli, "Fig. 21 entropy-to-voltage policies", 6,
                          "  --task NAME      Minecraft task (default wooden)\n"
                          "  --candidates N   policy candidates to score "
                          "(default 16)\n");
    const int reps = opt.reps;
    const int candidates = static_cast<int>(cli.integer("candidates", 16));
    const MineTask task = mineTaskByName(cli.str("task", "wooden"));

    Table m("Fig. 21: preset policies A-F (voltage per normalized-entropy "
            "bucket)");
    m.header({"policy", "critical (H<=0.04)", "focused (<=0.12)",
              "routine (<=0.30)", "free (>0.30)"});
    for (const auto& p : EntropyVoltagePolicy::presets()) {
        m.row({p.name(), Table::num(p.voltages()[0], 2),
               Table::num(p.voltages()[1], 2), Table::num(p.voltages()[2], 2),
               Table::num(p.voltages()[3], 2)});
    }
    m.print();

    // Policy search: random candidates + the presets, evaluated with AD on.
    SweepRunner sweep(bench::sweepOptions(opt));
    auto policyCell = [&](const EntropyVoltagePolicy& p,
                          const std::string& label) {
        CreateConfig cfg = CreateConfig::atVoltage(0.90, 0.90);
        cfg.injectPlanner = false;
        cfg.anomalyDetection = true;
        cfg.voltageScaling = true;
        cfg.policy = p;
        return sweep.add({"jarvis-1", static_cast<int>(task), cfg, reps,
                          EmbodiedSystem::kDefaultSeed0, label});
    };
    struct Scored
    {
        std::string name;
        std::size_t h;
    };
    std::vector<Scored> declared;
    for (const auto& p : EntropyVoltagePolicy::presets())
        declared.push_back({"preset " + p.name(), policyCell(p, p.name())});
    Rng rng(0xCADD1);
    for (int i = 0; i < candidates; ++i) {
        const auto p = EntropyVoltagePolicy::random(rng, i);
        declared.push_back({p.name(), policyCell(p, p.name())});
    }

    sweep.run();

    Table s("Sec. 6.5 policy search (candidates + presets, AD on)");
    s.header({"policy", "success", "effective V", "energy (J)"});
    struct Result
    {
        std::string name;
        TaskStats stats;
    };
    std::vector<Result> scored;
    for (const auto& d : declared)
        scored.push_back({d.name, sweep.stats(d.h)});
    for (const auto& sc : scored) {
        s.row({sc.name, Table::pct(sc.stats.successRate),
               Table::num(sc.stats.avgControllerEffV, 3),
               Table::num(sc.stats.avgComputeJ, 2)});
    }
    s.print();

    // Pareto frontier: highest success at each effective-voltage level.
    Table pareto("Pareto frontier (success vs effective voltage)");
    pareto.header({"policy", "success", "effective V"});
    for (const auto& sc : scored) {
        bool dominated = false;
        for (const auto& other : scored) {
            if (other.stats.successRate >= sc.stats.successRate &&
                other.stats.avgControllerEffV <
                    sc.stats.avgControllerEffV - 1e-9 &&
                (other.stats.successRate > sc.stats.successRate ||
                 other.stats.avgControllerEffV <
                     sc.stats.avgControllerEffV)) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            pareto.row({sc.name, Table::pct(sc.stats.successRate),
                        Table::num(sc.stats.avgControllerEffV, 3)});
    }
    pareto.print();
    std::printf("\nShape check vs paper: adaptive policies dominate "
                "constant-voltage operation; a policy near preset C/D "
                "reduces effective voltage ~7-11%% at iso success.\n");
    return 0;
}
