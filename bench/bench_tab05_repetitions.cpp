/**
 * @file
 * Table 5: statistical significance of repetitions. Measured success rate
 * vs the number of repeated episodes; convergence by ~100 repetitions
 * justifies the paper's protocol. The checkpoints are declared as
 * separate cells of ONE episode ledger (reps is a prefix length, not an
 * identity), so the engine executes the deepest cell's episodes exactly
 * once and serves every smaller checkpoint as a prefix slice -- and a
 * stored reps=120 campaign satisfies the whole table with --resume
 * without executing a single episode.
 */

#include "bench_util.hpp"

using namespace create;

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    const auto opt =
        bench::setupSweep(cli, "Table 5 success rate vs repetitions", 120);
    const int maxReps = opt.reps;

    // Paper setting: wooden task, BER 1e-7 on the controller. On this
    // substrate the equivalent mild stressor is 1e-3 (see the BER-axis
    // note under README "Substitutions").
    CreateConfig cfg = CreateConfig::uniform(1e-3);
    cfg.injectPlanner = false;

    SweepRunner sweep(bench::sweepOptions(opt));
    const std::vector<int> checkpoints = {10, 20, 40, 60, 80, 100, 120};
    // One cell per checkpoint: all share the ledger of the deepest cell,
    // so everything but the deepest reports as prefix-sliced.
    std::vector<std::pair<int, std::size_t>> rows;
    for (int r : checkpoints)
        if (r <= maxReps)
            rows.emplace_back(
                r, sweep.add({"jarvis-1", static_cast<int>(MineTask::Wooden),
                              cfg, r, EmbodiedSystem::kDefaultSeed0,
                              "tab05@" + std::to_string(r)}));
    // The deepest cell drives execution to the full --reps depth even
    // when it is not itself a checkpoint.
    sweep.add({"jarvis-1", static_cast<int>(MineTask::Wooden), cfg, maxReps,
               EmbodiedSystem::kDefaultSeed0, "tab05"});
    sweep.run();

    Table t("Table 5: measured success rate vs number of repetitions "
            "(wooden, controller BER 1e-3)");
    t.header({"repetitions", "success rate"});
    // Each row is the deterministic fold of the ledger's first N
    // episodes -- identical to the running success rate read off the
    // ordered results.
    for (const auto& [r, h] : rows)
        t.row({std::to_string(r), Table::pct(sweep.stats(h).successRate)});
    t.print();
    std::printf("\nShape check vs paper (Table 5): the running success "
                "rate converges well before ~100 repetitions.\n");
    return 0;
}
