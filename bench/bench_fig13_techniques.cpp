/**
 * @file
 * Fig. 13: per-technique evaluation and the ablations.
 *  (a) AD on the planner, (b) AD on the controller, (c) WR on the planner,
 *  (d) VS policies vs constant voltage, (e) AD+WR ablation,
 *  (f) AD+VS ablation (effective-voltage shift).
 *
 * The sweep matrix is declared up front on the SweepRunner campaign
 * engine (cells fan out across --threads workers or --connect
 * coordinator workers, duplicates are memoized, --out/--resume
 * checkpoint long campaigns at episode granularity); the tables render
 * from the cell handles afterwards. CI runs this driver's matrix through
 * a three-worker create-coordinator fleet and sweep-diffs the store
 * against a serial run.
 */

#include "bench_util.hpp"

using namespace create;

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    const auto opt =
        bench::setupSweep(cli, "Fig. 13 CREATE techniques", 12,
                          "  --task NAME  Minecraft task (default wooden)\n");
    const int reps = opt.reps;
    const MineTask task = mineTaskByName(cli.str("task", "wooden"));

    SweepRunner sweep(bench::sweepOptions(opt));
    auto cell = [&](const CreateConfig& cfg, std::string label) {
        return sweep.add({"jarvis-1", static_cast<int>(task), cfg, reps,
                          EmbodiedSystem::kDefaultSeed0, std::move(label)});
    };

    // --- declare the sweep matrix ---------------------------------------

    // (a) AD on planner / (c) WR on planner share the planner-only base.
    struct PlannerRow
    {
        double ber;
        std::size_t base, ad, wr;
    };
    std::vector<PlannerRow> plannerRows;
    for (double ber : {1e-4, 3e-4, 1e-3}) {
        CreateConfig base = CreateConfig::uniform(ber);
        base.injectController = false;
        CreateConfig ad = base;
        ad.anomalyDetection = true;
        CreateConfig wr = base;
        wr.weightRotation = true;
        plannerRows.push_back({ber, cell(base, "a/base@" + bench::berStr(ber)),
                               cell(ad, "a/AD@" + bench::berStr(ber)),
                               cell(wr, "c/WR@" + bench::berStr(ber))});
    }

    // (b) AD on controller.
    struct ControllerRow
    {
        double ber;
        std::size_t base, ad;
    };
    std::vector<ControllerRow> controllerRows;
    for (double ber : {1e-3, 5e-3, 1e-2}) {
        CreateConfig base = CreateConfig::uniform(ber);
        base.injectPlanner = false;
        CreateConfig ad = base;
        ad.anomalyDetection = true;
        controllerRows.push_back({ber,
                                  cell(base, "b/base@" + bench::berStr(ber)),
                                  cell(ad, "b/AD@" + bench::berStr(ber))});
    }

    // (d) VS policies vs constant voltage (controller-only, no AD).
    struct PolicyRow
    {
        std::string name;
        std::size_t h;
    };
    std::vector<PolicyRow> constRows, policyRows;
    for (double v : {0.90, 0.80, 0.75, 0.72, 0.70, 0.67}) {
        CreateConfig cfg = CreateConfig::atVoltage(0.90, v);
        cfg.injectPlanner = false;
        constRows.push_back(
            {"const " + Table::num(v, 2), cell(cfg, "d/const" + Table::num(v, 2))});
    }
    for (char p : {'A', 'B', 'C', 'D', 'E', 'F'}) {
        CreateConfig cfg = CreateConfig::atVoltage(0.90, 0.90);
        cfg.injectPlanner = false;
        cfg.voltageScaling = true;
        cfg.policy = EntropyVoltagePolicy::preset(p);
        policyRows.push_back(
            {std::string("policy ") + p, cell(cfg, std::string("d/policy") + p)});
    }

    // (e) Ablation on the planner: none / AD / WR / AD+WR.
    struct AblationRow
    {
        const char* name;
        std::vector<std::size_t> h;
    };
    const struct
    {
        const char* name;
        bool ad, wr;
    } ablations[] = {{"no protection", false, false},
                     {"AD only", true, false},
                     {"WR only", false, true},
                     {"AD + WR", true, true}};
    std::vector<AblationRow> ablationRows;
    for (const auto& r : ablations) {
        AblationRow row{r.name, {}};
        for (double ber : {1e-3, 3e-3, 1e-2}) {
            CreateConfig cfg = CreateConfig::uniform(ber);
            cfg.injectController = false;
            cfg.anomalyDetection = r.ad;
            cfg.weightRotation = r.wr;
            row.h.push_back(cell(cfg, std::string("e/") + r.name + "@" +
                                          bench::berStr(ber)));
        }
        ablationRows.push_back(std::move(row));
    }

    // (f) Ablation on the controller: VS with and without AD.
    const std::vector<double> th = {0.04, 0.12, 0.30};
    std::vector<EntropyVoltagePolicy> policies = {
        EntropyVoltagePolicy::preset('E'),
        EntropyVoltagePolicy::preset('F'),
        // AD unlocks these deeper floors (Sec. 6.6: the AD x VS
        // synergy shifts the frontier left).
        EntropyVoltagePolicy(th, {0.76, 0.70, 0.65, 0.62}, "G"),
        EntropyVoltagePolicy(th, {0.72, 0.67, 0.62, 0.60}, "H"),
    };
    struct VsRow
    {
        std::string name;
        std::size_t vs, vsAd;
    };
    std::vector<VsRow> vsRows;
    for (const auto& p : policies) {
        CreateConfig vs = CreateConfig::atVoltage(0.90, 0.90);
        vs.injectPlanner = false;
        vs.voltageScaling = true;
        vs.policy = p;
        CreateConfig vsAd = vs;
        vsAd.anomalyDetection = true;
        vsRows.push_back({p.name(), cell(vs, "f/VS-" + p.name()),
                          cell(vsAd, "f/AD+VS-" + p.name())});
    }

    sweep.run();

    // --- render ----------------------------------------------------------
    {
        Table t("Fig. 13(a): anomaly detection on the planner");
        t.header({"BER", "no AD success", "no AD steps", "AD success",
                  "AD steps"});
        for (const auto& r : plannerRows) {
            const auto& s0 = sweep.stats(r.base);
            const auto& s1 = sweep.stats(r.ad);
            t.row({bench::berStr(r.ber), Table::pct(s0.successRate),
                   Table::num(s0.avgStepsSuccess, 0),
                   Table::pct(s1.successRate),
                   Table::num(s1.avgStepsSuccess, 0)});
        }
        t.print();
    }
    {
        Table t("Fig. 13(b): anomaly detection on the controller");
        t.header({"BER", "no AD success", "no AD steps", "AD success",
                  "AD steps"});
        for (const auto& r : controllerRows) {
            const auto& s0 = sweep.stats(r.base);
            const auto& s1 = sweep.stats(r.ad);
            t.row({bench::berStr(r.ber), Table::pct(s0.successRate),
                   Table::num(s0.avgStepsSuccess, 0),
                   Table::pct(s1.successRate),
                   Table::num(s1.avgStepsSuccess, 0)});
        }
        t.print();
    }
    {
        Table t("Fig. 13(c): weight rotation on the planner");
        t.header({"BER", "no WR success", "no WR steps", "WR success",
                  "WR steps"});
        for (const auto& r : plannerRows) {
            const auto& s0 = sweep.stats(r.base);
            const auto& s1 = sweep.stats(r.wr);
            t.row({bench::berStr(r.ber), Table::pct(s0.successRate),
                   Table::num(s0.avgStepsSuccess, 0),
                   Table::pct(s1.successRate),
                   Table::num(s1.avgStepsSuccess, 0)});
        }
        t.print();
    }
    {
        Table t("Fig. 13(d): adaptive voltage scaling vs constant voltage "
                "(controller)");
        t.header({"policy", "success", "effective V", "energy (J)"});
        for (const auto& rows : {&constRows, &policyRows})
            for (const auto& r : *rows) {
                const auto& s = sweep.stats(r.h);
                t.row({r.name, Table::pct(s.successRate),
                       Table::num(s.avgControllerEffV, 3),
                       Table::num(s.avgComputeJ, 2)});
            }
        t.print();
    }
    {
        Table t("Fig. 13(e): planner ablation (AD x WR)");
        t.header({"config", "success @1e-3", "success @3e-3",
                  "success @1e-2"});
        for (const auto& r : ablationRows) {
            std::vector<std::string> cells = {r.name};
            for (const std::size_t h : r.h)
                cells.push_back(Table::pct(sweep.stats(h).successRate));
            t.row(cells);
        }
        t.print();
    }
    {
        Table t("Fig. 13(f): controller ablation (AD x VS), policies E-F "
                "plus deeper-undervolting policies G/H");
        t.header({"policy", "no AD success", "no AD eff V", "AD success",
                  "AD eff V"});
        for (const auto& r : vsRows) {
            const auto& s0 = sweep.stats(r.vs);
            const auto& s1 = sweep.stats(r.vsAd);
            t.row({r.name, Table::pct(s0.successRate),
                   Table::num(s0.avgControllerEffV, 3),
                   Table::pct(s1.successRate),
                   Table::num(s1.avgControllerEffV, 3)});
        }
        t.print();
    }
    std::printf("\nShape check vs paper: AD recovers most of the loss, WR "
                "extends the planner further, AD+WR is synergistic, and "
                "with AD the aggressive policies keep their success rate "
                "at a lower effective voltage.\n");
    return 0;
}
