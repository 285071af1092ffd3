#include "core/create_system.hpp"

#include "core/rotation.hpp"

namespace create {

MineSystem::MineSystem(bool verbose)
{
    MineModels models = ModelZoo::mineModels(verbose);
    shared_.planner = std::move(models.planner);
    shared_.controller = std::move(models.controller);
    shared_.predictor = std::move(models.predictor);
}

PlannerModel&
MineSystem::planner(bool rotated)
{
    if (!rotated)
        return *shared_.planner;
    if (!shared_.rotatedPlanner) {
        // Fresh copy of the trained planner, rotated offline, recalibrated.
        std::shared_ptr<PlannerModel> r =
            ModelZoo::minePlanner(/*verbose=*/false);
        applyWeightRotation(*r);
        ModelZoo::calibrateMinePlanner(*r);
        shared_.rotatedPlanner = std::move(r);
    }
    return *shared_.rotatedPlanner;
}

void
MineSystem::prepare(const CreateConfig& cfg)
{
    // Build lazy members and freeze every layer the config will touch at
    // its deployment width -- serially, so shared model state is read-only
    // once episodes (possibly on several threads) start.
    warmFreezePlanner(planner(cfg.weightRotation), cfg.bits);
    warmFreezeController(*shared_.controller, cfg.bits);
    if (cfg.voltageScaling)
        warmFreezePredictor(*shared_.predictor);
}

EpisodeResult
MineSystem::runEpisode(int taskId, std::uint64_t seed,
                       const CreateConfig& cfg)
{
    ComputeContext plannerCtx(seed ^ 0x9A9A1ull);
    ComputeContext controllerCtx(seed ^ 0x7B7B2ull);
    cfg.applyTo(plannerCtx, /*isPlanner=*/true);
    cfg.applyTo(controllerCtx, /*isPlanner=*/false);

    PlannerModel& p = planner(cfg.weightRotation);
    EmbodiedAgent agent(p, *shared_.controller, agentCfg_);

    std::unique_ptr<VoltageScaler> scaler;
    if (cfg.voltageScaling) {
        scaler = std::make_unique<VoltageScaler>(*shared_.predictor,
                                                 cfg.policy, cfg.vsInterval);
        // VS implies voltage-dependent errors on the controller.
        if (cfg.mode != InjectionMode::None && cfg.injectController)
            controllerCtx.setVoltageMode();
    }
    return agent.runEpisode(static_cast<MineTask>(taskId), seed, plannerCtx,
                            controllerCtx, scaler.get());
}

} // namespace create
