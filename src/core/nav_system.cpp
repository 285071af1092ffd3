#include "core/nav_system.hpp"

#include "core/platform_episode.hpp"
#include "core/rotation.hpp"

namespace create {

namespace {

/** Episode types + hooks of the navigation family. */
struct NavEpisodeTraits
{
    using World = NavWorld;
    using Task = NavTask;
    using Action = NavAction;
    static constexpr int kNumActions = kNumNavActions;
    static constexpr int kStepCap = NavWorld::kStepCap;

    static std::vector<NavSubtask> decodePlan(const std::vector<int>& t)
    {
        return platforms::decodeNavPlan(t);
    }
    static std::vector<float> prompt(NavSubtask st, const NavObs& obs,
                                     int promptDim)
    {
        return platforms::navPrompt(st, obs, promptDim);
    }
};

PaperEnergyModel
navEnergyModel(const std::string& controllerPlatform)
{
    return PaperEnergyModel(workloads::navLlama(),
                            controllerPlatform == "pathrt"
                                ? workloads::pathRt()
                                : workloads::swiftPilot(),
                            workloads::entropyPredictor());
}

} // namespace

NavSystem::NavSystem(std::string plannerPlatform,
                     std::string controllerPlatform, bool verbose)
    : plannerPlatform_(std::move(plannerPlatform)),
      controllerPlatform_(std::move(controllerPlatform)),
      label_(plannerPlatform_ + "+" + controllerPlatform_),
      verbose_(verbose),
      energy_(navEnergyModel(controllerPlatform_))
{
    shared_.planner = platforms::navPlanner(plannerPlatform_, verbose);
    shared_.controller =
        platforms::navController(controllerPlatform_, verbose);
}

PlannerModel&
NavSystem::planner(bool rotated)
{
    if (!rotated)
        return *shared_.planner;
    if (!shared_.rotatedPlanner) {
        std::shared_ptr<PlannerModel> r =
            platforms::navPlanner(plannerPlatform_, /*verbose=*/false);
        applyWeightRotation(*r);
        platforms::calibrateNavPlanner(*r);
        shared_.rotatedPlanner = std::move(r);
    }
    return *shared_.rotatedPlanner;
}

EntropyPredictor&
NavSystem::predictor()
{
    if (!shared_.predictor)
        shared_.predictor = platforms::navPredictor(
            controllerPlatform_, *shared_.controller, verbose_);
    return *shared_.predictor;
}

void
NavSystem::prepare(const CreateConfig& cfg)
{
    // Build lazy members and freeze every layer the config will touch at
    // its deployment width -- serially, so shared model state is read-only
    // once episodes (possibly on several threads) start.
    warmFreezePlanner(planner(cfg.weightRotation), cfg.bits);
    warmFreezeController(*shared_.controller, cfg.bits);
    if (cfg.voltageScaling)
        warmFreezePredictor(predictor());
}

EpisodeResult
NavSystem::runEpisode(int taskId, std::uint64_t seed,
                      const CreateConfig& cfg)
{
    return runDecodedPlanEpisode<NavEpisodeTraits>(
        taskId, seed, cfg,
        EpisodeSalts{0x555ull, 0x666ull, 0x777ull, 0x888ull},
        planner(cfg.weightRotation), *shared_.controller,
        cfg.voltageScaling ? &predictor() : nullptr);
}

} // namespace create
