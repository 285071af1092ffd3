#include "core/manip_system.hpp"

#include "core/platform_episode.hpp"
#include "core/rotation.hpp"

namespace create {

namespace {

/** Episode types + hooks of the manipulation family. */
struct ManipEpisodeTraits
{
    using World = ManipWorld;
    using Task = ManipTask;
    using Action = ManipAction;
    static constexpr int kNumActions = kNumManipActions;
    static constexpr int kStepCap = ManipWorld::kStepCap;

    static std::vector<ManipSubtask> decodePlan(const std::vector<int>& t)
    {
        return platforms::decodeManipPlan(t);
    }
    static std::vector<float> prompt(ManipSubtask st, const ManipObs& obs,
                                     int promptDim)
    {
        return platforms::manipPrompt(st, obs, promptDim);
    }
};

PaperEnergyModel
manipEnergyModel(const std::string& plannerPlatform,
                 const std::string& controllerPlatform)
{
    return PaperEnergyModel(plannerPlatform == "openvla"
                                ? workloads::openVla()
                                : workloads::roboFlamingo(),
                            controllerPlatform == "octo" ? workloads::octo()
                                                         : workloads::rt1(),
                            workloads::entropyPredictor());
}

} // namespace

ManipSystem::ManipSystem(std::string plannerPlatform,
                         std::string controllerPlatform, bool verbose)
    : plannerPlatform_(std::move(plannerPlatform)),
      controllerPlatform_(std::move(controllerPlatform)),
      label_(plannerPlatform_ + "+" + controllerPlatform_),
      verbose_(verbose),
      energy_(manipEnergyModel(plannerPlatform_, controllerPlatform_))
{
    shared_.planner = platforms::manipPlanner(plannerPlatform_, verbose);
    shared_.controller =
        platforms::manipController(controllerPlatform_, verbose);
}

PlannerModel&
ManipSystem::planner(bool rotated)
{
    if (!rotated)
        return *shared_.planner;
    if (!shared_.rotatedPlanner) {
        std::shared_ptr<PlannerModel> r =
            platforms::manipPlanner(plannerPlatform_, /*verbose=*/false);
        applyWeightRotation(*r);
        platforms::calibrateManipPlanner(*r);
        shared_.rotatedPlanner = std::move(r);
    }
    return *shared_.rotatedPlanner;
}

EntropyPredictor&
ManipSystem::predictor()
{
    if (!shared_.predictor)
        shared_.predictor = platforms::manipPredictor(
            controllerPlatform_, *shared_.controller, verbose_);
    return *shared_.predictor;
}

void
ManipSystem::prepare(const CreateConfig& cfg)
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
ManipSystem::runEpisode(int taskId, std::uint64_t seed,
                        const CreateConfig& cfg)
{
    return runDecodedPlanEpisode<ManipEpisodeTraits>(
        taskId, seed, cfg,
        EpisodeSalts{0x111ull, 0x222ull, 0x333ull, 0x444ull},
        planner(cfg.weightRotation), *shared_.controller,
        cfg.voltageScaling ? &predictor() : nullptr);
}

} // namespace create
