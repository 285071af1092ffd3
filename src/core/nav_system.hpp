#pragma once

/**
 * @file
 * NavSystem: the autonomous-navigation backend of the EmbodiedSystem
 * facade -- the third platform family of the cross-platform generality
 * study, structurally different from both the Minecraft and the tabletop
 * manipulation stacks (2.5D occupancy-grid flight with wind and battery
 * disturbances instead of crafting or grasping).
 *
 * Pairs the drone-scale mission planner stand-in ("navllama") with one
 * flight controller stand-in ("pathrt" or "swiftpilot") on NavWorld and
 * runs the same planner-decomposes / controller-executes episode the other
 * backends run, under the same CreateConfig deployment points: AD on both
 * models, WR on the planner, autonomy-adaptive VS on the controller via
 * the platform's entropy predictor.
 *
 * Energy is priced at the platform's paper-scale workloads (NavLLaMA
 * 1,087 GOps, PathRT 34 GOps, SwiftPilot 17 GOps per inference), keeping
 * Joule-level results at drone-flight-computer magnitudes.
 */

#include <memory>
#include <string>

#include "core/embodied_system.hpp"
#include "core/shared_models.hpp"
#include "models/platforms.hpp"

namespace create {

/** A planner+controller navigation platform pairing on NavWorld. */
class NavSystem : public EmbodiedSystem
{
  public:
    /**
     * @param plannerPlatform    "navllama"
     * @param controllerPlatform "pathrt" or "swiftpilot"
     */
    explicit NavSystem(std::string plannerPlatform = "navllama",
                       std::string controllerPlatform = "pathrt",
                       bool verbose = false);

    // --- EmbodiedSystem interface ----------------------------------------
    const char* platformName() const override { return label_.c_str(); }
    int numTasks() const override { return kNumNavTasks; }
    const char* taskName(int taskId) const override
    {
        return navTaskName(static_cast<NavTask>(taskId));
    }
    EpisodeResult runEpisode(int taskId, std::uint64_t seed,
                             const CreateConfig& cfg) override;
    const PaperEnergyModel& energyModel() const override { return energy_; }
    void prepare(const CreateConfig& cfg) override;

    // --- typed convenience API -------------------------------------------
    using EmbodiedSystem::evaluate;

    EpisodeResult runEpisode(NavTask task, std::uint64_t seed,
                             const CreateConfig& cfg)
    {
        return runEpisode(static_cast<int>(task), seed, cfg);
    }

    TaskStats evaluate(NavTask task, const CreateConfig& cfg, int reps,
                       std::uint64_t seed0 = kDefaultSeed0)
    {
        return evaluate(static_cast<int>(task), cfg, reps, seed0);
    }

    /** Planner access; builds the rotated variant lazily. */
    PlannerModel& planner(bool rotated);
    ControllerModel& controller() { return *shared_.controller; }
    /** Entropy predictor; trained/loaded lazily (only VS configs need it). */
    EntropyPredictor& predictor();

    const std::string& plannerPlatform() const { return plannerPlatform_; }
    const std::string& controllerPlatform() const
    {
        return controllerPlatform_;
    }

  private:
    std::string plannerPlatform_;
    std::string controllerPlatform_;
    std::string label_;
    bool verbose_;

    SharedModelSet shared_; //!< read-only once prepare() has run
    PaperEnergyModel energy_;
};

} // namespace create
