#pragma once

/**
 * @file
 * ManipSystem: the cross-platform manipulation backend of the
 * EmbodiedSystem facade (paper Fig. 17, Table 10).
 *
 * Pairs one manipulation planner stand-in ("openvla" or "roboflamingo")
 * with one controller stand-in ("octo" or "rt1") on ManipWorld and runs
 * the same planner-decomposes / controller-executes episode the Minecraft
 * stack runs, under the same CreateConfig deployment points: AD on both
 * models, WR on the planner, autonomy-adaptive VS on the controller via
 * the platform's entropy predictor. This replaces the hand-rolled episode
 * loops that used to live in bench_fig17_cross_platform.cpp and
 * examples/cross_platform_manip.cpp.
 *
 * Energy is priced at the platform's paper-scale workloads (OpenVLA
 * 4,595 GOps, RoboFlamingo 2,411 GOps, Octo 76 GOps, RT-1 78 GOps per
 * inference), keeping Joule-level results at Fig. 17 magnitudes.
 */

#include <memory>
#include <string>

#include "core/embodied_system.hpp"
#include "core/shared_models.hpp"
#include "models/platforms.hpp"

namespace create {

/** A planner+controller manipulation platform pairing on ManipWorld. */
class ManipSystem : public EmbodiedSystem
{
  public:
    /**
     * @param plannerPlatform    "openvla" or "roboflamingo"
     * @param controllerPlatform "octo" or "rt1"
     */
    explicit ManipSystem(std::string plannerPlatform = "openvla",
                         std::string controllerPlatform = "octo",
                         bool verbose = false);

    // --- EmbodiedSystem interface ----------------------------------------
    const char* platformName() const override { return label_.c_str(); }
    int numTasks() const override { return kNumManipTasks; }
    const char* taskName(int taskId) const override
    {
        return manipTaskName(static_cast<ManipTask>(taskId));
    }
    EpisodeResult runEpisode(int taskId, std::uint64_t seed,
                             const CreateConfig& cfg) override;
    const PaperEnergyModel& energyModel() const override { return energy_; }
    void prepare(const CreateConfig& cfg) override;

    // --- typed convenience API -------------------------------------------
    using EmbodiedSystem::evaluate;

    EpisodeResult runEpisode(ManipTask task, std::uint64_t seed,
                             const CreateConfig& cfg)
    {
        return runEpisode(static_cast<int>(task), seed, cfg);
    }

    TaskStats evaluate(ManipTask task, const CreateConfig& cfg, int reps,
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
