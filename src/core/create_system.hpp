#pragma once

/**
 * @file
 * MineSystem: the Minecraft (JARVIS-1 stand-in) backend of the
 * platform-generic EmbodiedSystem facade.
 *
 * Historically this class was called CreateSystem and was the only entry
 * point into the CREATE stack; the deployment-configuration struct
 * (CreateConfig) and the episode-repetition engine now live in
 * core/embodied_system.hpp so the manipulation platforms share them. The
 * CreateSystem alias is kept for source compatibility with the original
 * benches/tests.
 */

#include <memory>

#include "core/embodied_system.hpp"
#include "core/shared_models.hpp"

namespace create {

/** The Minecraft / JARVIS-1 stand-in stack. */
class MineSystem : public EmbodiedSystem
{
  public:
    explicit MineSystem(bool verbose = true);

    // --- EmbodiedSystem interface ----------------------------------------
    const char* platformName() const override { return "jarvis-1"; }
    int numTasks() const override { return kNumMineTasks; }
    const char* taskName(int taskId) const override
    {
        return mineTaskName(static_cast<MineTask>(taskId));
    }
    EpisodeResult runEpisode(int taskId, std::uint64_t seed,
                             const CreateConfig& cfg) override;
    const PaperEnergyModel& energyModel() const override { return energy_; }
    void prepare(const CreateConfig& cfg) override;

    // --- typed convenience API (source-compatible with CreateSystem) -----
    using EmbodiedSystem::evaluate;

    /** Run one episode under a configuration. */
    EpisodeResult runEpisode(MineTask task, std::uint64_t seed,
                             const CreateConfig& cfg)
    {
        return runEpisode(static_cast<int>(task), seed, cfg);
    }

    /** Repeat episodes and aggregate (paper: >=100 repetitions). */
    TaskStats evaluate(MineTask task, const CreateConfig& cfg, int reps,
                       std::uint64_t seed0 = kDefaultSeed0)
    {
        return evaluate(static_cast<int>(task), cfg, reps, seed0);
    }

    /** Planner access; builds the rotated variant lazily. */
    PlannerModel& planner(bool rotated);
    ControllerModel& controller() { return *shared_.controller; }
    EntropyPredictor& predictor() { return *shared_.predictor; }
    AgentConfig& agentConfig() { return agentCfg_; }

  private:
    SharedModelSet shared_; //!< read-only once prepare() has run
    PaperEnergyModel energy_;
    AgentConfig agentCfg_;
};

/** Historical name of the Minecraft backend. */
using CreateSystem = MineSystem;

} // namespace create
