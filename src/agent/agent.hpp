#pragma once

/**
 * @file
 * EmbodiedAgent: the planner/controller pipeline (paper Fig. 1(a), Sec. 2.1).
 *
 * One episode: the planner decomposes the task into subtasks; the
 * controller produces action logits each step and actions are sampled
 * from them. If a subtask exceeds its step budget the planner is
 * re-invoked with the current progress (the paper's 600-step re-planning
 * rule; scaled here to 240 with the world, README "Substitutions" #2).
 * The episode fails when the total step cap is exceeded (paper: 12,000;
 * here 2,400).
 *
 * The planner and controller run under separate ComputeContexts so they
 * can sit at different operating voltages (CREATE applies AD+WR to the
 * planner and AD+VS to the controller). Hooks let CREATE's voltage scaler
 * adjust the controller context every step and let benches record logits.
 */

#include "env/mineworld.hpp"
#include "hw/compute_context.hpp"
#include "models/model_zoo.hpp"

namespace create {

/**
 * Outcome + accounting of one episode. This is the atom of the whole
 * result pipeline: campaigns persist episodes (see EpisodeRecord in
 * agent/metrics.hpp for the priced, serializable form), and every
 * aggregate is a deterministic fold over an ordered run of them.
 */
struct EpisodeResult
{
    bool success = false;
    int steps = 0; //!< controller steps actually executed (failed episodes
                   //!< that exhaust their plan early bill only what ran)
    int plannerInvocations = 0;
    int predictorInvocations = 0; //!< incremented by the VS hook
    int subtasksCompleted = 0;
    double plannerV2Ratio = 1.0;    //!< mean (V/Vnom)^2 over planner compute
    double controllerV2Ratio = 1.0; //!< mean (V/Vnom)^2 over controller compute
    double plannerEffV = 0.9;
    double controllerEffV = 0.9;
    std::uint64_t bitFlips = 0;
    std::uint64_t anomaliesCleared = 0;
};

/** Per-step extension points (voltage scaling, recorders). */
class AgentHooks
{
  public:
    virtual ~AgentHooks() = default;

    /** Called before each controller inference; may retune the context. */
    virtual void beforeController(const MineWorld&, std::uint64_t,
                                  ComputeContext&, EpisodeResult&)
    {
    }

    /** Called with the (possibly corrupted) logits and the chosen action. */
    virtual void afterLogits(const MineWorld&, std::uint64_t,
                             const std::vector<float>&, Action)
    {
    }
};

/** Episode limits. */
struct AgentConfig
{
    int worldSize = 40;
    int subtaskBudget = 240; //!< steps before re-planning (paper: 600)
    int taskCap = 2400;      //!< total steps before failure (paper: 12,000)
};

/** The planner+controller embodied agent on MineWorld. */
class EmbodiedAgent
{
  public:
    EmbodiedAgent(PlannerModel& planner, ControllerModel& controller,
                  AgentConfig cfg = {});

    /**
     * Run one episode. Resets both contexts' energy meters.
     *
     * @param plannerCtx    execution context for planner inferences
     * @param controllerCtx execution context for controller inferences
     * @param hooks         optional per-step hooks (may be nullptr)
     */
    EpisodeResult runEpisode(MineTask task, std::uint64_t seed,
                             ComputeContext& plannerCtx,
                             ComputeContext& controllerCtx,
                             AgentHooks* hooks = nullptr);

    const AgentConfig& config() const { return cfg_; }

  private:
    std::vector<Subtask> invokePlanner(int taskId, int done,
                                       ComputeContext& ctx);

    PlannerModel& planner_;
    ControllerModel& controller_;
    AgentConfig cfg_;
};

} // namespace create
