#pragma once

/**
 * @file
 * The shared plan-decode episode runner of the cross-platform backends.
 *
 * ManipSystem and NavSystem run the identical episode shape: the planner
 * decodes the whole mission once, then the controller executes each motion
 * subtask step by step, with the per-step CREATE hooks (AD via the
 * contexts, WR via the rotated planner, autonomy-adaptive VS via the
 * entropy predictor driving the LDO). Only the world/observation/action
 * types, the plan decoder, and the predictor prompt differ, so the loop
 * lives here once as a template and a fix to the episode semantics
 * reaches every platform family at the same time. (MineSystem keeps its
 * own loop: the Minecraft agent re-invokes the planner mid-episode.)
 *
 * A Traits type provides:
 *   World / Subtask / Action            episode types
 *   kNumActions, kStepCap               action vocabulary + step budget
 *   decodePlan(tokens)                  plan tokens -> subtask list
 *   prompt(subtask, obs, promptDim)     predictor prompt vector
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/embodied_system.hpp"
#include "hw/ldo.hpp"
#include "models/controller.hpp"
#include "models/entropy_predictor.hpp"
#include "models/model_zoo.hpp"
#include "models/planner.hpp"

namespace create {

/** Per-episode RNG stream salts (distinct per platform family). */
struct EpisodeSalts
{
    std::uint64_t plannerCtx;
    std::uint64_t controllerCtx;
    std::uint64_t predictorCtx;
    std::uint64_t actionRng;
};

template <typename Traits>
EpisodeResult
runDecodedPlanEpisode(int taskId, std::uint64_t seed,
                      const CreateConfig& cfg, const EpisodeSalts& salts,
                      PlannerModel& planner, ControllerModel& controller,
                      EntropyPredictor* pred)
{
    EpisodeResult r;
    typename Traits::World world(static_cast<typename Traits::Task>(taskId),
                                 seed);
    ComputeContext plannerCtx(seed ^ salts.plannerCtx);
    ComputeContext controllerCtx(seed ^ salts.controllerCtx);
    ComputeContext predictorCtx(seed ^ salts.predictorCtx);
    plannerCtx.domain = Domain::Planner;
    controllerCtx.domain = Domain::Controller;
    predictorCtx.domain = Domain::Predictor;
    cfg.applyTo(plannerCtx, /*isPlanner=*/true);
    cfg.applyTo(controllerCtx, /*isPlanner=*/false);

    DigitalLdo ldo;
    if (pred) {
        // VS implies voltage-dependent errors on the controller.
        if (cfg.mode != InjectionMode::None && cfg.injectController)
            controllerCtx.setVoltageMode();
    }
    Rng actionRng(seed ^ salts.actionRng);

    const auto tokens = planner.inferPlan(taskId, 0, plannerCtx);
    ++r.plannerInvocations;
    const auto plan = Traits::decodePlan(tokens);
    const double maxH = std::log(static_cast<double>(Traits::kNumActions));
    int steps = 0;
    for (const auto st : plan) {
        world.setActiveSubtask(st);
        while (!world.subtaskComplete() && steps < Traits::kStepCap) {
            const auto obs = world.observe();
            // vsInterval <= 0 disables the predictor/LDO updates entirely,
            // matching VoltageScaler::beforeController on the Mine path
            // (and avoiding a modulo-by-zero).
            if (pred && cfg.vsInterval > 0 && steps % cfg.vsInterval == 0) {
                const double h = pred->infer(
                    world.renderImage(pred->config().imgRes),
                    Traits::prompt(st, obs, pred->config().promptDim),
                    predictorCtx);
                ++r.predictorInvocations;
                ldo.set(cfg.policy.voltageFor(
                    std::min(1.0, std::max(0.0, h / maxH))));
                controllerCtx.setVoltage(ldo.vout());
            }
            const auto logits = controller.inferLogits(
                static_cast<int>(st), obs.spatial, obs.state, controllerCtx);
            world.step(static_cast<typename Traits::Action>(
                sampleAction(logits, actionRng)));
            ++steps;
        }
        if (world.subtaskComplete())
            ++r.subtasksCompleted;
        if (steps >= Traits::kStepCap)
            break;
    }

    r.success = world.taskComplete();
    // Bill the controller steps that actually executed. A failed episode
    // whose decoded plan exhausted early used to bill the full kStepCap,
    // inflating PaperEnergyModel::controllerJ for unprotected low-voltage
    // cells (the Mine path always runs failures to the cap, so all three
    // families now agree on "steps = executed steps").
    r.steps = steps;
    const auto& pu = plannerCtx.meter.usage(Domain::Planner);
    const auto& cu = controllerCtx.meter.usage(Domain::Controller);
    if (pu.macs > 0.0)
        r.plannerV2Ratio = pu.v2WeightedMacs / pu.macs;
    if (cu.macs > 0.0)
        r.controllerV2Ratio = cu.v2WeightedMacs / cu.macs;
    r.plannerEffV = plannerCtx.meter.effectiveVoltage(Domain::Planner);
    r.controllerEffV =
        controllerCtx.meter.effectiveVoltage(Domain::Controller);
    r.bitFlips = pu.bitFlips + cu.bitFlips;
    r.anomaliesCleared = pu.anomaliesCleared + cu.anomaliesCleared;
    return r;
}

} // namespace create
