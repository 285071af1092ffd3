#include "core/plan_system.hpp"

#include <algorithm>
#include <cmath>

#include "core/rotation.hpp"
#include "hw/ldo.hpp"

namespace create {

template <class F>
PlanSystem<F>::PlanSystem(const std::string& planner,
                          const std::string& controller, bool verbose)
    : plannerSpec_(platforms::plannerSpec<F>(planner)),
      controllerSpec_(platforms::controllerSpec<F>(controller)),
      label_(planner + "+" + controller), verbose_(verbose),
      energy_(plannerSpec_.workload(), controllerSpec_.workload(),
              workloads::entropyPredictor())
{
    shared_.planner = platforms::planner<F>(plannerSpec_, verbose);
    shared_.controller = platforms::controller<F>(controllerSpec_, verbose);
}

template <class F>
PlannerModel&
PlanSystem<F>::planner(bool rotated)
{
    if (!rotated)
        return *shared_.planner;
    if (!shared_.rotatedPlanner) {
        std::shared_ptr<PlannerModel> r =
            platforms::planner<F>(plannerSpec_, /*verbose=*/false);
        applyWeightRotation(*r);
        platforms::calibratePlanner<F>(*r);
        shared_.rotatedPlanner = std::move(r);
    }
    return *shared_.rotatedPlanner;
}

template <class F>
EntropyPredictor&
PlanSystem<F>::predictor()
{
    if (!shared_.predictor)
        shared_.predictor = platforms::predictor<F>(
            controllerSpec_, *shared_.controller, verbose_);
    return *shared_.predictor;
}

template <class F>
void
PlanSystem<F>::prepare(const CreateConfig& cfg)
{
    // Build lazy members and freeze every layer the config will touch at
    // its deployment width -- serially, so shared model state is read-only
    // once episodes (possibly on several threads) start.
    warmFreezePlanner(planner(cfg.weightRotation), cfg.bits);
    warmFreezeController(*shared_.controller, cfg.bits);
    if (cfg.voltageScaling)
        warmFreezePredictor(predictor());
}

template <class F>
EpisodeResult
PlanSystem<F>::runEpisode(int taskId, std::uint64_t seed,
                          const CreateConfig& cfg)
{
    PlannerModel& planner = this->planner(cfg.weightRotation);
    ControllerModel& controller = *shared_.controller;
    EntropyPredictor* pred = cfg.voltageScaling ? &predictor() : nullptr;

    EpisodeResult r;
    typename F::World world(static_cast<Task>(taskId), seed);
    ComputeContext plannerCtx(seed ^ F::kEpisodeSalts[0]);
    ComputeContext controllerCtx(seed ^ F::kEpisodeSalts[1]);
    ComputeContext predictorCtx(seed ^ F::kEpisodeSalts[2]);
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
    Rng actionRng(seed ^ F::kEpisodeSalts[3]);

    const auto tokens = planner.inferPlan(taskId, 0, plannerCtx);
    ++r.plannerInvocations;
    const auto plan = platforms::decodePlan<F>(tokens);
    const double maxH = std::log(static_cast<double>(F::kNumActions));
    int steps = 0;
    for (const auto st : plan) {
        world.setActiveSubtask(st);
        while (!world.subtaskComplete() && steps < F::kStepCap) {
            const auto obs = world.observe();
            // vsInterval <= 0 disables the predictor/LDO updates entirely,
            // matching VoltageScaler::beforeController on the Mine path
            // (and avoiding a modulo-by-zero).
            if (pred && cfg.vsInterval > 0 && steps % cfg.vsInterval == 0) {
                const double h = pred->infer(
                    world.renderImage(pred->config().imgRes),
                    platforms::prompt<F>(st, obs, pred->config().promptDim),
                    predictorCtx);
                ++r.predictorInvocations;
                ldo.set(cfg.policy.voltageFor(
                    std::min(1.0, std::max(0.0, h / maxH))));
                controllerCtx.setVoltage(ldo.vout());
            }
            const auto logits = controller.inferLogits(
                static_cast<int>(st), obs.spatial, obs.state, controllerCtx);
            world.step(static_cast<typename F::Action>(
                sampleAction(logits, actionRng)));
            ++steps;
        }
        if (world.subtaskComplete())
            ++r.subtasksCompleted;
        if (steps >= F::kStepCap)
            break;
    }

    r.success = world.taskComplete();
    // Bill the controller steps that actually executed: a failed episode
    // whose decoded plan ran out early does not bill the full kStepCap
    // (the Mine path runs failures to the cap, so every family agrees on
    // "steps = executed steps").
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

template class PlanSystem<platforms::ManipFamily>;
template class PlanSystem<platforms::NavFamily>;

} // namespace create
