#include "models/platforms.hpp"

#include <cstdio>
#include <stdexcept>

#include "env/manip_expert.hpp"
#include "env/nav_expert.hpp"
#include "tensor/ops.hpp"

namespace create::platforms {

// --- what differs between the families ----------------------------------

ManipAction
ManipFamily::expert(const ManipWorld& w, Rng& rng)
{
    return ManipExpert::act(w, rng);
}

int
ManipFamily::oversample(ManipSubtask, ManipAction a)
{
    const bool critical =
        a == ManipAction::Grasp || a == ManipAction::Release ||
        a == ManipAction::Press || a == ManipAction::Pull;
    return critical ? 10 : 0;
}

NavAction
NavFamily::expert(const NavWorld& w, Rng&)
{
    return NavExpert::act(w);
}

int
NavFamily::oversample(NavSubtask st, NavAction a)
{
    // Critical-chain and altitude actions are rare in the trajectories but
    // decide the missions.
    const bool critical =
        a == NavAction::Hover || a == NavAction::Ascend ||
        a == NavAction::Descend ||
        (st == NavSubtask::ScanLine && a == NavAction::MoveE);
    return critical ? 8 : 0;
}

// --- the family code, written once --------------------------------------

namespace {

/**
 * Drive `world` through `task`'s gold plan under the family's rollout
 * caps, stepping it with the action act(subtask, observation) returns.
 */
template <class F, class Act>
void
rollout(typename F::World& world, typename F::Task task, Act act)
{
    int steps = 0;
    for (const auto st : F::goldPlan(task)) {
        world.setActiveSubtask(st);
        for (int n = 0; !world.subtaskComplete() &&
                        n < F::kRolloutSubtaskCap && steps < F::kRolloutCap;
             ++n, ++steps)
            world.step(act(st, world.observe()));
    }
}

template <class F>
PredictorConfig
predictorConfig()
{
    PredictorConfig cfg;
    cfg.imgRes = 24;
    cfg.promptDim = F::kNumSubtasks + F::Obs::spatialDim();
    return cfg;
}

/** Expert demonstrations, rare decisive actions oversampled. */
template <class F>
std::vector<BcSample>
bcDataset(int seedsPerTask, std::uint64_t seed)
{
    std::vector<BcSample> data;
    Rng rng(seed);
    for (int t = 0; t < F::kNumTasks; ++t) {
        const auto task = static_cast<typename F::Task>(t);
        for (int s = 0; s < seedsPerTask; ++s) {
            typename F::World world(
                task, seed * F::kSeeds.bcWorldScale +
                          static_cast<std::uint64_t>(t) *
                              F::kSeeds.bcTaskStride +
                          static_cast<std::uint64_t>(s));
            rollout<F>(world, task, [&](auto st, const auto& obs) {
                const auto a = F::expert(world, rng);
                const BcSample sample{static_cast<int>(st), obs.spatial,
                                      obs.state, static_cast<int>(a)};
                data.insert(data.end(),
                            static_cast<std::size_t>(1 + F::oversample(st, a)),
                            sample);
                return a;
            });
        }
    }
    return data;
}

template <class F>
void
calibrateController(ControllerModel& m)
{
    ComputeContext ctx(F::kSeeds.controllerCalib);
    ctx.calibrating = true;
    Rng rng(F::kSeeds.controllerCalib);
    for (int t = 0; t < F::kNumTasks; t += 3) {
        const auto task = static_cast<typename F::Task>(t);
        typename F::World world(task, F::kSeeds.controllerCalibWorld +
                                          static_cast<std::uint64_t>(t));
        rollout<F>(world, task, [&](auto st, const auto& obs) {
            m.inferLogits(static_cast<int>(st), obs.spatial, obs.state, ctx);
            return F::expert(world, rng);
        });
    }
}

} // namespace

template <class F>
const PlannerSpec&
plannerSpec(const std::string& name)
{
    for (const PlannerSpec& s : F::kPlanners)
        if (name == s.name)
            return s;
    throw std::invalid_argument("unknown planner platform: " + name);
}

template <class F>
const ControllerSpec&
controllerSpec(const std::string& name)
{
    for (const ControllerSpec& s : F::kControllers)
        if (name == s.name)
            return s;
    throw std::invalid_argument("unknown controller platform: " + name);
}

template <class F>
std::vector<typename F::Subtask>
decodePlan(const std::vector<int>& tokens)
{
    std::vector<typename F::Subtask> plan;
    for (int t : tokens)
        if (t >= 0 && t < F::kNumSubtasks)
            plan.push_back(static_cast<typename F::Subtask>(t));
    return plan;
}

template <class F>
std::vector<float>
prompt(typename F::Subtask st, const typename F::Obs& obs, int promptDim)
{
    std::vector<float> p(static_cast<std::size_t>(promptDim), 0.0f);
    p[static_cast<std::size_t>(st)] = 1.0f;
    std::size_t j = static_cast<std::size_t>(F::kNumSubtasks);
    for (std::size_t i = 0; i < obs.spatial.size() && j < p.size(); ++i)
        p[j++] = obs.spatial[i];
    return p;
}

template <class F>
void
calibratePlanner(PlannerModel& m)
{
    ComputeContext ctx(F::kSeeds.plannerCalib);
    ctx.calibrating = true;
    for (int t = 0; t < F::kNumTasks; ++t) {
        const int planLen = static_cast<int>(
            F::goldPlan(static_cast<typename F::Task>(t)).size());
        for (int done = 0; done <= planLen; ++done)
            m.inferLogits(t, done, ctx);
    }
}

template <class F>
std::unique_ptr<PlannerModel>
planner(const PlannerSpec& spec, bool verbose)
{
    PlannerConfig cfg;
    cfg.name = spec.name;
    cfg.layers = spec.layers;
    cfg.outlierScale = spec.outlierScale;
    cfg.numTasks = F::kNumTasks;
    cfg.maxDone = F::kPlanLen;
    cfg.maxPlanLen = F::kPlanLen;
    cfg.planVocab = F::kNumSubtasks + 1; // END = kNumSubtasks
    Rng rng(spec.initSeed);
    auto m = std::make_unique<PlannerModel>(cfg, rng);
    ModelZoo::loadOrTrain(*m, std::string(spec.name) + "_planner_v2.bin", [&] {
        if (verbose)
            std::fprintf(stderr, "[zoo] training %s planner stand-in...\n",
                         spec.name);
        std::vector<std::pair<int, int>> inputs;
        std::vector<std::vector<int>> targets;
        for (int t = 0; t < F::kNumTasks; ++t) {
            const auto plan = F::goldPlan(static_cast<typename F::Task>(t));
            for (std::size_t done = 0; done <= plan.size(); ++done) {
                std::vector<int> tgt;
                for (std::size_t i = done; i < plan.size(); ++i)
                    tgt.push_back(static_cast<int>(plan[i]));
                tgt.resize(static_cast<std::size_t>(F::kPlanLen),
                           F::kNumSubtasks);
                inputs.push_back({t, static_cast<int>(done)});
                targets.push_back(std::move(tgt));
            }
        }
        ModelZoo::trainPlannerOnCorpus(*m, inputs, targets, 150, 2.5e-3,
                                       verbose);
    });
    calibratePlanner<F>(*m);
    return m;
}

template <class F>
std::unique_ptr<ControllerModel>
controller(const ControllerSpec& spec, bool verbose)
{
    ControllerConfig cfg;
    cfg.name = spec.name;
    cfg.layers = spec.layers;
    cfg.numSubtasks = F::kNumSubtasks;
    cfg.spatialDim = F::Obs::spatialDim();
    cfg.stateDim = F::Obs::stateDim();
    cfg.numActions = F::kNumActions;
    Rng rng(spec.initSeed);
    auto m = std::make_unique<ControllerModel>(cfg, rng);
    ModelZoo::loadOrTrain(
        *m, std::string(spec.name) + "_controller_v2.bin", [&] {
            if (verbose)
                std::fprintf(stderr, "[zoo] training %s controller stand-in "
                                     "(behavior cloning)...\n",
                             spec.name);
            auto data = bcDataset<F>(6, spec.bcSeed);
            if (verbose)
                std::fprintf(stderr, "[zoo] BC dataset: %zu samples\n",
                             data.size());
            ModelZoo::trainControllerBc(*m, std::move(data), 3, 1.5e-3,
                                        verbose);
        });
    calibrateController<F>(*m);
    return m;
}

template <class F>
std::unique_ptr<EntropyPredictor>
predictor(const ControllerSpec& spec, ControllerModel& controller,
          bool verbose)
{
    const auto pcfg = predictorConfig<F>();
    Rng rng(spec.predictorSeed);
    auto p = std::make_unique<EntropyPredictor>(pcfg, rng);
    const RolloutSeeds& seeds = F::kSeeds;
    ModelZoo::loadOrTrain(
        *p, std::string(spec.name) + "_predictor_v2.bin", [&] {
            if (verbose)
                std::fprintf(stderr,
                             "[zoo] training %s entropy predictor...\n",
                             spec.name);
            // Record clean-execution entropy frames with this controller.
            std::vector<ModelZoo::EntropyFrame> frames;
            Rng sampler(seeds.frames);
            ComputeContext ctx(seeds.frames);
            ctx.domain = Domain::Controller;
            for (int t = 0; t < F::kNumTasks; ++t) {
                const auto task = static_cast<typename F::Task>(t);
                for (int s = 0; s < 4; ++s) {
                    typename F::World world(
                        task, seeds.framesWorld +
                                  static_cast<std::uint64_t>(t) *
                                      seeds.framesTaskStride +
                                  static_cast<std::uint64_t>(s));
                    rollout<F>(world, task, [&](auto st, const auto& obs) {
                        const auto logits = controller.inferLogits(
                            static_cast<int>(st), obs.spatial, obs.state,
                            ctx);
                        ModelZoo::EntropyFrame f;
                        f.image = world.renderImage(pcfg.imgRes);
                        f.prompt = prompt<F>(st, obs, pcfg.promptDim);
                        f.entropy = static_cast<float>(
                            ops::entropy(ops::softmax(logits)));
                        frames.push_back(std::move(f));
                        return static_cast<typename F::Action>(
                            sampleAction(logits, sampler));
                    });
                }
            }
            if (verbose)
                std::fprintf(stderr, "[zoo] predictor dataset: %zu frames\n",
                             frames.size());
            ModelZoo::trainPredictor(*p, frames, 5, 8e-4, verbose);
        });
    // Calibrate on one rollout.
    ComputeContext pctx(seeds.predictorCalib);
    pctx.calibrating = true;
    ComputeContext cctx(seeds.predictorCalib + 1);
    Rng sampler(seeds.predictorCalib + 2);
    const auto task = static_cast<typename F::Task>(seeds.predictorCalibTask);
    typename F::World world(task, seeds.predictorCalibWorld);
    rollout<F>(world, task, [&](auto st, const auto& obs) {
        p->infer(world.renderImage(pcfg.imgRes),
                 prompt<F>(st, obs, pcfg.promptDim), pctx);
        const auto logits = controller.inferLogits(
            static_cast<int>(st), obs.spatial, obs.state, cctx);
        return static_cast<typename F::Action>(sampleAction(logits, sampler));
    });
    return p;
}

#define CREATE_PLAN_FAMILY(F)                                                 \
    template const PlannerSpec& plannerSpec<F>(const std::string&);           \
    template const ControllerSpec& controllerSpec<F>(const std::string&);     \
    template std::vector<F::Subtask> decodePlan<F>(const std::vector<int>&);  \
    template std::vector<float> prompt<F>(F::Subtask, const F::Obs&, int);    \
    template void calibratePlanner<F>(PlannerModel&);                         \
    template std::unique_ptr<PlannerModel> planner<F>(const PlannerSpec&,     \
                                                      bool);                  \
    template std::unique_ptr<ControllerModel> controller<F>(                  \
        const ControllerSpec&, bool);                                         \
    template std::unique_ptr<EntropyPredictor> predictor<F>(                  \
        const ControllerSpec&, ControllerModel&, bool);

CREATE_PLAN_FAMILY(ManipFamily)
CREATE_PLAN_FAMILY(NavFamily)

#undef CREATE_PLAN_FAMILY

} // namespace create::platforms
