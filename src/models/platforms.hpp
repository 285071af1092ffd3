#pragma once

/**
 * @file
 * The decoded-plan platform families of the Fig. 17 generality study
 * (README "Substitutions" #4). A planner stand-in decomposes the whole
 * mission into motion subtasks once; a behavior-cloned controller
 * stand-in executes them step by step, paired with an entropy predictor
 * for autonomy-adaptive voltage scaling.
 *
 * A family type holds only what differs between families: the world,
 * task, subtask, observation and action types; the episode step cap and
 * plan length; one spec row per planner and per controller (name, depth,
 * seeds, and the paper-scale workload that prices it); the expert, the
 * behavior-cloning oversampling rule, the episode RNG salts and the
 * seeds of the fixed training and calibration rollouts. The builders
 * below are written once over the family and instantiated for both
 * families in platforms.cpp.
 *
 *  - ManipFamily (ManipWorld; LIBERO / CALVIN / OXE tasks): the
 *    LLaMA-style planners OpenVLA (7B-class, 4,595 GOps) and
 *    RoboFlamingo (3B-class, 2,411 GOps), and the post-norm Transformer
 *    controllers Octo (76 GOps) and RT-1 (78 GOps).
 *  - NavFamily (NavWorld; drone missions): the planner NavLLaMA
 *    (1B-class, 1,087 GOps) and the controllers PathRT (34 GOps) and
 *    SwiftPilot (17 GOps).
 *
 * Weights are trained once, deterministically, and cached as
 * `<name>_{planner,controller,predictor}_v2.bin` in ModelZoo::assetsDir().
 */

#include <cstdint>
#include <limits>

#include "env/manipworld.hpp"
#include "env/navworld.hpp"
#include "models/controller.hpp"
#include "models/entropy_predictor.hpp"
#include "models/model_zoo.hpp"
#include "models/planner.hpp"
#include "perf/workloads.hpp"

namespace create::platforms {

/** One planner stand-in of a family. */
struct PlannerSpec
{
    const char* name;        //!< e.g. "openvla"
    int layers;
    float outlierScale;      //!< planted outlier magnitude (WR's target)
    std::uint64_t initSeed;
    Workload (*workload)();  //!< paper-scale pricing (perf/workloads)
};

/** One controller stand-in of a family, with its entropy predictor. */
struct ControllerSpec
{
    const char* name;        //!< e.g. "octo"
    int layers;
    std::uint64_t initSeed;
    std::uint64_t bcSeed;        //!< behavior-cloning dataset
    std::uint64_t predictorSeed; //!< the paired predictor's init
    Workload (*workload)();
};

/** Seeds of a family's fixed training and calibration rollouts. */
struct RolloutSeeds
{
    std::uint64_t plannerCalib;         //!< planner calibration context
    std::uint64_t controllerCalib;      //!< its context and expert RNG
    std::uint64_t controllerCalibWorld; //!< world seed: this + task
    /** BC world seed: bcSeed * bcWorldScale + task * bcTaskStride + rep. */
    std::uint64_t bcWorldScale;
    std::uint64_t bcTaskStride;
    std::uint64_t frames; //!< predictor frames: context and sampler
    /** Frame world seed: framesWorld + task * framesTaskStride + rep. */
    std::uint64_t framesWorld;
    std::uint64_t framesTaskStride;
    /** Predictor calibration context (+1 controller context, +2
     *  sampler) on one world. */
    std::uint64_t predictorCalib;
    int predictorCalibTask;
    std::uint64_t predictorCalibWorld;
};

/** Tabletop manipulation on ManipWorld (paper Fig. 17, Table 10). */
struct ManipFamily
{
    using World = ManipWorld;
    using Task = ManipTask;
    using Subtask = ManipSubtask;
    using Obs = ManipObs;
    using Action = ManipAction;
    static constexpr const char* kEnvFamily = "manipulation";
    static constexpr int kNumTasks = kNumManipTasks;
    static constexpr int kNumSubtasks = kNumManipSubtasks;
    static constexpr int kNumActions = kNumManipActions;
    static constexpr int kStepCap = ManipWorld::kStepCap; //!< per episode
    static constexpr int kPlanLen = 6;
    /** Training and calibration rollouts cap each subtask at 60 steps. */
    static constexpr int kRolloutSubtaskCap = 60;
    static constexpr int kRolloutCap = std::numeric_limits<int>::max();

    static constexpr PlannerSpec kPlanners[] = {
        {"openvla", 3, 12.0f, 0xA111, workloads::openVla}, // 7B-class
        {"roboflamingo", 2, 9.0f, 0xA222, workloads::roboFlamingo},
    };
    static constexpr ControllerSpec kControllers[] = {
        {"octo", 3, 0xB111, 0x7777, 0xC111, workloads::octo},
        {"rt1", 2, 0xB222, 0x8888, 0xC222, workloads::rt1},
    };
    /** Episode salts: planner, controller and predictor contexts, then
     *  the action sampler. */
    static constexpr std::uint64_t kEpisodeSalts[4] = {0x111, 0x222, 0x333,
                                                       0x444};
    static constexpr RolloutSeeds kSeeds = {
        0x71, 0x72, 5300, 37, 11, 0x4242, 900, 13,
        0x91, static_cast<int>(ManipTask::Wine), 31337};

    static const char* taskName(Task t) { return manipTaskName(t); }
    static std::vector<Subtask> goldPlan(Task t) { return manipGoldPlan(t); }
    static Action expert(const World& w, Rng& rng);
    /** Extra behavior-cloning copies of a (subtask, expert action). */
    static int oversample(Subtask st, Action a);
};

/** Autonomous drone navigation on NavWorld (the third family). */
struct NavFamily
{
    using World = NavWorld;
    using Task = NavTask;
    using Subtask = NavSubtask;
    using Obs = NavObs;
    using Action = NavAction;
    static constexpr const char* kEnvFamily = "navigation";
    static constexpr int kNumTasks = kNumNavTasks;
    static constexpr int kNumSubtasks = kNumNavSubtasks;
    static constexpr int kNumActions = kNumNavActions;
    static constexpr int kStepCap = NavWorld::kStepCap; //!< per flight
    static constexpr int kPlanLen = 5;
    /** Training and calibration rollouts cap the whole flight. */
    static constexpr int kRolloutSubtaskCap = NavWorld::kStepCap;
    static constexpr int kRolloutCap = NavWorld::kStepCap;

    static constexpr PlannerSpec kPlanners[] = {
        {"navllama", 2, 10.0f, 0xA333, workloads::navLlama}, // 1B-class
    };
    static constexpr ControllerSpec kControllers[] = {
        {"pathrt", 3, 0xB333, 0x9999, 0xC333, workloads::pathRt},
        {"swiftpilot", 2, 0xB444, 0xAAAA, 0xC444, workloads::swiftPilot},
    };
    static constexpr std::uint64_t kEpisodeSalts[4] = {0x555, 0x666, 0x777,
                                                       0x888};
    static constexpr RolloutSeeds kSeeds = {
        0x73, 0x74, 6100, 41, 13, 0x5151, 1700, 17,
        0x94, static_cast<int>(NavTask::Patrol), 24601};

    static const char* taskName(Task t) { return navTaskName(t); }
    static std::vector<Subtask> goldPlan(Task t) { return navGoldPlan(t); }
    static Action expert(const World& w, Rng& rng);
    static int oversample(Subtask st, Action a);
};

/** The family's spec row named `name`; std::invalid_argument if none. */
template <class F>
const PlannerSpec& plannerSpec(const std::string& name);
template <class F>
const ControllerSpec& controllerSpec(const std::string& name);

/** Plan tokens -> subtasks (tokens are subtask indices; END drops). */
template <class F>
std::vector<typename F::Subtask> decodePlan(const std::vector<int>& tokens);

/** Predictor prompt vector: subtask one-hot + the observation summary. */
template <class F>
std::vector<float> prompt(typename F::Subtask st, const typename F::Obs& obs,
                          int promptDim);

/** Re-run quantization/AD calibration (after load or rotation). */
template <class F>
void calibratePlanner(PlannerModel& m);

/** Load-or-train; models come back calibrated (scales + AD bounds). */
template <class F>
std::unique_ptr<PlannerModel> planner(const PlannerSpec& spec, bool verbose);
template <class F>
std::unique_ptr<ControllerModel> controller(const ControllerSpec& spec,
                                            bool verbose);
/** The entropy predictor paired with a controller (trained on its
 *  clean-execution entropies). */
template <class F>
std::unique_ptr<EntropyPredictor>
predictor(const ControllerSpec& spec, ControllerModel& controller,
          bool verbose);

} // namespace create::platforms
