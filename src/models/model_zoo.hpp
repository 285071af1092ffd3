#pragma once

/**
 * @file
 * ModelZoo: builds, trains (once, cached on disk), and calibrates the
 * behavioural models of the JARVIS-1 stand-in stack:
 *
 *  - the LLaMA-style planner, supervised on the (task, progress) ->
 *    remaining-subtask-sequence corpus derived from the gold plans,
 *  - the post-norm Transformer controller, behavior-cloned from the
 *    privileged MineExpert,
 *  - the entropy predictor, regressed (MSE + AdamW, Sec. 6.1) onto
 *    error-free controller entropies over rendered frames.
 *
 * All training is deterministic (fixed seeds); weights are cached in
 * $CREATE_ASSETS_DIR (default ~/.cache/create_repro) so every bench and
 * test reconstructs identical models. Quantization scales and AD bounds
 * are re-calibrated after every load or weight rotation (they are not
 * serialized by design: calibration is part of deployment).
 */

#include <array>
#include <functional>
#include <memory>

#include "env/mineworld.hpp"
#include "models/controller.hpp"
#include "models/entropy_predictor.hpp"
#include "models/planner.hpp"

namespace create {

/** Token vocabulary for Minecraft plans: distinct (type, count) pairs. */
class PlanVocab
{
  public:
    /** Build from all gold plans. */
    static const PlanVocab& mine();

    int tokenOf(const Subtask& s) const;
    int endToken() const { return static_cast<int>(entries_.size()); }
    int size() const { return static_cast<int>(entries_.size()) + 1; }

    /** Decode tokens to subtasks (tokens >= endToken are dropped). */
    std::vector<Subtask> decode(const std::vector<int>& tokens) const;

    /** Encode a plan (throws if a subtask is missing from the vocab). */
    std::vector<int> encode(const std::vector<Subtask>& plan) const;

  private:
    std::vector<Subtask> entries_;
};

/** One behavior-cloning sample. */
struct BcSample
{
    int subtask = 0;
    std::vector<float> spatial;
    std::vector<float> state;
    int action = 0;
};

/** Sample an action index from softmax(logits). */
int sampleAction(const std::vector<float>& logits, Rng& rng);

/** Trained model bundle for the Minecraft stack. */
struct MineModels
{
    std::unique_ptr<PlannerModel> planner;
    std::unique_ptr<ControllerModel> controller;
    std::unique_ptr<EntropyPredictor> predictor;
};

/** Build/train/calibrate entry points. */
class ModelZoo
{
  public:
    /** Weight-cache directory ($CREATE_ASSETS_DIR or ~/.cache/create_repro). */
    static std::string assetsDir();

    /**
     * Load `m` from assetsDir()/`file`, or run `train` and cache the
     * trained weights there. Calibration is the caller's (it is not
     * serialized).
     */
    static void loadOrTrain(nn::Module& m, const std::string& file,
                            const std::function<void()>& train);

    static PlannerConfig minePlannerConfig();
    static ControllerConfig mineControllerConfig();
    static PredictorConfig minePredictorConfig();

    /** Load-or-train; models come back calibrated (scales + AD bounds). */
    static std::unique_ptr<PlannerModel> minePlanner(bool verbose = true);
    static std::unique_ptr<ControllerModel> mineController(bool verbose = true);
    static std::unique_ptr<EntropyPredictor>
    minePredictor(ControllerModel& controller, bool verbose = true);

    /** The full Minecraft stack. */
    static MineModels mineModels(bool verbose = true);

    // --- calibration (clean passes recording absmax observers) ----------
    static void calibrateMinePlanner(PlannerModel& m);
    static void calibrateMineController(ControllerModel& m);
    static void calibrateMinePredictor(EntropyPredictor& p,
                                       ControllerModel& controller);

    // --- generic trainers (reused by the cross-platform stand-ins) -------
    /** Supervised plan corpus: inputs are (taskId, done); targets are
     *  token sequences padded with END to maxPlanLen. */
    static void trainPlannerOnCorpus(
        PlannerModel& m, const std::vector<std::pair<int, int>>& inputs,
        const std::vector<std::vector<int>>& targets, int epochs, double lr,
        bool verbose);

    /** Behavior cloning on a fixed sample set. */
    static void trainControllerBc(ControllerModel& m,
                                  std::vector<BcSample> data, int epochs,
                                  double lr, bool verbose);

    /** MSE regression of the predictor onto recorded entropy frames. */
    struct EntropyFrame
    {
        Tensor image;
        std::vector<float> prompt;
        float entropy = 0.0f;
    };
    static double trainPredictor(EntropyPredictor& p,
                                 const std::vector<EntropyFrame>& frames,
                                 int epochs, double lr, bool verbose);

    // --- dataset builders (exposed for tests/benches) ---------------------
    static std::vector<BcSample> mineBcDataset(int seedsPerTask,
                                               std::uint64_t seed);
    static std::vector<EntropyFrame>
    minePredictorFrames(ControllerModel& controller, int seedsPerTask,
                        std::uint64_t seed);
};

} // namespace create
