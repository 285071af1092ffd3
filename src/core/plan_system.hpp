#pragma once

/**
 * @file
 * PlanSystem<F>: the decoded-plan backend of the EmbodiedSystem facade,
 * one class for every platform family of models/platforms.hpp (paper
 * Fig. 17, Table 10). ManipSystem (ManipWorld) and NavSystem (NavWorld)
 * are its two instantiations.
 *
 * Pairs one planner stand-in with one controller stand-in of family F
 * and runs the planner-decomposes / controller-executes episode: the
 * planner decodes the whole mission once, then the controller executes
 * each motion subtask step by step under the same CreateConfig
 * deployment points the Minecraft stack uses -- AD on both models, WR on
 * the rotated planner, autonomy-adaptive VS on the controller via the
 * platform's entropy predictor driving the LDO. (MineSystem keeps its
 * own loop: the Minecraft agent re-invokes the planner mid-episode.)
 *
 * Energy is priced at the paper-scale workloads the family's spec rows
 * name (e.g. OpenVLA 4,595 GOps + Octo 76 GOps per inference), keeping
 * Joule-level results at Fig. 17 magnitudes.
 */

#include <memory>
#include <string>

#include "core/embodied_system.hpp"
#include "core/shared_models.hpp"
#include "models/platforms.hpp"

namespace create {

/** A planner+controller pairing of decoded-plan family F. */
template <class F>
class PlanSystem : public EmbodiedSystem
{
  public:
    using Task = typename F::Task;

    /** Names index F's spec rows, e.g. ("openvla", "octo");
     *  std::invalid_argument when either is unknown. */
    PlanSystem(const std::string& planner, const std::string& controller,
               bool verbose);

    // --- EmbodiedSystem interface ----------------------------------------
    const char* platformName() const override { return label_.c_str(); }
    int numTasks() const override { return F::kNumTasks; }
    const char* taskName(int taskId) const override
    {
        return F::taskName(static_cast<Task>(taskId));
    }
    EpisodeResult runEpisode(int taskId, std::uint64_t seed,
                             const CreateConfig& cfg) override;
    const PaperEnergyModel& energyModel() const override { return energy_; }
    void prepare(const CreateConfig& cfg) override;

    // --- typed convenience API -------------------------------------------
    using EmbodiedSystem::evaluate;

    EpisodeResult runEpisode(Task task, std::uint64_t seed,
                             const CreateConfig& cfg)
    {
        return runEpisode(static_cast<int>(task), seed, cfg);
    }

    TaskStats evaluate(Task task, const CreateConfig& cfg, int reps,
                       std::uint64_t seed0 = kDefaultSeed0)
    {
        return evaluate(static_cast<int>(task), cfg, reps, seed0);
    }

    /** Planner access; builds the rotated variant lazily. */
    PlannerModel& planner(bool rotated);
    ControllerModel& controller() { return *shared_.controller; }
    /** Entropy predictor; trained/loaded lazily (only VS configs need it). */
    EntropyPredictor& predictor();

  private:
    const platforms::PlannerSpec& plannerSpec_;
    const platforms::ControllerSpec& controllerSpec_;
    std::string label_;
    bool verbose_;

    SharedModelSet shared_; //!< read-only once prepare() has run
    PaperEnergyModel energy_;
};

extern template class PlanSystem<platforms::ManipFamily>;
extern template class PlanSystem<platforms::NavFamily>;

/** Manipulation pairings on ManipWorld ("openvla"/"roboflamingo" with
 *  "octo"/"rt1"). */
using ManipSystem = PlanSystem<platforms::ManipFamily>;
/** Navigation pairings on NavWorld ("navllama" with "pathrt" or
 *  "swiftpilot"). */
using NavSystem = PlanSystem<platforms::NavFamily>;

} // namespace create
