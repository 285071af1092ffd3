#pragma once

/**
 * @file
 * The RL controller (Fig. 3 right): a post-norm Transformer policy that
 * fuses a subtask prompt embedding with observation tokens and emits
 * action logits each step. Trained by behavior cloning from the scripted
 * experts (README "Substitutions" #1).
 *
 * The class is environment-agnostic: it consumes a subtask id plus the
 * two observation feature vectors (spatial / state), so the same code
 * serves the JARVIS-1 stand-in (MineWorld) and the Octo / RT-1 stand-ins
 * (ManipWorld) with different dimensions.
 */

#include <memory>

#include "nn/transformer.hpp"

namespace create {

/** Controller hyperparameters. */
struct ControllerConfig
{
    std::string name = "controller";
    int dim = 48;
    int mlpDim = 144;
    int layers = 2;
    int heads = 4;
    int numSubtasks = 16;
    int spatialDim = 31;
    int stateDim = 14;
    int numActions = 9;
};

/** Post-norm Transformer action policy. */
class ControllerModel : public nn::Module
{
  public:
    ControllerModel(ControllerConfig cfg, Rng& rng);

    /** Training forward: logits (1 x numActions). */
    nn::Var forward(int subtask, const std::vector<float>& spatial,
                    const std::vector<float>& state);

    /** Deployment path: action logits through the faulty pipeline. */
    std::vector<float> inferLogits(int subtask,
                                   const std::vector<float>& spatial,
                                   const std::vector<float>& state,
                                   ComputeContext& ctx);

    const ControllerConfig& config() const { return cfg_; }

    nn::PostNormBlock& block(int i)
    {
        return *blocks_[static_cast<std::size_t>(i)];
    }

  private:
    ControllerConfig cfg_;
    nn::Embedding subtaskEmb_;
    nn::Linear spatialProj_, stateProj_;
    std::vector<std::unique_ptr<nn::PostNormBlock>> blocks_;
    nn::Linear headLinear_;
};

} // namespace create
