#pragma once

/**
 * @file
 * SharedModelSet: the model bundle of one EmbodiedSystem backend, shared
 * by every thread that runs its episodes and immutable at episode time.
 *
 * runJobs() points all of its threads at one system, so frozen
 * quantized weights (QuantGemmState::wq + scales), FP32 weight tensors,
 * and calibration observers exist once per process; each episode builds
 * its own mutable state (ComputeContexts with their RNG streams,
 * EnergyMeters, GemmWorkspaces, world, agent) on its own stack.
 *
 * Safety contract: episode execution only reads model state once every
 * QuantGemmState is frozen at the deployment bit-width. prepare(cfg) is
 * the serial freeze point: it runs the warmFreeze* helpers below -- one
 * throwaway clean inference that freezes every layer the config will
 * touch -- and runJobs() calls it on the calling thread for each
 * distinct config before any episode starts. Lazily-built members
 * (rotated planner, entropy predictor) are likewise only constructed
 * inside prepare.
 */

#include <memory>

#include "models/controller.hpp"
#include "models/entropy_predictor.hpp"
#include "models/planner.hpp"

namespace create {

/** Frozen-model bundle shared by every thread running a backend. */
struct SharedModelSet
{
    std::shared_ptr<PlannerModel> planner;
    std::shared_ptr<PlannerModel> rotatedPlanner; //!< lazy (WR configs)
    std::shared_ptr<ControllerModel> controller;
    std::shared_ptr<EntropyPredictor> predictor;  //!< lazy on some platforms
};

/**
 * Freeze every planner QuantGemmState at `bits` with one clean throwaway
 * inference (no-op when already frozen at that width).
 */
void warmFreezePlanner(PlannerModel& p, QuantBits bits);

/** Same for the controller. */
void warmFreezeController(ControllerModel& c, QuantBits bits);

/**
 * Same for the predictor. The predictor always deploys at the default
 * INT8 width and nominal voltage (Sec. 5.3: its estimate is error-free),
 * matching the per-episode predictor contexts.
 */
void warmFreezePredictor(EntropyPredictor& p);

} // namespace create
