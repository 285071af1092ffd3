#pragma once

/**
 * @file
 * Privileged scripted expert for MineWorld.
 *
 * Provides the demonstrations the controller is behavior-cloned from
 * (README "Substitutions" #1: STEVE-1's VPT-distilled policy -> BC on a
 * scripted expert). The expert sees the whole map (the learner only sees
 * MineObs), so during "exploration" phases the expert's moves look
 * multi-modal from the learner's viewpoint -- which is exactly what makes
 * the cloned policy produce near-uniform action logits in non-critical
 * steps and picky logits in critical ones (Fig. 7).
 */

#include "common/rng.hpp"
#include "env/mineworld.hpp"

namespace create {

/** Scripted full-observability expert policy. */
class MineExpert
{
  public:
    /** Best action for the world's active subtask. */
    static Action act(const MineWorld& w, Rng& rng);

  private:
    static Action gatherAction(const MineWorld& w, Rng& rng);
};

} // namespace create
