#pragma once

/**
 * @file
 * ManipWorld: a tabletop manipulation environment standing in for the
 * LIBERO / CALVIN / OXE benchmarks of the cross-platform evaluation
 * (Fig. 17, Table 10; README "Substitutions" #4).
 *
 * A gripper moves on an 8x8 table among an object, a goal zone, a button,
 * a drawer handle, and a slideable block. Twelve tasks mirror the paper's
 * names (wine/alphabet/bbq on LIBERO; button/block/handle on CALVIN;
 * eggplant/coke/carrot/open/move/place on OXE). Like MineWorld it has
 * critical chains (grasping, consecutive pulls) and free navigation
 * phases, so the same entropy-based voltage scaling applies.
 */

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace create {

/** Gripper actions. */
enum class ManipAction : int {
    MoveN = 0,
    MoveS,
    MoveE,
    MoveW,
    Grasp,
    Release,
    Press,
    Pull,
    Noop,
};
constexpr int kNumManipActions = 9;

/** Cross-platform tasks (Table 10). */
enum class ManipTask : int {
    Wine = 0, //!< LIBERO: put wine bottle on top of cabinet
    Alphabet, //!< LIBERO: alphabet soup -> basket
    Bbq,      //!< LIBERO: bbq sauce -> basket
    Button,   //!< CALVIN: press the button
    Block,    //!< CALVIN: slide block into the drawer
    Handle,   //!< CALVIN: pull handle to open drawer
    Eggplant, //!< OXE: put eggplant in basket
    Coke,     //!< OXE: grasp coke can
    Carrot,   //!< OXE: put carrot on plate
    Open,     //!< OXE: open middle drawer
    Move,     //!< OXE: move object near target
    Place,    //!< OXE: place into closed top drawer
};
constexpr int kNumManipTasks = 12;

const char* manipTaskName(ManipTask t);

/** Motion-level subtasks the manipulation planner emits. */
enum class ManipSubtask : int {
    ReachObject = 0,
    GraspObject,
    TransportToGoal,
    ReleaseAtGoal,
    ReachButton,
    PressButton,
    ReachHandle,
    PullHandle,
    PushBlock,
};
constexpr int kNumManipSubtasks = 9;

/** Gold plan per task. */
std::vector<ManipSubtask> manipGoldPlan(ManipTask t);

/** Controller observation (same two-part layout as MineObs). */
struct ManipObs
{
    std::vector<float> spatial;
    std::vector<float> state;

    static int spatialDim();
    static int stateDim();
};

/** The tabletop world. */
class ManipWorld
{
  public:
    static constexpr int kSize = 8;
    static constexpr int kStepCap = 120; //!< per-episode step budget

    ManipWorld(ManipTask task, std::uint64_t seed);

    void reset(std::uint64_t seed);
    void step(ManipAction a);

    void setActiveSubtask(ManipSubtask s);
    ManipSubtask activeSubtask() const { return subtask_; }
    bool subtaskComplete() const;
    bool taskComplete() const;

    ManipObs observe() const;

    /** Tabletop RGB render (3 x res x res) for the entropy predictor. */
    Tensor renderImage(int res) const;

    // Expert/test queries.
    int gripperX() const { return gx_; }
    int gripperY() const { return gy_; }
    bool holding() const { return holding_; }
    int objectX() const { return ox_; }
    int objectY() const { return oy_; }
    int goalX() const { return goalX_; }
    int goalY() const { return goalY_; }
    int buttonX() const { return buttonX_; }
    int buttonY() const { return buttonY_; }
    int handleX() const { return handleX_; }
    int handleY() const { return handleY_; }
    int blockX() const { return blockX_; }
    int blockY() const { return blockY_; }
    int pullProgress() const { return pullProgress_; }
    int pressProgress() const { return pressProgress_; }
    int pushesDone() const { return pushesDone_; }
    ManipTask task() const { return task_; }
    std::uint64_t stepsTaken() const { return steps_; }

    /** Position the active subtask is about (object/button/handle/goal). */
    void subtaskTarget(int& tx, int& ty) const;

  private:
    void move(int dx, int dy);

    ManipTask task_;
    Rng rng_;
    int gx_ = 0, gy_ = 0;
    bool holding_ = false;
    int ox_ = 0, oy_ = 0;
    int goalX_ = 0, goalY_ = 0;
    int buttonX_ = 0, buttonY_ = 0;
    int handleX_ = 0, handleY_ = 0;
    int blockX_ = 0, blockY_ = 0;
    int pullProgress_ = 0;
    int pressProgress_ = 0;
    int pushesDone_ = 0;
    bool buttonPressed_ = false;
    bool drawerOpen_ = false;
    bool released_ = false;
    ManipSubtask subtask_ = ManipSubtask::ReachObject;
    std::uint64_t steps_ = 0;
};

} // namespace create
