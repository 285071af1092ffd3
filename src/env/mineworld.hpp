#pragma once

/**
 * @file
 * MineWorld: a seeded Minecraft-like grid world (README "Substitutions"
 * #2).
 *
 * It preserves the task structure the paper's characterization depends on:
 *  - a crafting/smelting tech tree so high-level tasks decompose into
 *    ordered subtask chains (the planner's job),
 *  - mining-progress mechanics: breaking a block takes consecutive aligned
 *    hits and any other action resets progress, creating the "critical
 *    steps" of Fig. 7 where one corrupted action disrupts a chain,
 *  - stochastic subtasks (wandering mobs, scattered grass) that tolerate
 *    suboptimal actions, creating the "non-critical" regime,
 *  - biome-dependent world generation per task (Table 10 descriptions).
 *
 * Coordinates are (x, y) with y growing south. Movement into a blocked cell
 * only turns the agent to face it (so "move toward" then "attack" is the
 * natural mining idiom).
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace create {

/** Low-level controller actions (Fig. 3's action head, adapted to 2-D). */
enum class Action : int {
    MoveN = 0,
    MoveS = 1,
    MoveE = 2,
    MoveW = 3,
    Attack = 4, //!< mine block / hit mob in front
    Use = 5,    //!< shear sheep / harvest grass in front
    Craft = 6,  //!< execute the active craft recipe
    Smelt = 7,  //!< execute the active smelt recipe
    Noop = 8,
};
constexpr int kNumActions = 9;

/** World cell contents. */
enum class Block : std::uint8_t {
    Air = 0,
    Tree,
    Stone,
    CoalOre,
    IronOre,
    TallGrass,
    Water,
    Sand,
};
constexpr int kNumBlockTypes = 8;

/** Inventory items. */
enum class Item : int {
    Log = 0,
    Planks,
    Stick,
    WoodenPickaxe,
    Cobblestone,
    StonePickaxe,
    Furnace,
    Coal,
    IronOre,
    IronIngot,
    IronSword,
    Charcoal,
    RawChicken,
    CookedChicken,
    Wool,
    Seeds,
};
constexpr int kNumItems = 16;

/** Subtask vocabulary shared by planner and controller. */
enum class SubtaskType : int {
    MineLog = 0,
    MineStone,
    MineCoal,
    MineIron,
    HarvestSeeds,
    HuntChicken,
    ShearWool,
    CraftPlanks,
    CraftSticks,
    CraftWoodenPickaxe,
    CraftStonePickaxe,
    CraftFurnace,
    CraftIronSword,
    SmeltCharcoal,
    SmeltIron,
    CookChicken,
};
constexpr int kNumSubtaskTypes = 16;

/** One planner-issued subtask: acquire `count` of the produced item. */
struct Subtask
{
    SubtaskType type = SubtaskType::MineLog;
    int count = 1;

    /** Item this subtask produces. */
    Item produces() const;

    /** Whether this is a Craft/Smelt (single critical action) subtask. */
    bool isCraft() const;
    bool isSmelt() const;

    std::string str() const;
};

/** High-level Minecraft tasks evaluated in the paper (Table 10). */
enum class MineTask : int {
    Wooden = 0, //!< wooden pickaxe in a jungle
    Stone,      //!< stone pickaxe in the plains
    Charcoal,   //!< charcoal in the plains
    Chicken,    //!< cooked chicken in the plains
    Coal,       //!< coal in a savanna
    Iron,       //!< iron sword in the plains
    Wool,       //!< 5 white wool in the plains
    Seed,       //!< 10 wheat seeds in a savanna
    Log,        //!< 10 logs in a forest
};
constexpr int kNumMineTasks = 9;

const char* mineTaskName(MineTask t);
MineTask mineTaskByName(const std::string& name);

/** Gold plan for a task (the supervision corpus for the planner). */
std::vector<Subtask> goldPlan(MineTask t);

/** Final item + count that defines task success. */
std::pair<Item, int> taskGoal(MineTask t);

/** Wandering mob. */
struct Mob
{
    enum class Kind : std::uint8_t { Chicken, Sheep } kind;
    int x = 0, y = 0;
    int hitsTaken = 0;
    int shearCooldown = 0; //!< sheep regrow timer
};

/** Compact observation the controller is allowed to see. */
struct MineObs
{
    std::vector<float> spatial; //!< target direction/distance/adjacency/etc.
    std::vector<float> state;   //!< inventory & progress summary

    static int spatialDim();
    static int stateDim();
};

/** The simulated world. */
class MineWorld
{
  public:
    struct Config
    {
        int width = 40;
        int height = 40;
        MineTask task = MineTask::Wooden;
        std::uint64_t seed = 1;
    };

    explicit MineWorld(Config cfg);

    /** Regenerate the world with a new seed (same task/biome). */
    void reset(std::uint64_t seed);

    /** Apply one action; advances mobs and timers. */
    void step(Action a);

    // --- subtask management ------------------------------------------------
    void setActiveSubtask(Subtask s);
    const Subtask& activeSubtask() const { return subtask_; }
    bool subtaskComplete() const;
    bool taskComplete() const;

    // --- observation ---------------------------------------------------------
    /** Controller features for the active subtask. */
    MineObs observe() const;

    /**
     * Egocentric RGB render (3 x res x res) for the entropy predictor.
     *
     * @param windowRadius how many cells around the agent are visible; a
     *        small radius zooms in so single-cell cues (the block directly
     *        in front) stay resolvable at low resolutions.
     */
    Tensor renderImage(int res, int windowRadius = 10) const;

    // --- queries (used by the privileged expert and tests) -----------------
    int itemCount(Item it) const;
    void grantItem(Item it, int n); //!< test/expert setup helper
    Block blockAt(int x, int y) const;
    int agentX() const { return ax_; }
    int agentY() const { return ay_; }
    int facingDx() const;
    int facingDy() const;
    int miningProgress() const { return mineProgress_; }
    const std::vector<Mob>& mobs() const { return mobs_; }
    const Config& config() const { return cfg_; }
    std::uint64_t stepsTaken() const { return steps_; }
    Rng& rng() { return rng_; }

    /** Target block for a gather subtask (Air if N/A). */
    static Block targetBlock(SubtaskType t);
    /** Target mob kind (or none) for a subtask. */
    static bool targetMob(SubtaskType t, Mob::Kind& kindOut);

    /** Whether agent holds the tool required to mine `b` (or none needed). */
    bool canMine(Block b) const;

    /** Hits required to break a block. */
    static int hitsRequired(Block b);

    /** Can the agent walk onto this block? */
    static bool passable(Block b);

  private:
    void generate();
    void moveOrFace(int dx, int dy, int dir);
    void doAttack();
    void doUse();
    void doCraft();
    void doSmelt();
    bool consumeFuel();
    void stepMobs();
    Mob* mobAt(int x, int y);

    Config cfg_;
    Rng rng_;
    std::vector<Block> grid_;
    std::vector<Mob> mobs_;
    std::array<int, kNumItems> inventory_{};
    int ax_ = 0, ay_ = 0;
    int facing_ = 0; //!< 0=N 1=S 2=E 3=W
    int mineProgress_ = 0;
    int mineX_ = -1, mineY_ = -1;
    Subtask subtask_;
    int subtaskBaseline_ = 0;
    std::uint64_t steps_ = 0;
};

} // namespace create
