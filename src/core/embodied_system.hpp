#pragma once

/**
 * @file
 * EmbodiedSystem: the platform-generic facade over one embodied AI stack
 * (planner + controller + optional entropy predictor on an environment).
 *
 * A CreateConfig describes one deployment point: the injection model
 * (uniform BER for characterization, voltage-derived for evaluation), the
 * per-model operating voltages, and which CREATE techniques are active
 * (AD at the circuit level, WR at the model level, VS at the application
 * level) or which baseline protection replaces them (DMR / ThUnderVolt /
 * ABFT, Sec. 6.10). The config is platform-agnostic: the same deployment
 * point drives the Minecraft/JARVIS-1 stack (MineSystem) and every
 * decoded-plan family (PlanSystem<F>: the manipulation stacks as
 * ManipSystem, the autonomous-navigation stacks as NavSystem), which is
 * exactly how the paper's Fig. 17 generality study treats them. The
 * platform catalogue lives in core/platform_registry.hpp.
 *
 * evaluate() repeats episodes with deterministic per-episode seeding
 * (seed0 + rep) and aggregates success rate, average steps, effective
 * voltage, and paper-scale energy. Every episode fan-out -- evaluate()
 * with setEvalThreads(n > 1), a SweepRunner wave, a coordinator range --
 * goes through runJobs(): a flat list of {task, config, seed} episodes
 * run on up to n threads that all share this one prepared system.
 * Episodes build every mutable piece (contexts, RNG streams, meters,
 * workspaces, world, agent) on their own stack, and results come back in
 * job order, so the aggregate TaskStats is the same whether run with 1
 * or N threads.
 */

#include <cstdint>
#include <vector>

#include "agent/metrics.hpp"
#include "core/voltage_policy.hpp"

namespace create {

/**
 * Observer of completed episodes, called as they finish. With more than
 * one thread the calls arrive from every running thread in completion
 * order (not job order), so implementations must be thread-safe; `index`
 * is the episode's position in the runJobs() job list. The SweepRunner's
 * sinks land episodes in their ledgers and stream them to the store or
 * the coordinator through this, so a killed campaign keeps every episode
 * that reached a flush instead of losing the whole cell.
 */
class EpisodeSink
{
  public:
    virtual ~EpisodeSink() = default;
    /**
     * `metrics` is the episode's drained observability payload (wall
     * time, per-layer fault attribution; present=false when the
     * MetricsRegistry is disabled). It rides alongside the result rather
     * than inside it so the TaskStats fold never sees it.
     */
    virtual void onEpisode(int index, const EpisodeResult& result,
                           const EpisodeMetrics& metrics) = 0;
};

/** One deployment configuration (platform-agnostic). */
struct CreateConfig
{
    // CREATE techniques.
    bool anomalyDetection = false; //!< AD (Sec. 5.1)
    bool weightRotation = false;   //!< WR on the planner (Sec. 5.2)
    bool voltageScaling = false;   //!< VS on the controller (Sec. 5.3)

    // Error injection.
    InjectionMode mode = InjectionMode::None;
    double uniformBer = 0.0;     //!< Uniform mode: BER for both models
    double plannerBer = -1.0;    //!< optional per-model override (<0: off)
    double controllerBer = -1.0; //!< optional per-model override (<0: off)
    bool injectPlanner = true;
    bool injectController = true;
    /** Substring component filter, e.g. ".attn.k" (empty: everywhere). */
    std::string componentFilter;

    // Operating points (Voltage mode).
    double plannerVoltage = TimingErrorModel::kNominalVoltage;
    double controllerVoltage = TimingErrorModel::kNominalVoltage;

    // Voltage scaling.
    EntropyVoltagePolicy policy; //!< used when voltageScaling
    int vsInterval = 5;          //!< steps between LDO updates (Sec. 6.5)

    // Datapath width (Sec. 6.9) and baseline protection (Sec. 6.10).
    QuantBits bits = QuantBits::Int8;
    Protection protection = Protection::None;

    /**
     * Configure a model's execution context for this deployment point
     * (shared by every backend; was CreateSystem::configureContext).
     */
    void applyTo(ComputeContext& ctx, bool isPlanner) const;

    // --- convenience builders -------------------------------------------
    static CreateConfig clean();
    static CreateConfig uniform(double ber);
    static CreateConfig atVoltage(double plannerV, double controllerV);
    /** Full CREATE stack at given voltages with a VS policy. */
    static CreateConfig fullCreate(double plannerV,
                                   EntropyVoltagePolicy policy,
                                   int interval = 5);
};

/** One episode of a runJobs() fan-out. */
struct EpisodeJob
{
    int taskId = 0;
    const CreateConfig* cfg = nullptr; //!< must outlive the runJobs() call
    std::uint64_t seed = 0;
};

/**
 * Platform-generic episode runner + evaluation engine.
 *
 * Concrete backends (MineSystem, PlanSystem<F>) supply the
 * per-episode behavioural simulation over a frozen, shared model set
 * (core/shared_models.hpp); the base class owns repetition, seeding,
 * aggregation, and the fan-out of episodes over threads.
 */
class EmbodiedSystem
{
  public:
    /** Default base seed for evaluate(); episode i runs at seed0 + i. */
    static constexpr std::uint64_t kDefaultSeed0 = 1000;

    virtual ~EmbodiedSystem() = default;

    /** Human-readable platform tag, e.g. "jarvis-1" or "openvla+octo". */
    virtual const char* platformName() const = 0;

    /** Task vocabulary of this platform. */
    virtual int numTasks() const = 0;
    virtual const char* taskName(int taskId) const = 0;

    /**
     * Run one episode under a configuration. Safe to call from several
     * threads at once once prepare(cfg) has run: an episode only reads
     * the shared model state.
     */
    virtual EpisodeResult runEpisode(int taskId, std::uint64_t seed,
                                     const CreateConfig& cfg) = 0;

    /** Paper-scale energy pricing for this platform's models. */
    virtual const PaperEnergyModel& energyModel() const = 0;

    /**
     * Materialize lazily-built state a configuration needs (rotated
     * planner, entropy predictor) and freeze every layer it touches at
     * its width. The serial freeze point every backend must define:
     * runJobs() calls it on the calling thread before any episode runs,
     * and episodes on other threads then only read model state.
     */
    virtual void prepare(const CreateConfig& cfg) = 0;

    /**
     * Run `jobs` on up to `threads` threads sharing this system and
     * return their results in job order. The calling thread is one of
     * them, so threads <= 1 spawns nothing, and no more threads start
     * than there are jobs. Each distinct config is prepare()d serially
     * first; a call that fans out must keep to one QuantBits width
     * (freezing is per-width state; std::invalid_argument otherwise).
     * Each episode's MetricsRegistry block is bracketed on the thread
     * that runs it and handed, with the result, to the optional sink by
     * job index. The first exception stops further jobs and is rethrown
     * once every thread has joined.
     */
    std::vector<EpisodeResult> runJobs(const std::vector<EpisodeJob>& jobs,
                                       int threads,
                                       EpisodeSink* sink = nullptr);

    /**
     * Run `reps` episodes at seeds seed0, seed0+1, ... on the
     * setEvalThreads() budget and return them in episode order.
     */
    std::vector<EpisodeResult> runEpisodes(int taskId,
                                           const CreateConfig& cfg, int reps,
                                           std::uint64_t seed0 = kDefaultSeed0);

    /** Repeat episodes and aggregate (paper: >=100 repetitions). */
    TaskStats evaluate(int taskId, const CreateConfig& cfg, int reps,
                       std::uint64_t seed0 = kDefaultSeed0);

    /**
     * Threads evaluate() runs episodes on. 1 (the default) runs them
     * serially on the calling thread; n < 1 clamps to 1.
     */
    void setEvalThreads(int n);

    /** Hardware concurrency (>= 1): the default --threads of the
     *  benches and examples. */
    static int defaultEvalThreads();

  private:
    int evalThreads_ = 1;
};

} // namespace create
