#pragma once

/**
 * @file
 * MetricsRegistry: cheap thread-local observability counters for the
 * inference hot path, drained per episode into the campaign result
 * pipeline (EpisodeRecord, store schema v3, sweep-stats).
 *
 * Design rules, in priority order:
 *
 *  1. Counters observe, never branch. Nothing here may change a numeric
 *     result, consume an RNG draw, or reorder a floating-point sum: the
 *     whole result pipeline is bit-identity-tested (metrics on vs. off
 *     must produce byte-identical TaskStats), so every recorder is a pure
 *     reader of state the hot path already computed.
 *  2. Thread-local, no synchronization on the hot path. Every episode
 *     runs on exactly one thread (ComputeContexts are never shared), so
 *     the per-episode section is a plain thread_local block bracketed by
 *     beginEpisode()/endEpisode() around each runEpisode() call; the only
 *     cross-thread state is the collection switch.
 *  3. Mergeable. EpisodeMetrics += EpisodeMetrics is a lossless union
 *     (counter sums, per-layer tables merged by tag), so per-episode
 *     records collected on N episode threads roll up into campaign
 *     totals in any order.
 *
 * The per-layer fault attribution quadruple is:
 *   injected  - bits the injector actually flipped in the accumulators,
 *   detected  - output elements flagged by a mechanism (AD clamp, DMR
 *               mismatch, ThunderVolt bypass, ABFT checksum hit),
 *   corrected - corrupted outputs restored to the clean product by the
 *               pipeline (net of any it newly corrupted),
 *   escaped   - final outputs that left the layer differing from the
 *               clean product (what the next layer actually sees).
 * AD's clamp-to-zero is detection + mitigation, not correction: a clamped
 * corrupted output whose clean value was nonzero stays "escaped", which
 * is exactly the paper's error-clearance (not error-correction) framing.
 *
 * Registry collection defaults on and can be disabled globally with
 * setEnabled(false) or CREATE_METRICS=0 (checked once, at first use).
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace create {

/** Fault attribution of one model layer (keyed by its component tag). */
struct LayerFaultCounters
{
    std::uint64_t gemms = 0;        //!< faultyLinear calls through the layer
    std::uint64_t injected = 0;     //!< bits flipped by the injector
    std::uint64_t detected = 0;     //!< outputs flagged by AD / protection
    std::uint64_t corrected = 0;    //!< corrupted outputs restored to clean
    std::uint64_t escaped = 0;      //!< corrupted outputs leaving the layer
    std::uint64_t reExecutions = 0; //!< protection-triggered extra GEMMs

    /** Any fault activity at all (gemms alone does not count). */
    bool any() const
    {
        return (injected | detected | corrected | escaped | reExecutions) !=
               0;
    }

    LayerFaultCounters& operator+=(const LayerFaultCounters& o)
    {
        gemms += o.gemms;
        injected += o.injected;
        detected += o.detected;
        corrected += o.corrected;
        escaped += o.escaped;
        reExecutions += o.reExecutions;
        return *this;
    }
};

/**
 * One episode's drained observability payload: the optional (schema v3)
 * extension of EpisodeRecord. `present` is false when the registry was
 * disabled -- everything else is then zero and no store fields are
 * written, which is how v3 code reads v2 stores losslessly.
 */
struct EpisodeMetrics
{
    bool present = false;
    double wallMs = 0.0; //!< wall time of the episode (informational; the
                         //!< only nondeterministic field in the record)
    std::uint64_t gemms = 0;
    std::uint64_t flipsInjected = 0;
    std::uint64_t flipsDetected = 0;
    std::uint64_t flipsCorrected = 0;
    std::uint64_t flipsEscaped = 0;
    std::uint64_t reExecutions = 0;
    /** Per-layer attribution, sorted by tag; only layers with any(). */
    std::vector<std::pair<std::string, LayerFaultCounters>> layers;

    /** Lossless merge (episode -> cell -> campaign rollups). */
    EpisodeMetrics& operator+=(const EpisodeMetrics& o);

    /** The named layer's counters, or nullptr. */
    const LayerFaultCounters* layer(const std::string& tag) const;
};

/**
 * Name -> member table of EpisodeMetrics' deterministic counters, shared
 * by the store writer/reader, sweep-diff, and sweep-stats so a new
 * counter only needs a row here (kTaskStatFields-style). wallMs is
 * deliberately absent: it is the one nondeterministic field and must
 * never enter a drift gate.
 */
inline constexpr std::pair<const char*, std::uint64_t EpisodeMetrics::*>
    kEpisodeMetricFields[] = {
        {"gemmCalls", &EpisodeMetrics::gemms},
        {"flipsInjected", &EpisodeMetrics::flipsInjected},
        {"flipsDetected", &EpisodeMetrics::flipsDetected},
        {"flipsCorrected", &EpisodeMetrics::flipsCorrected},
        {"flipsEscaped", &EpisodeMetrics::flipsEscaped},
        {"reExecutions", &EpisodeMetrics::reExecutions},
};

/** Same for the per-layer quadruple (store keys: `L.<tag>.<name>`). */
inline constexpr std::pair<const char*, std::uint64_t LayerFaultCounters::*>
    kLayerFaultFields[] = {
        {"gemms", &LayerFaultCounters::gemms},
        {"inj", &LayerFaultCounters::injected},
        {"det", &LayerFaultCounters::detected},
        {"cor", &LayerFaultCounters::corrected},
        {"esc", &LayerFaultCounters::escaped},
        {"reexec", &LayerFaultCounters::reExecutions},
};

/** Store-key prefix of the per-layer attribution fields. */
inline constexpr const char* kLayerFieldPrefix = "L.";

/** Thread-local observability counters (see file comment). */
class MetricsRegistry
{
  public:
    /** This thread's registry. */
    static MetricsRegistry& tls();

    /**
     * Global collection switch (default on; CREATE_METRICS=0 disables).
     * Hot-path recorders are no-ops while disabled, and drained episodes
     * report present=false. Flipping it never changes any result -- only
     * whether the observability payload exists.
     */
    static bool enabled();
    static void setEnabled(bool on);

    // --- per-episode section (this thread only) -------------------------

    /** Clear the episode block; call right before runEpisode(). */
    void beginEpisode();

    /**
     * Drain the episode block collected since beginEpisode() into a
     * mergeable record. `wallMs` is measured by the caller (the episode
     * runner brackets the runEpisode() call). present=false when the
     * registry is disabled.
     */
    EpisodeMetrics endEpisode(double wallMs);

    /** One faultyLinear call through `tag` (frozen path only). */
    void recordGemm(const std::string& tag);

    /** Fault attribution of one faultyLinear call (adds onto `tag`). */
    void recordFault(const std::string& tag, const LayerFaultCounters& c);

  private:
    std::map<std::string, LayerFaultCounters> layers_;
    std::uint64_t gemms_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t detected_ = 0;
    std::uint64_t corrected_ = 0;
    std::uint64_t escaped_ = 0;
    std::uint64_t reExecutions_ = 0;
};

} // namespace create
