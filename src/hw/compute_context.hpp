#pragma once

/**
 * @file
 * ComputeContext: the per-run "accelerator state" that every quantized
 * GEMM/conv in the system executes under.
 *
 * It bundles what the paper treats as deployment configuration:
 *  - error-injection mode (none / uniform BER / voltage-derived LUT),
 *  - the current operating voltage (driven by the LDO under CREATE's
 *    autonomy-adaptive voltage scaling),
 *  - whether anomaly-detection-and-clearance units are active,
 *  - datapath quantization width (INT8 default, INT4 for Sec. 6.9),
 *  - a component filter so injection can target a single network component
 *    (Fig. 5(e)-(h) inject into K or O only),
 *  - an energy meter accumulating MACs weighted by V^2 per domain
 *    (planner / controller / predictor), from which effective voltage and
 *    computational energy are derived (Sec. 6.1 "effective voltage").
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/error_model.hpp"
#include "quant/quant.hpp"

namespace create {

/** Which error model corrupts accumulator outputs. */
enum class InjectionMode { None, Uniform, Voltage };

/**
 * Datapath protection scheme (Sec. 6.10 baselines).
 *
 * None        - plain pipeline (CREATE's AD is a separate switch).
 * Dmr         - dual modular redundancy: every GEMM executed twice,
 *               mismatches trigger re-execution (>=2x energy).
 * ThunderVolt - per-PE timing-error detection with result bypass: faulty
 *               outputs are dropped to zero ("neuron pruning").
 * Abft        - checksum-based detection with whole-GEMM recomputation
 *               until clean (bounded retries).
 */
enum class Protection { None, Dmr, ThunderVolt, Abft };

/** Coarse model domains for energy/bookkeeping separation. */
enum class Domain { Planner = 0, Controller = 1, Predictor = 2, Other = 3 };
constexpr int kNumDomains = 4;

/** Per-domain MAC/energy accounting. */
struct DomainUsage
{
    double macs = 0.0;              //!< simulated multiply-accumulates
    double v2WeightedMacs = 0.0;    //!< sum of macs * (V/Vnom)^2
    std::uint64_t gemmCalls = 0;
    std::uint64_t bitFlips = 0;     //!< injected flips
    std::uint64_t anomaliesCleared = 0; //!< outputs clamped by AD
};

/** Accumulates usage per domain; supports effective-voltage queries. */
class EnergyMeter
{
  public:
    void addGemm(Domain d, double macs, double voltage);
    void addFlips(Domain d, std::uint64_t flips);
    void addAnomalies(Domain d, std::uint64_t cleared);

    const DomainUsage& usage(Domain d) const;
    DomainUsage total() const;

    /**
     * Effective voltage: the constant voltage with the same total V^2-
     * weighted compute energy (paper Sec. 6.1). Returns nominal if the
     * domain did no work.
     */
    double effectiveVoltage(Domain d) const;

    void reset();

  private:
    std::array<DomainUsage, kNumDomains> perDomain_{};
};

/**
 * Reusable scratch buffers for the inference hot path.
 *
 * One workspace lives in each ComputeContext, and contexts are never
 * shared across threads (each episode builds its own), so the buffers are
 * thread-safe by construction. Buffers grow to the high-water mark of the
 * layers run under the context and are reused for every subsequent GEMM /
 * attention call, making the steady-state pipeline allocation-free.
 */
struct GemmWorkspace
{
    std::vector<std::int8_t> xq;        //!< quantized activations
    std::vector<std::int32_t> acc;      //!< working accumulators
    std::vector<std::int32_t> cleanAcc; //!< clean product kept for re-execution
    std::vector<std::int32_t> acc2;     //!< DMR duplicate execution
    std::vector<std::int32_t> acc3;     //!< DMR arbitration execution
    std::vector<std::size_t> positions; //!< flip positions (ThunderVolt/ABFT)
    std::vector<float> attnK;           //!< packed K^T slab (headDim x tokens)
    std::vector<float> attnV;           //!< packed V slab (tokens x headDim)
    std::vector<float> attnScores;      //!< per-head score/probability matrix
};

/**
 * Observer hook on the integer-GEMM stage of faultyLinear, kept for the
 * campaign benchmark (perfbench), whose replay installs a sink that
 * records each GEMM's shape. When a context carries a sink, the hot path
 * hands the (already quantized) GEMM to it instead of calling the
 * dispatched kernel. The contract is create::intGemm over a zero-filled
 * `acc` and a row-major `wq` (QuantGemmState keeps its row-major copy
 * for sinks alone; the kernels read the packed one): the sink must leave
 * exactly the int32 GEMM sums there, so routing through a sink never
 * changes results (test_hotpath_golden).
 */
class IntGemmSink
{
  public:
    virtual ~IntGemmSink() = default;
    virtual void gemm(const std::int8_t* xq, std::int64_t m, std::int64_t k,
                      const std::int8_t* wq, std::int64_t n,
                      std::int32_t* acc) = 0;
};

/** Execution context threaded through every quantized layer. */
class ComputeContext
{
  public:
    explicit ComputeContext(std::uint64_t seed = 0xC0FFEEull);

    // --- configuration -------------------------------------------------
    bool anomalyDetection = false;      //!< AD clamp at the output stage
    Protection protection = Protection::None; //!< baseline scheme
    QuantBits bits = QuantBits::Int8;
    bool calibrating = false;           //!< clean pass recording absmax stats
    Domain domain = Domain::Other;
    /** Substring filter on component tags; empty = inject everywhere. */
    std::string componentFilter;

    // --- runtime state --------------------------------------------------
    Rng rng;
    EnergyMeter meter;
    GemmWorkspace ws; //!< hot-path scratch buffers (never shared across threads)
    /** Optional GEMM observer for perfbench (not owned; null = direct). */
    IntGemmSink* gemmSink = nullptr;

    /** Disable injection (clean INT8 execution). */
    void setCleanMode();

    /** Switch to the uniform bit-flip model at the given BER. */
    void setUniformBer(double ber);

    /** Switch to the voltage-derived timing-error model. */
    void setVoltageMode();

    /** Set operating voltage; refreshes the cached per-bit rate LUT. */
    void setVoltage(double v);

    InjectionMode mode() const { return mode_; }
    double voltage() const { return voltage_; }
    double uniformBer() const { return uniformBer_; }

    /** Per-bit flip rates for the active mode (all zero when mode==None). */
    const std::vector<double>& activeBitRates() const { return bitRates_; }

    /** Whether the filter allows injection into a tagged component. */
    bool injectionEnabledFor(const std::string& tag) const;

  private:
    void refreshRates();

    InjectionMode mode_ = InjectionMode::None;
    double uniformBer_ = 0.0;
    double voltage_ = TimingErrorModel::kNominalVoltage;
    std::vector<double> bitRates_;
};

} // namespace create
