#pragma once

/**
 * @file
 * The quantized, fault-injectable GEMM pipeline every model layer runs on.
 *
 * Pipeline per call (paper Secs. 3.2 and 5.1):
 *   1. quantize activations to INT8/INT4 with a calibrated per-tensor scale,
 *   2. integer GEMM into 24-bit accumulators (weights pre-quantized),
 *   3. inject random bit flips into the accumulators per the context's
 *      active error model,
 *   4. anomaly detection & clearance: accumulators whose dequantized value
 *      exceeds the calibrated valid output bound are clamped to zero
 *      ("127x the output scaling factor" rule),
 *   5. dequantize and add the FP32 bias (bias lives in the output stage,
 *      after the AD comparators, as in the Fig. 8(b) circuit).
 *
 * Calibration: a clean pass with ctx.calibrating=true records activation
 * and output absmax into the layer's QuantGemmState; freeze() then derives
 * quantization scales and the AD bound. Re-running calibration after weight
 * rotation tightens the bound (the AD x WR synergy of Sec. 6.6).
 */

#include <string>

#include "hw/compute_context.hpp"
#include "tensor/tensor.hpp"

namespace create {

/** Per-layer quantization + anomaly-detection state. */
struct QuantGemmState
{
    AbsMaxObserver inObs;   //!< calibration: activation absmax
    AbsMaxObserver outObs;  //!< calibration: clean output absmax

    QuantParams inQ;        //!< frozen activation scale
    QuantParams wQ;         //!< frozen weight scale
    float outBound = 0.0f;  //!< AD valid |y| bound (0 = unknown -> no clamp)
    /** Quantized weights, row-major KxN: kept only for IntGemmSinks,
     *  whose contract hands them row-major weights. */
    std::vector<std::int8_t> wq;
    /** wq in the kernels' packed K-pair layout (simd::packWeights): what
     *  every frozen call multiplies. Read-only once frozen, so threads
     *  share it like wq. */
    std::vector<std::int8_t> wPacked;
    std::vector<float> biasEff;  //!< cached bias with channel scale folded in
    bool hasBias = false;
    bool frozen = false;

    /**
     * Derive scales from observers (or the weight itself) and cache the
     * deployed weight/bias: wq is quantized from w with the optional
     * per-output-channel scale folded in and packed once into wPacked,
     * biasEff is bias * outScale.
     */
    void freeze(const Tensor& w, const Tensor* bias, const Tensor* outScale,
                QuantBits bits);

    /** freeze() for a plain (unscaled, bias-free) weight. */
    void freeze(const Tensor& w, QuantBits bits)
    {
        freeze(w, nullptr, nullptr, bits);
    }

    /** Drop frozen state (weights changed, e.g. after rotation). */
    void invalidate();
};

/**
 * y(MxN) = x(MxK) @ w(KxN) + bias through the quantized faulty pipeline.
 *
 * In calibration mode computes the exact FP32 product and records stats.
 * `tag` identifies the component for targeted injection and bookkeeping.
 * `outScale` is an optional fixed per-output-channel scale (planted LLM
 * outliers); it is folded into the deployed weight and bias at freeze
 * time, so steady-state calls never materialize the scaled weight.
 *
 * Steady-state (frozen) calls are allocation-free apart from the returned
 * tensor: activations quantize into and accumulators live in the
 * context's GemmWorkspace, the clean product is only copied when a
 * protection scheme needs independent re-executions, and dequantization,
 * bias add, and the channel scale happen in one fused output pass.
 */
Tensor faultyLinear(const Tensor& x, const Tensor& w, const Tensor* bias,
                    QuantGemmState& st, ComputeContext& ctx,
                    const std::string& tag, const Tensor* outScale = nullptr);

/**
 * Integer GEMM helper: acc(MxN) += xq(MxK) @ wq(KxN), int32 accumulators,
 * over a row-major weight. It packs wq into a per-thread buffer on every
 * call and then runs the dispatched kernel, so it is for tests,
 * microbenchmarks and IntGemmSinks; faultyLinear multiplies the packed
 * copy frozen in QuantGemmState instead.
 */
void intGemm(const std::int8_t* xq, std::int64_t m, std::int64_t k,
             const std::int8_t* wq, std::int64_t n, std::int32_t* acc);

} // namespace create
