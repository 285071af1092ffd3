#include "hw/faulty_gemm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/metrics.hpp"
#include "fault/injector.hpp"
#include "hw/kernel_dispatch.hpp"
#include "tensor/ops.hpp"

namespace create {

namespace {

/** w with a per-output-channel scale folded in (freeze/calibration only). */
Tensor
scaledWeight(const Tensor& w, const Tensor& outScale)
{
    Tensor weff = w;
    for (std::int64_t i = 0; i < weff.dim(0); ++i)
        for (std::int64_t j = 0; j < weff.dim(1); ++j)
            weff.at(i, j) *= outScale[j];
    return weff;
}

} // namespace

void
QuantGemmState::freeze(const Tensor& w, const Tensor* bias,
                       const Tensor* outScale, QuantBits bits)
{
    // Activation scale: calibrated absmax when available; a per-call
    // fallback would break the fixed-scale-hardware assumption, so we use
    // a generous default when a layer was never calibrated.
    const float inMax = inObs.seeded() ? inObs.absMax() : 8.0f;
    inQ = QuantParams::fromAbsMax(inMax, bits);
    // The deployed weight carries the structural channel scale (planted
    // LLM outliers); folding it here means steady-state calls never
    // rebuild the scaled FP32 weight.
    if (outScale) {
        const Tensor weff = scaledWeight(w, *outScale);
        wQ = QuantParams::fromAbsMax(weff.absMax(), bits);
        wq = quantize(weff, wQ);
    } else {
        wQ = QuantParams::fromAbsMax(w.absMax(), bits);
        wq = quantize(w, wQ);
    }
    simd::packWeights(wq.data(), w.dim(0), w.dim(1), wPacked);
    hasBias = bias != nullptr;
    biasEff.clear();
    if (bias) {
        biasEff.resize(static_cast<std::size_t>(bias->numel()));
        for (std::int64_t j = 0; j < bias->numel(); ++j)
            biasEff[static_cast<std::size_t>(j)] =
                outScale ? (*bias)[j] * (*outScale)[j] : (*bias)[j];
    }
    // AD bound: calibrated clean-output absmax with a small margin for
    // quantization noise. Unknown (never calibrated) => 0 => AD disabled
    // for this layer.
    outBound = outObs.seeded() ? outObs.absMax() * 1.05f : 0.0f;
    frozen = true;
}

void
QuantGemmState::invalidate()
{
    frozen = false;
    wq.clear();
    wPacked.clear();
    biasEff.clear();
    hasBias = false;
    inObs.reset();
    outObs.reset();
    outBound = 0.0f;
}

void
intGemm(const std::int8_t* xq, std::int64_t m, std::int64_t k,
        const std::int8_t* wq, std::int64_t n, std::int32_t* acc)
{
    // Integer accumulation is exact, so any summation order yields the
    // same accumulators; that freedom is what lets the per-ISA kernels
    // behind the dispatch table pair K iterations and block rows while
    // staying bit-identical to the scalar kernel (which the
    // golden-reference test suite asserts). Kernel variants live in
    // src/hw/kernels_*.cpp; selection is CPUID-driven with a
    // CREATE_FORCE_ISA override (see hw/kernel_dispatch.hpp).
    thread_local std::vector<std::int8_t> packed;
    simd::packWeights(wq, k, n, packed);
    simd::active().intGemm(xq, m, k, packed.data(), n, acc);
}

Tensor
faultyLinear(const Tensor& x, const Tensor& w, const Tensor* bias,
             QuantGemmState& st, ComputeContext& ctx, const std::string& tag,
             const Tensor* outScale)
{
    if (x.rank() != 2 || w.rank() != 2 || x.dim(1) != w.dim(0))
        throw std::invalid_argument("faultyLinear: shape mismatch for " + tag);
    const std::int64_t m = x.dim(0), k = x.dim(1), n = w.dim(1);

    if (ctx.calibrating) {
        // Calibration is a rare clean pass; materializing the scaled
        // weight here keeps the recorded absmax identical to deployment.
        Tensor y = outScale ? ops::matmul(x, scaledWeight(w, *outScale))
                            : ops::matmul(x, w);
        st.inObs.observe(x);
        st.outObs.observe(y);
        if (bias) {
            for (std::int64_t i = 0; i < m; ++i)
                for (std::int64_t j = 0; j < n; ++j)
                    y.at(i, j) +=
                        outScale ? (*bias)[j] * (*outScale)[j] : (*bias)[j];
        }
        return y;
    }

    if (!st.frozen || st.wQ.bits != ctx.bits)
        st.freeze(w, bias, outScale, ctx.bits);

    GemmWorkspace& ws = ctx.ws;
    const std::size_t cnt = static_cast<std::size_t>(m * n);

    // 1. Quantize activations into the reusable workspace buffer.
    quantizeInto(x, st.inQ, ws.xq);

    const double gemmMacs = static_cast<double>(m * n * k);
    const bool inject =
        ctx.mode() != InjectionMode::None && ctx.injectionEnabledFor(tag);

    // Observability only: every counter below reads state the pipeline
    // already computed (or runs an extra O(M*N) compare, dwarfed by the
    // O(M*N*K) GEMM) and never feeds back into a result. `fc` is recorded
    // into the thread-local registry once, at the end of the call.
    const bool metricsOn = MetricsRegistry::enabled();
    LayerFaultCounters fc;
    fc.gemms = 1;

    // 2. Integer GEMM into 24-bit accumulators (int32-backed). The clean
    //    product is only kept separately when injection or a protection
    //    scheme may re-execute with independent error draws; otherwise it
    //    is computed directly in the working buffer and never copied.
    const bool needClean = inject || ctx.protection != Protection::None;
    std::vector<std::int32_t>& gemmDst = needClean ? ws.cleanAcc : ws.acc;
    gemmDst.assign(cnt, 0);
    // A context-carried sink (perfbench's shape recorder) takes the GEMM
    // over the row-major weight when present; both paths honor the same
    // accumulate contract.
    if (ctx.gemmSink)
        ctx.gemmSink->gemm(ws.xq.data(), m, k, st.wq.data(), n,
                           gemmDst.data());
    else
        simd::active().intGemm(ws.xq.data(), m, k, st.wPacked.data(), n,
                               gemmDst.data());
    ctx.meter.addGemm(ctx.domain, gemmMacs, ctx.voltage());

    // One (re-)execution: copy the clean accumulators into dst and draw a
    // fresh set of error positions. Buffers are workspace-owned, so the
    // copy reuses capacity instead of allocating.
    auto runInto = [&](std::vector<std::int32_t>& dst,
                       std::vector<std::size_t>* positions) {
        dst = ws.cleanAcc;
        if (inject) {
            const auto stats = BitFlipInjector::inject(
                dst.data(), dst.size(), ctx.activeBitRates(), ctx.rng,
                positions);
            ctx.meter.addFlips(ctx.domain, stats.flips);
            fc.injected += stats.flips;
        }
    };

    // Corrupted elements in an accumulator buffer vs the kept clean
    // product (valid whenever needClean). Attribution-only extra pass.
    auto corruptCount = [&](const std::vector<std::int32_t>& a) {
        std::size_t c = 0;
        for (std::size_t i = 0; i < cnt; ++i)
            c += a[i] != ws.cleanAcc[i];
        return static_cast<std::uint64_t>(c);
    };
    // Corrupted outputs right after the first faulty execution, before
    // any protection acted -- the baseline "corrected" is measured from.
    std::uint64_t preMismatch = 0;

    // 3. Inject voltage-underscaling bit flips, under the configured
    //    protection scheme (Sec. 6.10 baselines; CREATE uses None + AD).
    std::vector<std::int32_t>& acc = ws.acc;
    switch (ctx.protection) {
      case Protection::None:
        // Without injection, acc already holds the clean product.
        if (inject) {
            runInto(acc, nullptr);
            if (metricsOn)
                preMismatch = corruptCount(acc);
        }
        break;
      case Protection::Dmr: {
        // Duplicate execution and compare; on mismatch a third execution
        // arbitrates per element (2-of-3 vote). Two copies agreeing on a
        // corrupted value requires the same flip twice -- negligible.
        runInto(acc, nullptr);
        if (metricsOn && inject)
            preMismatch = corruptCount(acc);
        runInto(ws.acc2, nullptr);
        ctx.meter.addGemm(ctx.domain, gemmMacs, ctx.voltage()); // the copy
        fc.reExecutions += 1; // the duplicate copy
        if (acc != ws.acc2) {
            runInto(ws.acc3, nullptr);
            ctx.meter.addGemm(ctx.domain, gemmMacs, ctx.voltage());
            fc.reExecutions += 1; // the arbitration run
            for (std::size_t i = 0; i < cnt; ++i) {
                if (acc[i] != ws.acc2[i]) {
                    fc.detected += 1;
                    acc[i] = (ws.acc2[i] == ws.acc3[i]) ? ws.acc2[i]
                                                        : ws.acc3[i];
                }
            }
        }
        break;
      }
      case Protection::ThunderVolt: {
        // Razor-style per-PE violation detection with result bypass: any
        // output whose accumulation saw a timing error is dropped to zero
        // (the "excessive neuron pruning" the paper describes). Bypass
        // circuitry adds a small energy overhead.
        ws.positions.clear();
        runInto(acc, &ws.positions);
        if (metricsOn && inject)
            preMismatch = corruptCount(acc);
        fc.detected += ws.positions.size();
        for (auto idx : ws.positions)
            acc[idx] = 0;
        ctx.meter.addGemm(ctx.domain, gemmMacs * 0.05, ctx.voltage());
        break;
      }
      case Protection::Abft: {
        // Checksum detection (assumed perfect) + whole-GEMM recompute until
        // a clean pass, bounded at 4 retries. Checksum maintenance costs
        // roughly (M+N) x K extra MACs per attempt.
        const double checksumMacs = static_cast<double>((m + n) * k);
        for (int attempt = 0; attempt < 5; ++attempt) {
            ws.positions.clear();
            runInto(acc, &ws.positions);
            if (attempt == 0) {
                if (metricsOn && inject)
                    preMismatch = corruptCount(acc);
            } else {
                fc.reExecutions += 1; // this runInto was a recompute
            }
            ctx.meter.addGemm(ctx.domain, checksumMacs, ctx.voltage());
            if (ws.positions.empty())
                break;
            fc.detected += ws.positions.size();
            // Recompute costs another full GEMM.
            ctx.meter.addGemm(ctx.domain, gemmMacs, ctx.voltage());
        }
        break;
      }
    }

    // 4. Anomaly detection & clearance at the systolic output stage.
    const float deqScale = st.inQ.scale * st.wQ.scale;
    if (ctx.anomalyDetection && st.outBound > 0.0f) {
        const double boundAcc = static_cast<double>(st.outBound) / deqScale;
        const auto lim = static_cast<std::int64_t>(
            std::min(boundAcc, 8388607.0)); // 2^23 - 1 accumulator ceiling
        std::uint64_t cleared = 0;
        for (auto& a : acc) {
            if (a > lim || a < -lim) {
                a = 0;
                ++cleared;
            }
        }
        if (cleared)
            ctx.meter.addAnomalies(ctx.domain, cleared);
        // AD flags are detections whether or not anything was injected
        // (a clamp on a clean run is a false positive, still "detected").
        fc.detected += cleared;
    }

    // Attribution epilogue: what actually left the layer. `escaped` is
    // measured at accumulator precision (dequantization is an injective
    // per-element scale, so accumulator-level equality is output-level
    // equality); `corrected` is the net repair vs the first faulty
    // execution, floored at zero in case a protection scheme corrupted
    // more than it fixed (e.g. ThunderVolt zeroing nonzero outputs).
    if (metricsOn && inject) {
        fc.escaped = corruptCount(acc);
        fc.corrected =
            preMismatch > fc.escaped ? preMismatch - fc.escaped : 0;
    }
    if (metricsOn) {
        MetricsRegistry& reg = MetricsRegistry::tls();
        reg.recordGemm(tag);
        if (fc.any())
            reg.recordFault(tag, fc);
    }

    // 5. Dequantize + FP32 bias (channel scale already folded into both),
    //    fused into a single output pass.
    Tensor y({m, n});
    float* py = y.data();
    const std::int32_t* pa = acc.data();
    if (st.hasBias) {
        const float* pb = st.biasEff.data();
        for (std::int64_t i = 0; i < m; ++i) {
            float* yrow = py + i * n;
            const std::int32_t* arow = pa + i * n;
            for (std::int64_t j = 0; j < n; ++j) {
                const float v = static_cast<float>(arow[j]) * deqScale;
                yrow[j] = v + pb[j];
            }
        }
    } else {
        for (std::int64_t i = 0; i < m * n; ++i)
            py[i] = static_cast<float>(pa[i]) * deqScale;
    }
    return y;
}

} // namespace create
