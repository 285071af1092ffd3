/** @file
 *  Golden bit-identity suite for the optimized inference hot path.
 *
 *  The optimized pipeline (runtime-dispatched SIMD intGemm/quantize,
 *  workspace-backed faultyLinear with fused dequant+bias+channel-scale,
 *  slab-packed attention) must produce the exact bit pattern of the naive
 *  reference kernels kept in this file: i-k-j integer GEMM, scalar
 *  nearbyint quantization, the two-pass dequantize-then-broadcast-bias
 *  epilogue, and the per-element .at() score/context attention loops.
 *  Coverage spans every registry platform's real (calibrated,
 *  outlier-laden) planner and controller layers, both quant widths, and
 *  every Protection mode with injection both off and on (reference
 *  contexts are seeded identically so RNG draws align).
 *
 *  Every check runs once per kernel tier the host can dispatch
 *  (scalar/SSE2/AVX2/AVX-512 VNNI, see hw/kernel_dispatch.hpp): the
 *  golden contract is a property of the *dispatch table*, not of
 *  whichever tier happens to be best on the build machine. CI adds a
 *  CREATE_FORCE_ISA=sse2 leg so the reference tier also runs the full
 *  suite on hosts whose startup pick is wider.
 */

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/create_system.hpp"
#include "core/manip_system.hpp"
#include "core/nav_system.hpp"
#include "core/platform_registry.hpp"
#include "fault/injector.hpp"
#include "hw/faulty_gemm.hpp"
#include "hw/kernel_dispatch.hpp"
#include "tensor/ops.hpp"

using namespace create;

namespace {

/**
 * Run `check` once per kernel tier this host supports, selecting each via
 * the dispatcher and restoring the prior selection afterward (also on
 * assertion failure -- gtest fatal failures only abort the enclosing
 * function when used directly in a TEST body, so the restore runs).
 */
template <typename Fn>
void
forEachSupportedIsa(Fn&& check)
{
    struct Restore
    {
        simd::Isa prior = simd::activeIsa();
        ~Restore() { simd::setActive(prior); }
    } restore;
    for (const simd::Isa isa : simd::supported()) {
        ASSERT_TRUE(simd::setActive(isa)) << simd::isaName(isa);
        SCOPED_TRACE(std::string("isa=") + simd::isaName(isa));
        check();
    }
}

// --- naive reference kernels (deliberately unoptimized) --------------------

/** Scalar nearbyint quantization (the original quantize() loop). */
std::vector<std::int8_t>
refQuantize(const Tensor& t, const QuantParams& qp)
{
    const int lim = quantMaxLevel(qp.bits);
    std::vector<std::int8_t> q(static_cast<std::size_t>(t.numel()));
    const float inv = 1.0f / qp.scale;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        float v = t[i] * inv;
        v = std::nearbyint(v);
        if (v > static_cast<float>(lim))
            v = static_cast<float>(lim);
        if (v < static_cast<float>(-lim))
            v = static_cast<float>(-lim);
        q[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(v);
    }
    return q;
}

/** Naive i-k-j integer GEMM. */
void
refIntGemm(const std::int8_t* xq, std::int64_t m, std::int64_t k,
           const std::int8_t* wq, std::int64_t n, std::int32_t* acc)
{
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t kk = 0; kk < k; ++kk)
            for (std::int64_t j = 0; j < n; ++j)
                acc[i * n + j] += static_cast<std::int32_t>(xq[i * k + kk]) *
                                  static_cast<std::int32_t>(wq[kk * n + j]);
}

/** Reference frozen state derived independently from a layer's observers. */
struct RefFrozen
{
    QuantParams inQ, wQ;
    float outBound = 0.0f;
    std::vector<std::int8_t> wq;
    Tensor biasEff; //!< empty when the layer has no bias
};

RefFrozen
refFreeze(nn::Linear& lin, QuantBits bits)
{
    RefFrozen f;
    const QuantGemmState& st = lin.quantState();
    const float inMax = st.inObs.seeded() ? st.inObs.absMax() : 8.0f;
    f.inQ = QuantParams::fromAbsMax(inMax, bits);
    const Tensor weff = lin.effectiveWeight();
    f.wQ = QuantParams::fromAbsMax(weff.absMax(), bits);
    f.wq = refQuantize(weff, f.wQ);
    f.outBound = st.outObs.seeded() ? st.outObs.absMax() * 1.05f : 0.0f;
    if (const Tensor* b = lin.biasTensor()) {
        f.biasEff = *b;
        if (lin.hasOutChannelScale())
            for (std::int64_t j = 0; j < f.biasEff.numel(); ++j)
                f.biasEff[j] *= lin.outChannelScale()[j];
    }
    return f;
}

/**
 * Reference faultyLinear: naive kernels, the original copy-per-execution
 * protection switch, and the original two-pass dequant + broadcast-bias
 * epilogue. Draws from `ctx.rng` in the same order as the optimized path.
 */
Tensor
refLinear(const Tensor& x, nn::Linear& lin, const RefFrozen& f,
          ComputeContext& ctx)
{
    const std::int64_t m = x.dim(0), k = x.dim(1);
    const std::int64_t n = lin.weight().dim(1);
    const std::vector<std::int8_t> xq = refQuantize(x, f.inQ);
    std::vector<std::int32_t> cleanAcc(static_cast<std::size_t>(m * n), 0);
    refIntGemm(xq.data(), m, k, f.wq.data(), n, cleanAcc.data());

    const bool inject = ctx.mode() != InjectionMode::None &&
                        ctx.injectionEnabledFor(lin.name());
    auto runOnce = [&](std::vector<std::size_t>* positions) {
        std::vector<std::int32_t> acc = cleanAcc;
        if (inject)
            BitFlipInjector::inject(acc.data(), acc.size(),
                                    ctx.activeBitRates(), ctx.rng, positions);
        return acc;
    };

    std::vector<std::int32_t> acc;
    switch (ctx.protection) {
      case Protection::None:
        acc = runOnce(nullptr);
        break;
      case Protection::Dmr: {
        acc = runOnce(nullptr);
        const auto second = runOnce(nullptr);
        if (acc != second) {
            const auto third = runOnce(nullptr);
            for (std::size_t i = 0; i < acc.size(); ++i)
                if (acc[i] != second[i])
                    acc[i] = (second[i] == third[i]) ? second[i] : third[i];
        }
        break;
      }
      case Protection::ThunderVolt: {
        std::vector<std::size_t> positions;
        acc = runOnce(&positions);
        for (auto idx : positions)
            acc[idx] = 0;
        break;
      }
      case Protection::Abft: {
        for (int attempt = 0; attempt < 5; ++attempt) {
            std::vector<std::size_t> positions;
            acc = runOnce(&positions);
            if (positions.empty())
                break;
        }
        break;
      }
    }

    const float deqScale = f.inQ.scale * f.wQ.scale;
    if (ctx.anomalyDetection && f.outBound > 0.0f) {
        const double boundAcc = static_cast<double>(f.outBound) / deqScale;
        const auto lim =
            static_cast<std::int64_t>(std::min(boundAcc, 8388607.0));
        for (auto& a : acc)
            if (a > lim || a < -lim)
                a = 0;
    }

    Tensor y({m, n});
    for (std::int64_t i = 0; i < m * n; ++i)
        y[i] = static_cast<float>(acc[static_cast<std::size_t>(i)]) * deqScale;
    if (f.biasEff.numel() > 0)
        y = ops::addRowBroadcast(y, f.biasEff);
    return y;
}

void
expectBitIdentical(const Tensor& a, const Tensor& b, const std::string& what)
{
    ASSERT_EQ(a.numel(), b.numel()) << what;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<std::size_t>(a.numel()) *
                                 sizeof(float)))
        << what;
}

/** Deployment-style context: AD on, optional uniform injection. */
ComputeContext
makeCtx(std::uint64_t seed, QuantBits bits, Protection prot, bool inject)
{
    ComputeContext ctx(seed);
    ctx.bits = bits;
    ctx.protection = prot;
    ctx.anomalyDetection = true;
    if (inject)
        ctx.setUniformBer(2e-3);
    return ctx;
}

/** IntGemmSink that honors the sink contract by forwarding to intGemm. */
struct ForwardingSink : IntGemmSink
{
    int calls = 0;

    void gemm(const std::int8_t* xq, std::int64_t m, std::int64_t k,
              const std::int8_t* wq, std::int64_t n,
              std::int32_t* acc) override
    {
        ++calls;
        intGemm(xq, m, k, wq, n, acc);
    }
};

/**
 * Optimized vs reference over one real Linear layer; with `sink`, the
 * optimized context routes its integer GEMM through it.
 */
void
goldenCheckLinear(nn::Linear& lin, const Tensor& x, QuantBits bits,
                  Protection prot, bool inject, const std::string& what,
                  IntGemmSink* sink = nullptr)
{
    ComputeContext opt = makeCtx(1234, bits, prot, inject);
    ComputeContext ref = makeCtx(1234, bits, prot, inject);
    opt.gemmSink = sink;
    const Tensor yo = lin.infer(x, opt);
    const RefFrozen f = refFreeze(lin, bits);
    const Tensor yr = refLinear(x, lin, f, ref);
    expectBitIdentical(yo, yr, what);
}

/** Optimized attention vs the original per-element .at() triple loops. */
void
goldenCheckAttention(nn::MultiHeadAttention& attn, const Tensor& x,
                     QuantBits bits, bool inject, const std::string& what)
{
    ComputeContext opt = makeCtx(77, bits, Protection::None, inject);
    ComputeContext ref = makeCtx(77, bits, Protection::None, inject);
    const Tensor yo = attn.infer(x, opt);

    // Reference: projections through the same layers (RNG draw order
    // q, k, v, o matches the optimized path), naive score/context math.
    const Tensor q = attn.q().infer(x, ref);
    const Tensor k = attn.k().infer(x, ref);
    const Tensor v = attn.v().infer(x, ref);
    const std::int64_t t = x.dim(0);
    const int dim = attn.dim();
    const int heads = attn.heads();
    const int headDim = dim / heads;
    const float invSqrt = 1.0f / std::sqrt(static_cast<float>(headDim));
    Tensor ctxOut({t, dim});
    for (int h = 0; h < heads; ++h) {
        const std::int64_t c0 = static_cast<std::int64_t>(h) * headDim;
        Tensor scores({t, t});
        for (std::int64_t i = 0; i < t; ++i) {
            for (std::int64_t j = 0; j < t; ++j) {
                float s = 0.0f;
                for (int d = 0; d < headDim; ++d)
                    s += q.at(i, c0 + d) * k.at(j, c0 + d);
                scores.at(i, j) = s * invSqrt;
            }
        }
        const Tensor attnW = ops::softmaxRows(scores);
        for (std::int64_t i = 0; i < t; ++i) {
            for (int d = 0; d < headDim; ++d) {
                float s = 0.0f;
                for (std::int64_t j = 0; j < t; ++j)
                    s += attnW.at(i, j) * v.at(j, c0 + d);
                ctxOut.at(i, c0 + d) = s;
            }
        }
    }
    const Tensor yr = attn.o().infer(ctxOut, ref);
    expectBitIdentical(yo, yr, what);
}

Tensor
randomInput(std::int64_t rows, std::int64_t cols, std::uint64_t seed,
            float scale)
{
    Rng rng(seed);
    Tensor x({rows, cols});
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.normal()) * scale;
    return x;
}

/** The planner of a registry-built system (all three backend families). */
PlannerModel&
plannerOf(EmbodiedSystem& sys)
{
    if (auto* m = dynamic_cast<MineSystem*>(&sys))
        return m->planner(false);
    if (auto* m = dynamic_cast<ManipSystem*>(&sys))
        return m->planner(false);
    if (auto* m = dynamic_cast<NavSystem*>(&sys))
        return m->planner(false);
    throw std::runtime_error("unknown system type");
}

ControllerModel&
controllerOf(EmbodiedSystem& sys)
{
    if (auto* m = dynamic_cast<MineSystem*>(&sys))
        return m->controller();
    if (auto* m = dynamic_cast<ManipSystem*>(&sys))
        return m->controller();
    if (auto* m = dynamic_cast<NavSystem*>(&sys))
        return m->controller();
    throw std::runtime_error("unknown system type");
}

constexpr QuantBits kWidths[] = {QuantBits::Int8, QuantBits::Int4};
constexpr Protection kProtections[] = {Protection::None, Protection::Dmr,
                                       Protection::ThunderVolt,
                                       Protection::Abft};

} // namespace

TEST(HotPathGolden, IntGemmMatchesNaiveOnRaggedShapes)
{
    // Odd K (SIMD pair tail), non-multiple-of-8/16/32 N (column tails of
    // every tier), row counts off the 4-row register blocks, and aligned
    // shapes all reduce to the same accumulators.
    forEachSupportedIsa([] {
        Rng rng(9);
        for (const auto [m, k, n] :
             {std::tuple<int, int, int>{3, 33, 13}, {4, 64, 32}, {1, 7, 9},
              {5, 2, 8}, {2, 1, 1}, {9, 65, 63}, {12, 64, 26}, {16, 64, 64},
              {6, 31, 40}, {14, 64, 192}}) {
            std::vector<std::int8_t> x(static_cast<std::size_t>(m * k));
            std::vector<std::int8_t> w(static_cast<std::size_t>(k * n));
            for (auto& v : x)
                v = static_cast<std::int8_t>(rng.rangeInclusive(-127, 127));
            for (auto& v : w)
                v = static_cast<std::int8_t>(rng.rangeInclusive(-127, 127));
            // Sprinkle zeros to exercise the zero-skip branch.
            for (std::size_t i = 0; i < x.size(); i += 3)
                x[i] = 0;
            std::vector<std::int32_t> opt(static_cast<std::size_t>(m * n), 7);
            std::vector<std::int32_t> ref = opt; // same nonzero starting acc
            intGemm(x.data(), m, k, w.data(), n, opt.data());
            refIntGemm(x.data(), m, k, w.data(), n, ref.data());
            EXPECT_EQ(opt, ref) << "m=" << m << " k=" << k << " n=" << n;
        }
    });
}

TEST(HotPathGolden, QuantizeMatchesScalarNearbyint)
{
    // Saturating values, exact halves (round-to-nearest-even), negatives,
    // and a non-multiple-of-4 tail.
    forEachSupportedIsa([] {
        Tensor t({1, 11});
        const float vals[11] = {0.4999f, 0.5f,   1.5f,  2.5f,    -2.5f, -0.5f,
                                1000.0f, -1000.0f, 0.0f, 126.9f, -3.49f};
        for (int i = 0; i < 11; ++i)
            t[i] = vals[i];
        for (QuantBits bits : kWidths) {
            const QuantParams qp = QuantParams::fromAbsMax(4.0f, bits);
            std::vector<std::int8_t> opt;
            quantizeInto(t, qp, opt);
            EXPECT_EQ(opt, refQuantize(t, qp)) << (bits == QuantBits::Int8);
        }
        // Random sweep (length off the 8/16-lane boundaries).
        const Tensor r = randomInput(37, 19, 21, 3.0f);
        const QuantParams qp =
            QuantParams::fromAbsMax(r.absMax(), QuantBits::Int8);
        std::vector<std::int8_t> opt;
        quantizeInto(r, qp, opt);
        EXPECT_EQ(opt, refQuantize(r, qp));
    });
}

TEST(HotPathGolden, SyntheticLinearEveryProtectionAndWidth)
{
    // A standalone layer with bias and a planted channel scale, calibrated
    // here, swept over every (width, protection, injection) combination,
    // with the GEMM dispatched directly and through a forwarding sink.
    Rng rng(4242);
    nn::Linear lin("golden.fc", 33, 13, /*withBias=*/true, rng);
    Tensor scale = Tensor::full({13}, 1.0f);
    scale[3] = 9.0f; // outlier channel
    lin.setOutChannelScale(scale);
    Tensor& bias = *lin.biasTensor();
    for (std::int64_t j = 0; j < bias.numel(); ++j)
        bias[j] = static_cast<float>(rng.normal()) * 0.1f;

    const Tensor calib = randomInput(8, 33, 5, 1.0f);
    ComputeContext calibCtx(1);
    calibCtx.calibrating = true;
    lin.infer(calib, calibCtx);

    const Tensor x = randomInput(5, 33, 6, 1.0f);
    ForwardingSink sink;
    forEachSupportedIsa([&] {
        for (QuantBits bits : kWidths)
            for (Protection prot : kProtections)
                for (bool inject : {false, true})
                    for (bool viaSink : {false, true})
                        goldenCheckLinear(
                            lin, x, bits, prot, inject,
                            std::string("synthetic bits=") +
                                (bits == QuantBits::Int8 ? "8" : "4") +
                                " prot=" +
                                std::to_string(static_cast<int>(prot)) +
                                " inject=" + (inject ? "1" : "0") +
                                " sink=" + (viaSink ? "1" : "0"),
                            viaSink ? &sink : nullptr);
    });
    EXPECT_GT(sink.calls, 0);
}

TEST(HotPathGolden, RegistryPlatformsRealLayersAndAttention)
{
    // Every registry platform's real calibrated models: the planner head
    // (bias), the block-0 O projection (planted outlier channel scale),
    // and both planner and controller attention blocks, at both widths,
    // across every protection mode.
    for (const auto& info : PlatformRegistry::instance().all()) {
        auto sys = info.factory(/*verbose=*/false);
        PlannerModel& planner = plannerOf(*sys);
        ControllerModel& controller = controllerOf(*sys);
        const int pdim = planner.config().dim;
        const int cdim = controller.config().dim;

        const Tensor px = randomInput(6, pdim, 11, 0.7f);
        const Tensor cx = randomInput(3, cdim, 12, 0.7f);
        forEachSupportedIsa([&] {
            for (QuantBits bits : kWidths) {
                for (Protection prot : kProtections) {
                    goldenCheckLinear(planner.head(), px, bits, prot,
                                      /*inject=*/true, info.name + " head");
                    goldenCheckLinear(planner.block(0).attn().o(), px, bits,
                                      prot, /*inject=*/true,
                                      info.name + " blk0.o");
                }
                goldenCheckAttention(planner.block(0).attn(), px, bits,
                                     /*inject=*/true,
                                     info.name + " planner attn");
                goldenCheckAttention(controller.block(0).attn(), cx, bits,
                                     /*inject=*/false,
                                     info.name + " controller attn");
            }
        });
    }
}

TEST(KernelDispatch, SupportedTiersAndSelection)
{
    const std::vector<simd::Isa> tiers = simd::supported();
    // Scalar is always dispatchable; the startup pick must be one of the
    // supported tiers and the best() tier is the last (widest) entry.
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(simd::Isa::Scalar, tiers.front());
    EXPECT_EQ(simd::best(), tiers.back());
    EXPECT_NE(tiers.end(),
              std::find(tiers.begin(), tiers.end(), simd::activeIsa()));

    const simd::Isa prior = simd::activeIsa();
    for (const simd::Isa isa : tiers) {
        EXPECT_TRUE(simd::setActive(isa)) << simd::isaName(isa);
        EXPECT_EQ(isa, simd::activeIsa());
        EXPECT_EQ(isa, simd::active().isa);
    }
    simd::setActive(prior);
}

TEST(KernelDispatch, ParseAndForceIsa)
{
    simd::Isa isa = simd::Isa::Scalar;
    EXPECT_TRUE(simd::parseIsa("sse2", &isa));
    EXPECT_EQ(simd::Isa::Sse2, isa);
    EXPECT_TRUE(simd::parseIsa("AVX2", &isa)); // case-insensitive
    EXPECT_EQ(simd::Isa::Avx2, isa);
    EXPECT_TRUE(simd::parseIsa("avx512", &isa)); // alias of avx512vnni
    EXPECT_EQ(simd::Isa::Avx512Vnni, isa);
    EXPECT_FALSE(simd::parseIsa("neon", &isa));
    EXPECT_FALSE(simd::parseIsa("", &isa));

    // The CREATE_FORCE_ISA=sse2 contract CI relies on: when the SSE2
    // tier is dispatchable, forcing selects exactly it; an unknown value
    // falls back to the best tier instead of crashing.
    const simd::Isa prior = simd::activeIsa();
    const std::vector<simd::Isa> tiers = simd::supported();
    if (std::find(tiers.begin(), tiers.end(), simd::Isa::Sse2) !=
        tiers.end()) {
        EXPECT_EQ(simd::Isa::Sse2, simd::applyForceIsa("sse2"));
        EXPECT_EQ(simd::Isa::Sse2, simd::activeIsa());
    }
    EXPECT_EQ(simd::best(), simd::applyForceIsa("not-an-isa"));
    simd::setActive(prior);
}

TEST(KernelDispatch, ReportNamesActiveAndSupportedTiers)
{
    const std::string rep = simd::report();
    EXPECT_NE(std::string::npos,
              rep.find(std::string("isa=") +
                       simd::isaName(simd::activeIsa())));
    for (const simd::Isa isa : simd::supported())
        EXPECT_NE(std::string::npos, rep.find(simd::isaName(isa))) << rep;
}
