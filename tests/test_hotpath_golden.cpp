/** @file
 *  Golden bit-identity suite for the optimized inference hot path.
 *
 *  The optimized pipeline (runtime-dispatched SIMD intGemm/quantize and
 *  FP32 matmul/attention, workspace-backed faultyLinear with fused
 *  dequant+bias+channel-scale, row-blocked norms) must produce the exact
 *  bit pattern of the naive reference kernels kept in this file: i-k-j
 *  integer GEMM, i-k-j FP32 matmul with the zero skip, scalar nearbyint
 *  quantization, the two-pass dequantize-then-broadcast-bias epilogue,
 *  the per-element .at() score/context attention loops, and the per-row
 *  norm loops.
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
 *  suite on hosts whose startup pick is wider. A frozen faultyLinear
 *  call must also allocate nothing but its result once warm, which the
 *  counting global operator new of alloc_counter.hpp checks.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/create_system.hpp"
#include "core/plan_system.hpp"
#include "core/platform_registry.hpp"
#include "fault/injector.hpp"
#include "hw/faulty_gemm.hpp"
#include "hw/kernel_dispatch.hpp"
#include "tensor/ops.hpp"

#include "alloc_counter.hpp"

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

/** Naive i-k-j FP32 matmul: c += a @ b, skipping every zero a entry. */
void
refMatmulF32(const float* a, std::int64_t m, std::int64_t k, const float* b,
             std::int64_t n, float* c)
{
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float av = a[i * k + kk];
            if (av == 0.0f)
                continue;
            for (std::int64_t j = 0; j < n; ++j)
                c[i * n + j] += av * b[kk * n + j];
        }
}

/** Naive per-element attention core over (t x dim) q, k, v. */
Tensor
refAttentionCore(const Tensor& q, const Tensor& k, const Tensor& v, int heads)
{
    const std::int64_t t = q.dim(0);
    const std::int64_t dim = q.dim(1);
    const std::int64_t headDim = dim / heads;
    const float invSqrt = 1.0f / std::sqrt(static_cast<float>(headDim));
    Tensor ctxOut({t, dim});
    for (std::int64_t h = 0; h < heads; ++h) {
        const std::int64_t c0 = h * headDim;
        Tensor scores({t, t});
        for (std::int64_t i = 0; i < t; ++i) {
            for (std::int64_t j = 0; j < t; ++j) {
                float s = 0.0f;
                for (std::int64_t d = 0; d < headDim; ++d)
                    s += q.at(i, c0 + d) * k.at(j, c0 + d);
                scores.at(i, j) = s * invSqrt;
            }
        }
        const Tensor attnW = ops::softmaxRows(scores);
        for (std::int64_t i = 0; i < t; ++i) {
            for (std::int64_t d = 0; d < headDim; ++d) {
                float s = 0.0f;
                for (std::int64_t j = 0; j < t; ++j)
                    s += attnW.at(i, j) * v.at(j, c0 + d);
                ctxOut.at(i, c0 + d) = s;
            }
        }
    }
    return ctxOut;
}

/** The per-row RMSNorm loop (one row's reduction at a time). */
Tensor
refRmsNorm(const Tensor& x, const Tensor& g)
{
    const std::int64_t m = x.dim(0), d = x.dim(1);
    Tensor out({m, d});
    for (std::int64_t i = 0; i < m; ++i) {
        double s = 0.0;
        for (std::int64_t j = 0; j < d; ++j)
            s += static_cast<double>(x.at(i, j)) * x.at(i, j);
        const float r = 1.0f /
            std::sqrt(static_cast<float>(s / static_cast<double>(d)) + 1e-5f);
        for (std::int64_t j = 0; j < d; ++j)
            out.at(i, j) = x.at(i, j) * r * g[j];
    }
    return out;
}

/** The per-row LayerNorm loop (one row's reductions at a time). */
Tensor
refLayerNorm(const Tensor& x, const Tensor& g, const Tensor& b)
{
    const std::int64_t m = x.dim(0), d = x.dim(1);
    Tensor out({m, d});
    for (std::int64_t i = 0; i < m; ++i) {
        double s = 0.0;
        for (std::int64_t j = 0; j < d; ++j)
            s += x.at(i, j);
        const float mu = static_cast<float>(s / static_cast<double>(d));
        double v = 0.0;
        for (std::int64_t j = 0; j < d; ++j) {
            const double dd = x.at(i, j) - mu;
            v += dd * dd;
        }
        const float iv = 1.0f /
            std::sqrt(static_cast<float>(v / static_cast<double>(d)) + 1e-5f);
        for (std::int64_t j = 0; j < d; ++j)
            out.at(i, j) = (x.at(i, j) - mu) * iv * g[j] + b[j];
    }
    return out;
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
    const Tensor ctxOut = refAttentionCore(q, k, v, attn.heads());
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
    // Every shape the models run and every block boundary of every tier:
    // row counts on and off the 8-, 4-, 3-, 2- and 1-row blocks, odd K
    // (the zero-padded last pair) and K within one SIMD widening step, and
    // N off the 4/8/16/32-column tiles and the 16-column packed panels.
    // create::intGemm packs the row-major weight and runs the tier's
    // kernel on it; the reference reads the row-major weight directly.
    struct Case
    {
        int m, k, n;
        std::vector<std::int8_t> x, w;
        std::vector<std::int32_t> ref;
    };
    std::vector<Case> cases;
    Rng rng(9);
    for (const int m : {1, 2, 3, 5, 7, 8, 9, 13, 576})
        for (const int k : {1, 2, 14, 27, 31, 144, 288})
            for (const int n : {1, 9, 15, 16, 17, 26, 33, 48, 144}) {
                Case c{m, k, n, {}, {}, {}};
                c.x.resize(static_cast<std::size_t>(m * k));
                c.w.resize(static_cast<std::size_t>(k * n));
                for (auto& v : c.x)
                    v = static_cast<std::int8_t>(rng.rangeInclusive(-127, 127));
                for (auto& v : c.w)
                    v = static_cast<std::int8_t>(rng.rangeInclusive(-127, 127));
                for (std::size_t i = 0; i < c.x.size(); i += 3)
                    c.x[i] = 0; // quantized activations are often zero
                c.ref.assign(static_cast<std::size_t>(m * n), 7);
                refIntGemm(c.x.data(), m, k, c.w.data(), n, c.ref.data());
                cases.push_back(std::move(c));
            }
    forEachSupportedIsa([&] {
        for (const Case& c : cases) {
            // Same nonzero starting accumulators as the reference.
            std::vector<std::int32_t> opt(c.ref.size(), 7);
            intGemm(c.x.data(), c.m, c.k, c.w.data(), c.n, opt.data());
            EXPECT_EQ(opt, c.ref) << "m=" << c.m << " k=" << c.k
                                  << " n=" << c.n;
        }
    });
}

TEST(HotPathGolden, MatmulF32MatchesNaiveOnRaggedShapes)
{
    // The calibration shapes the platforms run (projections over 3 and 14
    // tokens, the VS predictor's convs over 576 and 144 im2col rows, a
    // 1-row head), then a ragged grid: m on and off the 8-, 4-, 3-, 2-
    // and 1-row blocks, n on and off every tier's vector width and
    // column tile, k from 1. A holds 0.0 and -0.0 entries, and whole A
    // columns are zero where B's row holds +-inf or NaN: the zero skip
    // must keep those out of C. C starts at -0.0 (a zero row of A must
    // leave it so) or at nonzero values, since the kernel accumulates.
    struct Shape
    {
        int m, k, n;
    };
    std::vector<Shape> shapes = {{3, 48, 48},    {14, 64, 192},
                                 {576, 27, 16},  {144, 144, 32},
                                 {36, 288, 64},  {1, 128, 128}};
    for (const int m : {1, 2, 3, 4, 5, 7, 8, 9, 13})
        for (const int k : {1, 2, 5, 17, 33})
            for (const int n : {1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31,
                                32, 33, 48, 49, 63, 64, 65, 80})
                shapes.push_back({m, k, n});
    struct Case
    {
        Shape s;
        bool negZeroC;
        std::vector<float> a, b, c0, ref;
    };
    const float poison[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
    std::vector<Case> cases;
    Rng rng(23);
    for (const Shape& sh : shapes)
        for (const bool negZeroC : {true, false}) {
            const std::int64_t m = sh.m, k = sh.k, n = sh.n;
            Case c{sh, negZeroC, {}, {}, {}, {}};
            c.a.resize(static_cast<std::size_t>(m * k));
            c.b.resize(static_cast<std::size_t>(k * n));
            c.c0.resize(static_cast<std::size_t>(m * n));
            for (std::size_t i = 0; i < c.a.size(); ++i)
                c.a[i] = i % 5 == 0   ? 0.0f
                         : i % 7 == 0 ? -0.0f
                                      : static_cast<float>(rng.normal());
            for (auto& x : c.b)
                x = static_cast<float>(rng.normal());
            for (auto& x : c.c0)
                x = negZeroC ? -0.0f : static_cast<float>(rng.normal());
            for (std::int64_t kk = 1; kk < k; kk += 4) { // poisoned B rows
                for (std::int64_t i = 0; i < m; ++i)
                    c.a[static_cast<std::size_t>(i * k + kk)] =
                        i % 2 ? -0.0f : 0.0f;
                for (std::int64_t j = 0; j < n; ++j)
                    c.b[static_cast<std::size_t>(kk * n + j)] =
                        poison[(kk + j) % 3];
            }
            if (m > 1) // an all-zero A row
                for (std::int64_t kk = 0; kk < k; ++kk)
                    c.a[static_cast<std::size_t>((m - 1) * k + kk)] =
                        kk % 2 ? -0.0f : 0.0f;
            c.ref = c.c0;
            refMatmulF32(c.a.data(), m, k, c.b.data(), n, c.ref.data());
            cases.push_back(std::move(c));
        }
    forEachSupportedIsa([&] {
        for (const Case& c : cases) {
            std::vector<float> opt = c.c0;
            simd::active().matmulF32(c.a.data(), c.s.m, c.s.k, c.b.data(),
                                     c.s.n, opt.data());
            EXPECT_EQ(0, std::memcmp(opt.data(), c.ref.data(),
                                     opt.size() * sizeof(float)))
                << "m=" << c.s.m << " k=" << c.s.k << " n=" << c.s.n
                << " c0=" << (c.negZeroC ? "-0" : "nonzero");
        }
        // ops::matmul / matmulAccum are this entry behind a shape check.
        const Tensor a = randomInput(3, 48, 24, 1.0f);
        const Tensor b = randomInput(48, 48, 25, 1.0f);
        Tensor ref({3, 48});
        refMatmulF32(a.data(), 3, 48, b.data(), 48, ref.data());
        expectBitIdentical(ops::matmul(a, b), ref, "ops::matmul");
    });
}

TEST(HotPathGolden, AttentionCoreMatchesNaiveLoops)
{
    // The table's attention core against the per-element loops, at the
    // models' token counts (3, 14) and across every tile boundary (t
    // within and past one 4/8/16-lane vector and 8-row block), head dims
    // 12 and 16. Repeated key rows tie scores at the row max; zero and
    // -0.0 query rows make every score of their row 0. The output starts
    // as NaN, so every element must be written; a warm call allocates
    // nothing.
    struct Case
    {
        std::int64_t t, hd;
        Tensor q, k, v, ref;
    };
    constexpr int kHeads = 4;
    std::vector<Case> cases;
    std::uint64_t seed = 40;
    for (const std::int64_t t : {1, 2, 3, 7, 14, 16, 17, 33})
        for (const std::int64_t hd : {12, 16}) {
            const std::int64_t dim = kHeads * hd;
            Case c{t, hd, randomInput(t, dim, ++seed, 0.8f),
                   randomInput(t, dim, ++seed, 0.8f),
                   randomInput(t, dim, ++seed, 1.0f), Tensor()};
            for (std::int64_t d = 0; d < dim; ++d) {
                if (t >= 2)
                    c.k.at(t - 1, d) = c.k.at(0, d); // tied scores
                if (t >= 3)
                    c.k.at(1, d) = c.k.at(0, d);
                if (t >= 4) {
                    c.q.at(1, d) = 0.0f; // zero scores
                    c.q.at(2, d) = -0.0f;
                }
            }
            c.ref = refAttentionCore(c.q, c.k, c.v, kHeads);
            cases.push_back(std::move(c));
        }
    forEachSupportedIsa([&] {
        for (const Case& c : cases) {
            const std::string what = "t=" + std::to_string(c.t) +
                                     " hd=" + std::to_string(c.hd);
            simd::AttentionScratch scratch;
            Tensor out = Tensor::full(
                {c.t, kHeads * c.hd}, std::numeric_limits<float>::quiet_NaN());
            simd::active().attention(c.q.data(), c.k.data(), c.v.data(), c.t,
                                     kHeads * c.hd, kHeads, out.data(),
                                     scratch);
            expectBitIdentical(out, c.ref, what);
            const std::uint64_t start = tAllocations;
            simd::active().attention(c.q.data(), c.k.data(), c.v.data(), c.t,
                                     kHeads * c.hd, kHeads, out.data(),
                                     scratch);
            EXPECT_EQ(tAllocations - start, 0u) << what;
            expectBitIdentical(out, c.ref, what + " (warm)");
        }
    });
}

TEST(HotPathGolden, NormsMatchPerRowLoops)
{
    // LayerNorm and RMSNorm reduce up to 4 rows side by side; each row
    // must still equal the one-row-at-a-time loops, at every row count
    // around the 4-row block and both model widths.
    std::uint64_t seed = 60;
    for (const std::int64_t m : {1, 2, 3, 4, 5, 7, 14, 15})
        for (const std::int64_t d : {48, 64}) {
            const std::string what =
                "m=" + std::to_string(m) + " d=" + std::to_string(d);
            Tensor x = randomInput(m, d, ++seed, 1.5f);
            for (std::int64_t i = 0; i < x.numel(); ++i)
                x[i] += 0.25f; // a nonzero mean
            nn::LayerNorm ln("golden.ln", static_cast<int>(d));
            nn::RMSNorm rms("golden.rms", static_cast<int>(d));
            ln.gain() = randomInput(1, d, ++seed, 0.5f).reshaped({d});
            ln.bias() = randomInput(1, d, ++seed, 0.5f).reshaped({d});
            rms.gain() = randomInput(1, d, ++seed, 0.5f).reshaped({d});
            expectBitIdentical(ln.infer(x),
                               refLayerNorm(x, ln.gain(), ln.bias()),
                               "layernorm " + what);
            expectBitIdentical(rms.infer(x), refRmsNorm(x, rms.gain()),
                               "rmsnorm " + what);
        }
}

TEST(HotPathGolden, RefreezeRepacksTheWeight)
{
    // invalidate() drops the packed copy, and the next frozen call packs
    // the weight it freezes: after a Hadamard weight rotation, and again
    // when the datapath switches from Int8 to Int4. Every frozen state
    // matches the reference freeze and the naive pipeline.
    const Tensor x = randomInput(5, 32, 6, 1.0f);
    forEachSupportedIsa([&] {
        Rng rng(31);
        nn::Linear lin("golden.refreeze", 32, 26, /*withBias=*/true, rng);
        const QuantGemmState& st = lin.quantState();
        const auto calibrate = [&] {
            ComputeContext c(1);
            c.calibrating = true;
            lin.infer(randomInput(8, 32, 5, 1.0f), c);
        };
        const auto check = [&](QuantBits bits, const std::string& what) {
            goldenCheckLinear(lin, x, bits, Protection::None,
                              /*inject=*/false, what);
            ASSERT_TRUE(st.frozen) << what;
            EXPECT_EQ(st.wQ.bits, bits) << what;
            EXPECT_EQ(st.wq, refFreeze(lin, bits).wq) << what;
            std::vector<std::int8_t> packed;
            simd::packWeights(st.wq.data(), 32, 26, packed);
            EXPECT_EQ(st.wPacked, packed) << what;
        };
        calibrate();
        check(QuantBits::Int8, "first freeze");
        const std::vector<std::int8_t> before = st.wPacked;

        lin.invalidateQuant();
        EXPECT_FALSE(st.frozen);
        EXPECT_TRUE(st.wPacked.empty());

        lin.setWeight(ops::matmul(ops::hadamard(32), lin.weight()));
        calibrate();
        check(QuantBits::Int8, "after rotation");
        EXPECT_NE(st.wPacked, before);

        check(QuantBits::Int4, "after the Int8 -> Int4 switch");
    });
}

TEST(HotPathGolden, FrozenFaultyLinearAllocatesNothingAfterWarmUp)
{
    // Once a thread and a context are warm -- the layer frozen, the
    // workspace and the thread's activation-pair scratch grown -- a
    // faultyLinear call allocates its result tensor and nothing else,
    // injection on or off, on every tier.
    Rng rng(17);
    nn::Linear lin("golden.alloc", 48, 144, /*withBias=*/true, rng);
    ComputeContext calib(1);
    calib.calibrating = true;
    lin.infer(randomInput(8, 48, 18, 1.0f), calib);
    const Tensor x = randomInput(3, 48, 19, 1.0f);
    std::uint64_t start = tAllocations;
    { const Tensor result({3, 144}); }
    const std::uint64_t resultAllocs = tAllocations - start;
    forEachSupportedIsa([&] {
        for (const Protection prot : {Protection::None, Protection::Dmr})
            for (const bool inject : {false, true}) {
                ComputeContext ctx =
                    makeCtx(20, QuantBits::Int8, prot, inject);
                lin.infer(x, ctx); // warm-up
                start = tAllocations;
                const Tensor y = lin.infer(x, ctx);
                EXPECT_EQ(tAllocations - start, resultAllocs)
                    << "prot=" << static_cast<int>(prot)
                    << " inject=" << inject;
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
