#include "nn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/row_blocks.hpp"
#include "tensor/ops.hpp"

namespace create::nn {

namespace {

// The norms reduce each row in double precision, one add per element in
// ascending j, which is a serial chain of dependent adds. Normalizing R
// rows together runs R such chains side by side; every row keeps its own
// ascending order, so each is bit-identical to normalizing it alone.

/** RMSNorm of the R rows (width d) at x into out. */
template <int R>
void
rmsNormRows(const float* x, std::int64_t d, const float* g, float* out)
{
    double s[R] = {};
    for (std::int64_t j = 0; j < d; ++j)
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            s[r] += static_cast<double>(x[r * d + j]) * x[r * d + j];
    for (int r = 0; r < R; ++r) {
        const float rs = 1.0f /
            std::sqrt(static_cast<float>(s[r] / static_cast<double>(d)) +
                      1e-5f);
        const float* xr = x + r * d;
        float* o = out + r * d;
        for (std::int64_t j = 0; j < d; ++j)
            o[j] = xr[j] * rs * g[j];
    }
}

/** LayerNorm of the R rows (width d) at x into out. */
template <int R>
void
layerNormRows(const float* x, std::int64_t d, const float* g, const float* b,
              float* out)
{
    double s[R] = {};
    for (std::int64_t j = 0; j < d; ++j)
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            s[r] += x[r * d + j];
    float mu[R];
    for (int r = 0; r < R; ++r)
        mu[r] = static_cast<float>(s[r] / static_cast<double>(d));
    double v[R] = {};
    for (std::int64_t j = 0; j < d; ++j)
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const double dd = x[r * d + j] - mu[r];
            v[r] += dd * dd;
        }
    for (int r = 0; r < R; ++r) {
        const float iv = 1.0f /
            std::sqrt(static_cast<float>(v[r] / static_cast<double>(d)) +
                      1e-5f);
        const float* xr = x + r * d;
        float* o = out + r * d;
        for (std::int64_t j = 0; j < d; ++j)
            o[j] = (xr[j] - mu[r]) * iv * g[j] + b[j];
    }
}

} // namespace

// --- Linear ---------------------------------------------------------------

Linear::Linear(std::string name, int in, int out, bool withBias, Rng& rng)
    : Module(std::move(name)), in_(in), out_(out)
{
    Tensor w({in, out});
    initXavier(w, in, out, rng);
    w_ = addParam("weight", std::move(w));
    if (withBias)
        b_ = addParam("bias", Tensor({out}));
}

Var
Linear::forward(const Var& x)
{
    Var y = matmul(x, w_->var);
    if (b_)
        y = addBias(y, b_->var);
    if (hasOutScale_)
        y = mulRowConst(y, outScale_);
    return y;
}

Tensor
Linear::infer(const Tensor& x, ComputeContext& ctx)
{
    // The channel scale is folded into the deployed weight (at freeze /
    // calibration time, inside faultyLinear) so that the quantization
    // scale and AD bound are calibrated on the outlier-laden outputs
    // (exactly what real low-precision LLM deployment sees).
    return faultyLinear(x, w_->var.value(), b_ ? &b_->var.value() : nullptr,
                        qstate_, ctx, name(),
                        hasOutScale_ ? &outScale_ : nullptr);
}

void
Linear::setOutChannelScale(Tensor s)
{
    if (s.numel() != out_)
        throw std::invalid_argument("Linear::setOutChannelScale: size");
    outScale_ = std::move(s);
    hasOutScale_ = true;
    qstate_.invalidate();
}

void
Linear::clearOutChannelScale()
{
    hasOutScale_ = false;
    outScale_ = Tensor();
    qstate_.invalidate();
}

Tensor
Linear::effectiveWeight() const
{
    Tensor w = w_->var.value();
    if (hasOutScale_) {
        for (std::int64_t i = 0; i < w.dim(0); ++i)
            for (std::int64_t j = 0; j < w.dim(1); ++j)
                w.at(i, j) *= outScale_[j];
    }
    return w;
}

void
Linear::setWeight(Tensor w)
{
    if (w.numel() != w_->var.value().numel())
        throw std::invalid_argument("Linear::setWeight: shape mismatch");
    w_->var.value() = std::move(w);
    qstate_.invalidate();
}

// --- Embedding --------------------------------------------------------------

Embedding::Embedding(std::string name, int vocab, int dim, Rng& rng)
    : Module(std::move(name)), dim_(dim)
{
    Tensor t({vocab, dim});
    initUniform(t, 0.5f, rng);
    table_ = addParam("table", std::move(t));
}

Var
Embedding::forward(const std::vector<int>& ids)
{
    return embedding(table_->var, ids);
}

Tensor
Embedding::infer(const std::vector<int>& ids) const
{
    const Tensor& t = table_->var.value();
    Tensor out({static_cast<std::int64_t>(ids.size()), dim_});
    for (std::size_t i = 0; i < ids.size(); ++i) {
        assert(ids[i] >= 0 && ids[i] < t.dim(0) &&
               "Embedding::infer: token id out of range");
        const float* src = t.data() + static_cast<std::int64_t>(ids[i]) * dim_;
        std::copy(src, src + dim_, out.data() + static_cast<std::int64_t>(i) * dim_);
    }
    return out;
}

// --- RMSNorm ---------------------------------------------------------------

RMSNorm::RMSNorm(std::string name, int dim) : Module(std::move(name))
{
    g_ = addParam("gain", Tensor::full({dim}, 1.0f));
}

Var
RMSNorm::forward(const Var& x)
{
    return rmsNorm(x, g_->var);
}

Tensor
RMSNorm::infer(const Tensor& x) const
{
    const std::int64_t m = x.dim(0), d = x.dim(1);
    const float* g = g_->var.value().data();
    Tensor out({m, d});
    forRowBlocks(m, [&](std::int64_t i, auto rows) {
        rmsNormRows<decltype(rows)::value>(x.data() + i * d, d, g,
                                           out.data() + i * d);
    });
    return out;
}

// --- LayerNorm ---------------------------------------------------------------

LayerNorm::LayerNorm(std::string name, int dim) : Module(std::move(name))
{
    g_ = addParam("gain", Tensor::full({dim}, 1.0f));
    b_ = addParam("bias", Tensor({dim}));
}

Var
LayerNorm::forward(const Var& x)
{
    return layerNorm(x, g_->var, b_->var);
}

Tensor
LayerNorm::infer(const Tensor& x) const
{
    const std::int64_t m = x.dim(0), d = x.dim(1);
    const float* g = g_->var.value().data();
    const float* b = b_->var.value().data();
    Tensor out({m, d});
    forRowBlocks(m, [&](std::int64_t i, auto rows) {
        layerNormRows<decltype(rows)::value>(x.data() + i * d, d, g, b,
                                             out.data() + i * d);
    });
    return out;
}

// --- Conv2d ---------------------------------------------------------------

Conv2d::Conv2d(std::string name, int cin, int cout, int k, int stride, int pad,
               Rng& rng)
    : Module(std::move(name)), cin_(cin), cout_(cout), k_(k), stride_(stride),
      pad_(pad)
{
    Tensor w({static_cast<std::int64_t>(cin) * k * k, cout});
    initXavier(w, cin * k * k, cout, rng);
    w_ = addParam("weight", std::move(w));
    b_ = addParam("bias", Tensor({cout}));
}

Var
Conv2d::forward(const Var& x)
{
    return conv2d(x, w_->var, b_->var, k_, stride_, pad_);
}

Tensor
Conv2d::infer(const Tensor& x, ComputeContext& ctx)
{
    if (x.rank() != 3 || x.dim(0) != cin_)
        throw std::invalid_argument("Conv2d::infer: (C,H,W) sample required");
    const int oh = ops::convOutSize(static_cast<int>(x.dim(1)), k_, stride_, pad_);
    const int ow = ops::convOutSize(static_cast<int>(x.dim(2)), k_, stride_, pad_);
    const Tensor cols = ops::im2col(x, k_, stride_, pad_);
    // Bias added in FP32 after AD, same as Linear.
    Tensor y = faultyLinear(cols, w_->var.value(), &b_->var.value(), qstate_,
                            ctx, name());
    // (oh*ow, oc) -> (oc, oh, ow)
    Tensor out({cout_, oh, ow});
    const std::int64_t pixels = static_cast<std::int64_t>(oh) * ow;
    for (std::int64_t pix = 0; pix < pixels; ++pix)
        for (int ch = 0; ch < cout_; ++ch)
            out.data()[ch * pixels + pix] = y.at(pix, ch);
    return out;
}

} // namespace create::nn
