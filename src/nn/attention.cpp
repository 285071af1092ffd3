#include "nn/attention.hpp"

#include <cmath>
#include <stdexcept>

#include "hw/kernel_dispatch.hpp"
#include "tensor/ops.hpp"

namespace create::nn {

MultiHeadAttention::MultiHeadAttention(std::string name, int dim, int heads,
                                       Rng& rng)
    : Module(std::move(name)), dim_(dim), heads_(heads), headDim_(dim / heads),
      q_(this->name() + ".q", dim, dim, /*withBias=*/false, rng),
      k_(this->name() + ".k", dim, dim, /*withBias=*/false, rng),
      v_(this->name() + ".v", dim, dim, /*withBias=*/false, rng),
      o_(this->name() + ".o", dim, dim, /*withBias=*/false, rng)
{
    if (dim % heads != 0)
        throw std::invalid_argument("MultiHeadAttention: dim % heads != 0");
    addChild(&q_);
    addChild(&k_);
    addChild(&v_);
    addChild(&o_);
}

Var
MultiHeadAttention::forward(const Var& x)
{
    const Var q = q_.forward(x);
    const Var k = k_.forward(x);
    const Var v = v_.forward(x);
    const float invSqrt = 1.0f / std::sqrt(static_cast<float>(headDim_));
    std::vector<Var> headsOut;
    headsOut.reserve(static_cast<std::size_t>(heads_));
    for (int h = 0; h < heads_; ++h) {
        const std::int64_t c0 = static_cast<std::int64_t>(h) * headDim_;
        const std::int64_t c1 = c0 + headDim_;
        const Var qh = sliceCols(q, c0, c1);
        const Var kh = sliceCols(k, c0, c1);
        const Var vh = sliceCols(v, c0, c1);
        Var scores = scale(matmul(qh, transpose(kh)), invSqrt);
        const Var attn = softmaxRows(scores);
        headsOut.push_back(matmul(attn, vh));
    }
    return o_.forward(concatCols(headsOut));
}

Tensor
MultiHeadAttention::infer(const Tensor& x, ComputeContext& ctx)
{
    const Tensor q = q_.infer(x, ctx);
    const Tensor k = k_.infer(x, ctx);
    const Tensor v = v_.infer(x, ctx);
    const std::int64_t t = x.dim(0);
    // Scores, softmax and context per head: the dispatched kernel
    // (hw/kernel_dispatch.hpp), bit-identical on every tier, with the
    // context's workspace as scratch.
    Tensor ctxOut({t, dim_});
    simd::active().attention(q.data(), k.data(), v.data(), t, dim_, heads_,
                             ctxOut.data(), ctx.ws.attn);
    // Score/context FLOPs on the vector path still cost energy.
    ctx.meter.addGemm(ctx.domain,
                      2.0 * static_cast<double>(t) * t * dim_, ctx.voltage());
    return o_.infer(ctxOut, ctx);
}

} // namespace create::nn
