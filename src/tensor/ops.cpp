#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hw/kernel_dispatch.hpp"

namespace create::ops {

namespace {
void
require(bool cond, const char* msg)
{
    if (!cond)
        throw std::invalid_argument(msg);
}
} // namespace

Tensor
matmul(const Tensor& a, const Tensor& b)
{
    require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
    require(a.dim(1) == b.dim(0), "matmul: inner dims mismatch");
    Tensor c({a.dim(0), b.dim(1)});
    matmulAccum(a, b, c);
    return c;
}

void
matmulAccum(const Tensor& a, const Tensor& b, Tensor& c)
{
    require(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
            "matmulAccum: rank-2 tensors required");
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    require(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n,
            "matmulAccum: shape mismatch");
    // The dispatched kernel (hw/kernel_dispatch.hpp): every tier keeps
    // the scalar loop's ascending-k order and zero skip, bit for bit.
    simd::active().matmulF32(a.data(), m, k, b.data(), n, c.data());
}

Tensor
transpose(const Tensor& a)
{
    require(a.rank() == 2, "transpose: rank-2 required");
    Tensor t({a.dim(1), a.dim(0)});
    for (std::int64_t i = 0; i < a.dim(0); ++i)
        for (std::int64_t j = 0; j < a.dim(1); ++j)
            t.at(j, i) = a.at(i, j);
    return t;
}

Tensor
sliceRows(const Tensor& a, std::int64_t r0, std::int64_t r1)
{
    require(a.rank() == 2, "sliceRows: rank-2 required");
    require(r0 >= 0 && r0 <= r1 && r1 <= a.dim(0), "sliceRows: bad range");
    const std::int64_t n = a.dim(1);
    Tensor out({r1 - r0, n});
    std::copy(a.data() + r0 * n, a.data() + r1 * n, out.data());
    return out;
}

Tensor
add(const Tensor& a, const Tensor& b)
{
    require(a.numel() == b.numel(), "add: size mismatch");
    Tensor c = a;
    for (std::int64_t i = 0; i < c.numel(); ++i)
        c[i] += b[i];
    return c;
}

Tensor
addRowBroadcast(const Tensor& a, const Tensor& bias)
{
    require(a.rank() == 2 && bias.numel() == a.dim(1), "addRowBroadcast: mismatch");
    Tensor c = a;
    for (std::int64_t i = 0; i < a.dim(0); ++i)
        for (std::int64_t j = 0; j < a.dim(1); ++j)
            c.at(i, j) += bias[j];
    return c;
}

Tensor
mul(const Tensor& a, const Tensor& b)
{
    require(a.numel() == b.numel(), "mul: size mismatch");
    Tensor c = a;
    for (std::int64_t i = 0; i < c.numel(); ++i)
        c[i] *= b[i];
    return c;
}

Tensor
scale(const Tensor& a, float s)
{
    Tensor c = a;
    for (std::int64_t i = 0; i < c.numel(); ++i)
        c[i] *= s;
    return c;
}

Tensor
relu(const Tensor& a)
{
    Tensor c = a;
    for (std::int64_t i = 0; i < c.numel(); ++i)
        c[i] = c[i] > 0.0f ? c[i] : 0.0f;
    return c;
}

Tensor
silu(const Tensor& a)
{
    Tensor c = a;
    for (std::int64_t i = 0; i < c.numel(); ++i) {
        const float x = c[i];
        c[i] = x / (1.0f + std::exp(-x));
    }
    return c;
}

Tensor
softmaxRows(const Tensor& a)
{
    require(a.rank() == 2, "softmaxRows: rank-2 required");
    Tensor c = a;
    for (std::int64_t i = 0; i < a.dim(0); ++i) {
        float mx = -1e30f;
        for (std::int64_t j = 0; j < a.dim(1); ++j)
            mx = std::max(mx, a.at(i, j));
        float sum = 0.0f;
        for (std::int64_t j = 0; j < a.dim(1); ++j) {
            const float e = std::exp(a.at(i, j) - mx);
            c.at(i, j) = e;
            sum += e;
        }
        const float inv = 1.0f / sum;
        for (std::int64_t j = 0; j < a.dim(1); ++j)
            c.at(i, j) *= inv;
    }
    return c;
}

std::vector<float>
softmax(const std::vector<float>& logits)
{
    std::vector<float> p(logits.size());
    float mx = -1e30f;
    for (float v : logits)
        mx = std::max(mx, v);
    float sum = 0.0f;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        p[i] = std::exp(logits[i] - mx);
        sum += p[i];
    }
    for (auto& v : p)
        v /= sum;
    return p;
}

double
entropy(const std::vector<float>& probs)
{
    double h = 0.0;
    for (float p : probs)
        if (p > 1e-12f)
            h -= static_cast<double>(p) * std::log(static_cast<double>(p));
    return h;
}

std::vector<float>
logSoftmax(const std::vector<float>& logits)
{
    std::vector<float> out(logits.size());
    float mx = -1e30f;
    for (float v : logits)
        mx = std::max(mx, v);
    double sum = 0.0;
    for (float v : logits)
        sum += std::exp(static_cast<double>(v - mx));
    const auto logSum = static_cast<float>(std::log(sum));
    for (std::size_t i = 0; i < logits.size(); ++i)
        out[i] = logits[i] - mx - logSum;
    return out;
}

int
convOutSize(int in, int k, int stride, int pad)
{
    return (in + 2 * pad - k) / stride + 1;
}

Tensor
im2col(const Tensor& input, int k, int stride, int pad)
{
    require(input.rank() == 3, "im2col: (C,H,W) input required");
    const int c = static_cast<int>(input.dim(0));
    const int h = static_cast<int>(input.dim(1));
    const int w = static_cast<int>(input.dim(2));
    const int oh = convOutSize(h, k, stride, pad);
    const int ow = convOutSize(w, k, stride, pad);
    require(oh > 0 && ow > 0, "im2col: empty output");
    const std::int64_t ncols = static_cast<std::int64_t>(c) * k * k;
    Tensor cols({static_cast<std::int64_t>(oh) * ow, ncols});
    // One kernel tap (ch, ky, kx) is one output column. Taps that fall in
    // the zero padding stay 0 (the tensor is zero-filled), so each tap
    // copies only its valid output range [ox0, ox1), found once per tap.
    float* out = cols.data();
    const float* in = input.data();
    std::int64_t col = 0;
    for (int ch = 0; ch < c; ++ch) {
        for (int ky = 0; ky < k; ++ky) {
            for (int kx = 0; kx < k; ++kx, ++col) {
                const int off = kx - pad; // ix = ox * stride + off
                int ox0 = 0;
                while (ox0 < ow && ox0 * stride + off < 0)
                    ++ox0;
                int ox1 = ow;
                while (ox1 > ox0 && (ox1 - 1) * stride + off >= w)
                    --ox1;
                for (int oy = 0; oy < oh; ++oy) {
                    const int iy = oy * stride + ky - pad;
                    if (iy < 0 || iy >= h || ox0 == ox1)
                        continue;
                    const float* src =
                        in + (static_cast<std::int64_t>(ch) * h + iy) * w +
                        ox0 * stride + off;
                    float* dst = out +
                                 (static_cast<std::int64_t>(oy) * ow + ox0) *
                                     ncols +
                                 col;
                    for (int ox = ox0; ox < ox1; ++ox, src += stride,
                             dst += ncols)
                        *dst = *src;
                }
            }
        }
    }
    return cols;
}

void
col2imAccum(const Tensor& cols, int c, int h, int w, int k, int stride,
            int pad, Tensor& out)
{
    require(out.rank() == 3 && out.dim(0) == c && out.dim(1) == h &&
                out.dim(2) == w,
            "col2imAccum: bad output shape");
    const int oh = convOutSize(h, k, stride, pad);
    const int ow = convOutSize(w, k, stride, pad);
    require(cols.rank() == 2 && cols.dim(0) == static_cast<std::int64_t>(oh) * ow &&
                cols.dim(1) == static_cast<std::int64_t>(c) * k * k,
            "col2imAccum: bad cols shape");
    std::int64_t row = 0;
    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++row) {
            std::int64_t col = 0;
            for (int ch = 0; ch < c; ++ch) {
                for (int ky = 0; ky < k; ++ky) {
                    for (int kx = 0; kx < k; ++kx, ++col) {
                        const int iy = oy * stride + ky - pad;
                        const int ix = ox * stride + kx - pad;
                        if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                            out.at(ch, iy, ix) += cols.at(row, col);
                    }
                }
            }
        }
    }
}

Tensor
hadamard(int n)
{
    require(n > 0 && (n & (n - 1)) == 0, "hadamard: n must be a power of two");
    Tensor h({n, n});
    h.at(0, 0) = 1.0f;
    for (int size = 1; size < n; size *= 2) {
        for (int i = 0; i < size; ++i) {
            for (int j = 0; j < size; ++j) {
                const float v = h.at(i, j);
                h.at(i, j + size) = v;
                h.at(i + size, j) = v;
                h.at(i + size, j + size) = -v;
            }
        }
    }
    const float inv = 1.0f / std::sqrt(static_cast<float>(n));
    for (std::int64_t i = 0; i < h.numel(); ++i)
        h[i] *= inv;
    return h;
}

float
maxAbsDiff(const Tensor& a, const Tensor& b)
{
    require(a.numel() == b.numel(), "maxAbsDiff: size mismatch");
    float m = 0.0f;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

} // namespace create::ops
