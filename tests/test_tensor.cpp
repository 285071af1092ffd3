/** @file Unit + property tests for the tensor library and kernels. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "common/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

using namespace create;

TEST(Tensor, ZeroInitialized)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ShapeAccessors)
{
    Tensor t({4, 5, 6});
    EXPECT_EQ(t.rank(), 3u);
    EXPECT_EQ(t.dim(0), 4);
    EXPECT_EQ(t.dim(1), 5);
    EXPECT_EQ(t.dim(2), 6);
}

TEST(Tensor, At2DRowMajor)
{
    Tensor t({2, 3});
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t[5], 7.0f);
}

TEST(Tensor, At3DLayout)
{
    Tensor t({2, 3, 4});
    t.at(1, 2, 3) = 9.0f;
    EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 9.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 3});
    t.at(0, 1) = 5.0f;
    t.reshape({3, 2});
    EXPECT_EQ(t.at(0, 1), 5.0f);
    EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, ConstructFromDataValidatesSize)
{
    EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, Stats)
{
    Tensor t({4}, {1.0f, -3.0f, 2.0f, 0.0f});
    EXPECT_FLOAT_EQ(t.absMax(), 3.0f);
    EXPECT_FLOAT_EQ(t.mean(), 0.0f);
    EXPECT_NEAR(t.stddev(), std::sqrt(3.5f), 1e-5);
}

TEST(Ops, MatmulKnownValues)
{
    Tensor a({2, 2}, {1, 2, 3, 4});
    Tensor b({2, 2}, {5, 6, 7, 8});
    const Tensor c = ops::matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, MatmulShapeValidation)
{
    Tensor a({2, 3}), b({2, 3});
    EXPECT_THROW(ops::matmul(a, b), std::invalid_argument);
}

TEST(Ops, TransposeInvolution)
{
    Rng rng(1);
    Tensor a({3, 5});
    for (std::int64_t i = 0; i < a.numel(); ++i)
        a[i] = static_cast<float>(rng.normal());
    EXPECT_EQ(ops::maxAbsDiff(ops::transpose(ops::transpose(a)), a), 0.0f);
}

TEST(Ops, AddAndMulElementwise)
{
    Tensor a({2}, {1, 2}), b({2}, {3, 4});
    EXPECT_FLOAT_EQ(ops::add(a, b)[1], 6.0f);
    EXPECT_FLOAT_EQ(ops::mul(a, b)[1], 8.0f);
}

TEST(Ops, AddRowBroadcast)
{
    Tensor a({2, 2}, {1, 2, 3, 4});
    Tensor bias({2}, {10, 20});
    const Tensor c = ops::addRowBroadcast(a, bias);
    EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 24.0f);
}

TEST(Ops, ReluSilu)
{
    Tensor a({3}, {-1.0f, 0.0f, 2.0f});
    const Tensor r = ops::relu(a);
    EXPECT_FLOAT_EQ(r[0], 0.0f);
    EXPECT_FLOAT_EQ(r[2], 2.0f);
    const Tensor s = ops::silu(a);
    EXPECT_NEAR(s[0], -1.0f / (1.0f + std::exp(1.0f)), 1e-6);
    EXPECT_FLOAT_EQ(s[1], 0.0f);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Tensor a({2, 4}, {1, 2, 3, 4, -1, 0, 1, 100});
    const Tensor s = ops::softmaxRows(a);
    for (int i = 0; i < 2; ++i) {
        float sum = 0.0f;
        for (int j = 0; j < 4; ++j)
            sum += s.at(i, j);
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
    EXPECT_GT(s.at(1, 3), 0.99f); // large logit dominates, no overflow
}

TEST(Ops, EntropyBounds)
{
    const std::vector<float> uniform(8, 0.125f);
    EXPECT_NEAR(ops::entropy(uniform), std::log(8.0), 1e-6);
    const std::vector<float> peaked = {1.0f, 0.0f, 0.0f};
    EXPECT_NEAR(ops::entropy(peaked), 0.0, 1e-9);
}

TEST(Ops, LogSoftmaxMatchesSoftmax)
{
    const std::vector<float> logits = {0.5f, -1.0f, 2.0f};
    const auto p = ops::softmax(logits);
    const auto lp = ops::logSoftmax(logits);
    for (std::size_t i = 0; i < logits.size(); ++i)
        EXPECT_NEAR(std::exp(lp[i]), p[i], 1e-5);
}

TEST(Ops, ConvOutSize)
{
    EXPECT_EQ(ops::convOutSize(32, 3, 1, 1), 32);
    EXPECT_EQ(ops::convOutSize(32, 3, 2, 1), 16);
    EXPECT_EQ(ops::convOutSize(64, 3, 3, 1), 22);
}

TEST(Ops, Im2ColIdentityKernel)
{
    // 1x1 kernel, stride 1: im2col is just a reshaping of the image.
    Tensor img({2, 3, 3});
    for (std::int64_t i = 0; i < img.numel(); ++i)
        img[i] = static_cast<float>(i);
    const Tensor cols = ops::im2col(img, 1, 1, 0);
    EXPECT_EQ(cols.dim(0), 9);
    EXPECT_EQ(cols.dim(1), 2);
    EXPECT_FLOAT_EQ(cols.at(4, 0), img.at(0, 1, 1));
    EXPECT_FLOAT_EQ(cols.at(4, 1), img.at(1, 1, 1));
}

/** im2col against the per-element loop it replaced, bit for bit: the VS
 *  predictor's 3x3/pad-1 convs and strided, padded and wide kernels. */
TEST(Ops, Im2ColMatchesPerElementLoop)
{
    Rng rng(11);
    for (const auto [c, h, w, k, stride, pad] :
         {std::tuple<int, int, int, int, int, int>{3, 24, 24, 3, 1, 1},
          {16, 12, 12, 3, 1, 1}, {2, 7, 6, 3, 2, 1}, {1, 9, 5, 5, 3, 2},
          {2, 4, 4, 5, 1, 3}, {3, 5, 8, 1, 2, 0}, {1, 3, 3, 3, 1, 0}}) {
        Tensor x({c, h, w});
        for (std::int64_t i = 0; i < x.numel(); ++i)
            x[i] = static_cast<float>(rng.normal());
        const int oh = ops::convOutSize(h, k, stride, pad);
        const int ow = ops::convOutSize(w, k, stride, pad);
        Tensor ref({static_cast<std::int64_t>(oh) * ow,
                    static_cast<std::int64_t>(c) * k * k});
        std::int64_t row = 0;
        for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox, ++row) {
                std::int64_t col = 0;
                for (int ch = 0; ch < c; ++ch)
                    for (int ky = 0; ky < k; ++ky)
                        for (int kx = 0; kx < k; ++kx, ++col) {
                            const int iy = oy * stride + ky - pad;
                            const int ix = ox * stride + kx - pad;
                            float v = 0.0f;
                            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                v = x.at(ch, iy, ix);
                            ref.at(row, col) = v;
                        }
            }
        const Tensor cols = ops::im2col(x, k, stride, pad);
        ASSERT_EQ(cols.shape(), ref.shape());
        EXPECT_EQ(0, std::memcmp(cols.data(), ref.data(),
                                 static_cast<std::size_t>(ref.numel()) *
                                     sizeof(float)))
            << c << "x" << h << "x" << w << " k=" << k << " s=" << stride
            << " p=" << pad;
    }
}

/** Adjoint property: <im2col(x), y> == <x, col2im(y)> for random x, y. */
TEST(Ops, Col2ImIsAdjointOfIm2Col)
{
    Rng rng(5);
    const int c = 3, h = 7, w = 6, k = 3, stride = 2, pad = 1;
    Tensor x({c, h, w});
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.normal());
    const Tensor cols = ops::im2col(x, k, stride, pad);
    Tensor y(cols.shape());
    for (std::int64_t i = 0; i < y.numel(); ++i)
        y[i] = static_cast<float>(rng.normal());
    double lhs = 0.0;
    for (std::int64_t i = 0; i < cols.numel(); ++i)
        lhs += static_cast<double>(cols[i]) * y[i];
    Tensor back({c, h, w});
    ops::col2imAccum(y, c, h, w, k, stride, pad, back);
    double rhs = 0.0;
    for (std::int64_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x[i]) * back[i];
    EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

/** Property: Hadamard matrices are orthonormal for all power-of-2 sizes. */
class HadamardOrthonormal : public ::testing::TestWithParam<int>
{
};

TEST_P(HadamardOrthonormal, HTimesHTransposeIsIdentity)
{
    const int n = GetParam();
    const Tensor h = ops::hadamard(n);
    const Tensor prod = ops::matmul(h, ops::transpose(h));
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            EXPECT_NEAR(prod.at(i, j), i == j ? 1.0f : 0.0f, 1e-5);
}

TEST_P(HadamardOrthonormal, PreservesL2Norm)
{
    const int n = GetParam();
    const Tensor h = ops::hadamard(n);
    Rng rng(n);
    Tensor x({1, n});
    for (int i = 0; i < n; ++i)
        x[i] = static_cast<float>(rng.normal());
    const Tensor y = ops::matmul(x, h);
    double nx = 0.0, ny = 0.0;
    for (int i = 0; i < n; ++i) {
        nx += static_cast<double>(x[i]) * x[i];
        ny += static_cast<double>(y[i]) * y[i];
    }
    EXPECT_NEAR(nx, ny, 1e-3 * nx);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, HadamardOrthonormal,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));

TEST(Ops, HadamardRejectsNonPowerOfTwo)
{
    EXPECT_THROW(ops::hadamard(12), std::invalid_argument);
    EXPECT_THROW(ops::hadamard(0), std::invalid_argument);
}

/** Property: Hadamard rotation disperses a spike across all dimensions. */
TEST(Ops, HadamardDispersesOutliers)
{
    const int n = 64;
    const Tensor h = ops::hadamard(n);
    Tensor x({1, n});
    x[5] = 100.0f; // one outlier channel
    const Tensor y = ops::matmul(x, h);
    // Every output coordinate has magnitude 100/sqrt(64) = 12.5.
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(std::fabs(y[i]), 12.5f, 1e-3);
    EXPECT_LT(y.absMax(), x.absMax() / 4.0f);
}
