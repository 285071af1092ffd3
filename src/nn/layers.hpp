#pragma once

/**
 * @file
 * Concrete layers. Each has two forward paths:
 *  - forward(Var):  FP32 autograd path used for training,
 *  - infer(Tensor, ComputeContext&): deployment path where every GEMM/conv
 *    runs through the quantized fault-injectable accelerator pipeline
 *    (hw/faulty_gemm). Normalizations/activations/pooling execute in the
 *    FP32 vector unit and are not injection targets, matching the paper's
 *    methodology (errors are injected into GEMM/conv outputs only).
 */

#include "hw/faulty_gemm.hpp"
#include "nn/module.hpp"

namespace create::nn {

/**
 * Fully connected layer with weight (in x out) and optional bias.
 *
 * Supports a fixed (non-trainable) per-output-channel scale used to plant
 * LLM-style systematic activation outliers (README "Substitutions" #1):
 * the scale is structurally part of the layer in both paths, so training
 * cannot optimize it away and the quantization/AD calibration sees the
 * outlier-laden outputs exactly as deployed hardware would.
 */
class Linear : public Module
{
  public:
    Linear(std::string name, int in, int out, bool withBias, Rng& rng);

    /** Training path. */
    Var forward(const Var& x);

    /** Deployment path through the quantized faulty pipeline. */
    Tensor infer(const Tensor& x, ComputeContext& ctx);

    /** Install a fixed per-output-channel scale (numel == out). */
    void setOutChannelScale(Tensor s);
    bool hasOutChannelScale() const { return hasOutScale_; }
    const Tensor& outChannelScale() const { return outScale_; }

    /** Remove the structural scale (used after it is folded by rotation). */
    void clearOutChannelScale();

    /** Effective deployed weight: W with the channel scale folded in. */
    Tensor effectiveWeight() const;

    /** Overwrite the weight (rotation pass). Invalidates quant state. */
    void setWeight(Tensor w);

    Tensor& weight() { return w_->var.value(); }
    const Tensor& weight() const { return w_->var.value(); }
    Tensor* biasTensor() { return b_ ? &b_->var.value() : nullptr; }

    QuantGemmState& quantState() { return qstate_; }
    void invalidateQuant() { qstate_.invalidate(); }

    int inDim() const { return in_; }
    int outDim() const { return out_; }

  private:
    int in_, out_;
    Param* w_;
    Param* b_ = nullptr;
    Tensor outScale_;
    bool hasOutScale_ = false;
    QuantGemmState qstate_;
};

/** Token embedding table (rows = vocab). Lookups are memory reads (ECC-
 *  protected per Sec. 3.1), so the infer path is exact. */
class Embedding : public Module
{
  public:
    Embedding(std::string name, int vocab, int dim, Rng& rng);

    Var forward(const std::vector<int>& ids);
    Tensor infer(const std::vector<int>& ids) const;

    Tensor& table() { return table_->var.value(); }
    int dim() const { return dim_; }

  private:
    int dim_;
    Param* table_;
};

/** RMSNorm with learnable gain (LLaMA-style pre-norm). */
class RMSNorm : public Module
{
  public:
    RMSNorm(std::string name, int dim);

    Var forward(const Var& x);
    Tensor infer(const Tensor& x) const;

    Tensor& gain() { return g_->var.value(); }

  private:
    Param* g_;
};

/** LayerNorm with learnable gain and bias (controller-style post-norm). */
class LayerNorm : public Module
{
  public:
    LayerNorm(std::string name, int dim);

    Var forward(const Var& x);
    Tensor infer(const Tensor& x) const;

    Tensor& gain() { return g_->var.value(); }
    Tensor& bias() { return b_->var.value(); }

  private:
    Param* g_;
    Param* b_;
};

/** Conv2d with square kernel; weight stored as (C*k*k x OC) GEMM matrix. */
class Conv2d : public Module
{
  public:
    Conv2d(std::string name, int cin, int cout, int k, int stride, int pad,
           Rng& rng);

    /** Training path on a batch (B, C, H, W). */
    Var forward(const Var& x);

    /** Deployment path on a single sample (C, H, W) -> (OC, OH, OW). */
    Tensor infer(const Tensor& x, ComputeContext& ctx);

    QuantGemmState& quantState() { return qstate_; }

  private:
    int cin_, cout_, k_, stride_, pad_;
    Param* w_;
    Param* b_;
    QuantGemmState qstate_;
};

} // namespace create::nn
