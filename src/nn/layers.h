/**
 * @file
 * Inference layers: 1-D convolutions (grouped/depthwise), dense,
 * bidirectional LSTM, activations, softmax.
 *
 * Weights are initialized deterministically (seeded Xavier); the suite
 * characterizes inference *performance*, not trained accuracy (the
 * paper does the same — its nn kernels are profiled, their calls are
 * not validated against truth sets). Layer forward passes are
 * templated on the Probe policy; one op(kVecAlu) is reported per
 * 8-wide FMA bundle, matching how the real kernels map onto SIMD/tensor
 * units.
 *
 * A NullProbe forward runs the gb::simd f32 micro-GEMM
 * (simd/f32_engine.h) over k-major weight copies packed once at
 * construction; a recording probe runs the plain per-output loops on
 * the original weights (the test oracle and the characterize() path).
 * Both sum every output in the same order, so their results are
 * bit-identical at every dispatch level.
 */
#ifndef GB_NN_LAYERS_H
#define GB_NN_LAYERS_H

#include <cmath>
#include <vector>

#include "arch/probe.h"
#include "nn/tensor.h"
#include "util/common.h"
#include "util/rng.h"

namespace gb {

/** Activation functions applied elementwise. */
enum class Activation : u8 { kNone, kRelu, kSwish, kTanh, kSigmoid };

/** Apply an activation in place, reporting FP work to the probe. */
template <typename Probe>
void applyActivation(Tensor2& t, Activation act, Probe& probe);

/**
 * 1-D convolution over [time][channels] input, SAME padding.
 * groups == in_channels gives a depthwise convolution.
 */
class Conv1d
{
  public:
    /**
     * @param seed Deterministic weight initialization seed.
     */
    Conv1d(u32 in_channels, u32 out_channels, u32 kernel, u32 stride,
           u32 groups, Activation act, u64 seed);

    /** Forward: input [T][in_ch] -> output [ceil(T/stride)][out_ch]. */
    template <typename Probe>
    Tensor2 forward(const Tensor2& input, Probe& probe) const;

    /** Multiply-accumulates per input timestep (work accounting). */
    u64 macsPerFrame() const;

    u32 outChannels() const { return out_channels_; }
    u32 stride() const { return stride_; }

  private:
    /** Pre-activation output through the f32 engine. */
    Tensor2 forwardEngine(const Tensor2& input) const;

    /** Taps [k0, k1) of frames [f0, f1), all inside the input. */
    void addTaps(const Tensor2& input, Tensor2& out, u32 f0, u32 f1,
                 u32 k0, u32 k1) const;

    u32 in_channels_;
    u32 out_channels_;
    u32 kernel_;
    u32 stride_;
    u32 groups_;
    Activation act_;
    // weights_[oc][ic_per_group * kernel], row-major per out channel.
    Tensor2 weights_;
    // taps_[(k * ic_per_group + ic) * out_channels + oc], k-major.
    std::vector<float> taps_;
    std::vector<float> bias_;
};

/** Fully connected layer. */
class Dense
{
  public:
    Dense(u32 in_features, u32 out_features, Activation act, u64 seed);

    /** Forward: [N][in] -> [N][out]. */
    template <typename Probe>
    Tensor2 forward(const Tensor2& input, Probe& probe) const;

    u32 outFeatures() const { return out_features_; }

  private:
    u32 in_features_;
    u32 out_features_;
    Activation act_;
    Tensor2 weights_; ///< [out][in]
    std::vector<float> weights_t_; ///< [in][out]
    std::vector<float> bias_;
};

/**
 * Bidirectional LSTM layer: input [T][in] -> output [T][2*hidden]
 * (forward and backward hidden states concatenated).
 */
class BiLstm
{
  public:
    BiLstm(u32 in_features, u32 hidden, u64 seed);

    template <typename Probe>
    Tensor2 forward(const Tensor2& input, Probe& probe) const;

    u32 hidden() const { return hidden_; }

  private:
    /** One direction's parameters: gates [4*hidden][in + hidden]. */
    struct Direction
    {
        Tensor2 w;               ///< [4*hidden][in+hidden]
        std::vector<float> w_t;  ///< [in+hidden][4*hidden]
        std::vector<float> bias; ///< [4*hidden]
    };

    template <typename Probe>
    void runDirection(const Direction& dir, const Tensor2& input,
                      bool backward, Tensor2& out, u32 out_offset,
                      Probe& probe) const;

    u32 in_features_;
    u32 hidden_;
    Direction fwd_;
    Direction bwd_;
};

/** Row-wise softmax in place. */
void softmaxRows(Tensor2& t);

} // namespace gb

#endif // GB_NN_LAYERS_H
