#include "nn/layers.h"

#include <algorithm>
#include <type_traits>

#include "simd/f32_engine.h"

namespace gb {

namespace {

/** Xavier-uniform fill. */
void
xavierFill(Tensor2& w, u32 fan_in, u32 fan_out, Rng& rng)
{
    const double limit = std::sqrt(6.0 / (fan_in + fan_out));
    for (auto& v : w.data) {
        v = static_cast<float>((rng.uniform() * 2.0 - 1.0) * limit);
    }
}

float
sigmoidf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

/** [rows][cols] -> [cols][rows]: a k-major copy of per-output rows. */
std::vector<float>
transposed(const Tensor2& w)
{
    std::vector<float> t(w.data.size());
    for (u32 r = 0; r < w.rows; ++r) {
        for (u32 c = 0; c < w.cols; ++c) {
            t[static_cast<size_t>(c) * w.rows + r] = w.at(r, c);
        }
    }
    return t;
}

} // namespace

template <typename Probe>
void
applyActivation(Tensor2& t, Activation act, Probe& probe)
{
    if (act == Activation::kNone) return;
    for (auto& v : t.data) {
        switch (act) {
          case Activation::kRelu:
            v = v > 0.0f ? v : 0.0f;
            break;
          case Activation::kSwish:
            v = v * sigmoidf(v);
            break;
          case Activation::kTanh:
            v = std::tanh(v);
            break;
          case Activation::kSigmoid:
            v = sigmoidf(v);
            break;
          case Activation::kNone:
            break;
        }
    }
    probe.op(OpClass::kVecAlu, ceilDiv<u64>(t.data.size(), 8) * 2);
}

Conv1d::Conv1d(u32 in_channels, u32 out_channels, u32 kernel, u32 stride,
               u32 groups, Activation act, u64 seed)
    : in_channels_(in_channels), out_channels_(out_channels),
      kernel_(kernel), stride_(stride), groups_(groups), act_(act)
{
    requireInput(groups >= 1 && in_channels % groups == 0 &&
                     out_channels % groups == 0,
                 "conv1d: channels must divide groups");
    requireInput(stride >= 1 && kernel >= 1, "conv1d: bad geometry");
    Rng rng(seed);
    const u32 ic_per_group = in_channels / groups;
    weights_ = Tensor2(out_channels, ic_per_group * kernel);
    xavierFill(weights_, ic_per_group * kernel, out_channels, rng);
    bias_.assign(out_channels, 0.0f);
    for (auto& b : bias_) {
        b = static_cast<float>((rng.uniform() * 2.0 - 1.0) * 0.05);
    }
    taps_.resize(weights_.data.size());
    for (u32 oc = 0; oc < out_channels; ++oc) {
        for (u32 ic = 0; ic < ic_per_group; ++ic) {
            for (u32 k = 0; k < kernel; ++k) {
                taps_[(static_cast<size_t>(k) * ic_per_group + ic) *
                          out_channels +
                      oc] = weights_.at(oc, ic * kernel + k);
            }
        }
    }
}

u64
Conv1d::macsPerFrame() const
{
    return static_cast<u64>(out_channels_) * (in_channels_ / groups_) *
           kernel_;
}

void
Conv1d::addTaps(const Tensor2& input, Tensor2& out, u32 f0, u32 f1,
                u32 k0, u32 k1) const
{
    const u32 ic_per_group = in_channels_ / groups_;
    const u32 oc_per_group = out_channels_ / groups_;
    // Input row of tap k0 for frame f0; frame f + 1 starts stride_
    // rows later.
    const u32 row0 = f0 * stride_ + k0 - kernel_ / 2;
    if (ic_per_group == 1 && oc_per_group == 1) {
        // Depthwise: a multiply-add across channels per tap, which
        // the compiler vectorizes without reordering any sum.
        for (u32 f = f0; f < f1; ++f) {
            float* o = out.row(f);
            for (u32 k = k0; k < k1; ++k) {
                const float* x = input.row(row0 + (f - f0) * stride_ +
                                           (k - k0));
                const float* w = &taps_[static_cast<size_t>(k) *
                                        out_channels_];
                for (u32 c = 0; c < out_channels_; ++c) {
                    o[c] += w[c] * x[c];
                }
            }
        }
        return;
    }
    // groups == 1: one frame's taps are one contiguous input slice, so
    // a single call covers them; otherwise each tap's call resumes
    // from the previous tap's output.
    const u32 taps_per_call = groups_ == 1 ? k1 - k0 : 1;
    for (u32 g = 0; g < groups_; ++g) {
        for (u32 k = k0; k < k1; k += taps_per_call) {
            simd::F32Gemm call;
            call.rows = f1 - f0;
            call.cols = oc_per_group;
            call.depth = taps_per_call * ic_per_group;
            call.a = input.row(row0 + (k - k0)) + g * ic_per_group;
            call.a_row = static_cast<size_t>(stride_) * in_channels_;
            call.b = &taps_[static_cast<size_t>(k) * ic_per_group *
                                out_channels_ +
                            g * oc_per_group];
            call.ldb = out_channels_;
            call.out = out.row(f0) + g * oc_per_group;
            call.ldo = out_channels_;
            call.init = call.out;
            call.ldi = out_channels_;
            simd::f32Gemm(call);
        }
    }
}

Tensor2
Conv1d::forwardEngine(const Tensor2& input) const
{
    const u32 t_in = input.rows;
    const u32 t_out = ceilDiv(t_in, stride_);
    const u32 pad = kernel_ / 2;
    Tensor2 out(t_out, out_channels_);
    for (u32 f = 0; f < t_out; ++f) {
        std::copy(bias_.begin(), bias_.end(), out.row(f));
    }
    // Interior frames [f_lo, f_hi) read every tap; the rest are edge
    // frames whose out-of-range taps are skipped, as in the loop.
    const u32 f_lo = std::min(t_out, ceilDiv(pad, stride_));
    const u32 f_hi =
        t_in + pad >= kernel_
            ? std::clamp((t_in + pad - kernel_) / stride_ + 1, f_lo,
                         t_out)
            : f_lo;
    if (f_lo < f_hi) addTaps(input, out, f_lo, f_hi, 0, kernel_);
    auto edge = [&](u32 f) {
        const i64 start = static_cast<i64>(f) * stride_ - pad;
        const u32 k0 = start < 0 ? static_cast<u32>(-start) : 0;
        const u32 k1 = static_cast<u32>(
            std::min<i64>(kernel_, static_cast<i64>(t_in) - start));
        addTaps(input, out, f, f + 1, k0, k1);
    };
    for (u32 f = 0; f < f_lo; ++f) edge(f);
    for (u32 f = f_hi; f < t_out; ++f) edge(f);
    return out;
}

template <typename Probe>
Tensor2
Conv1d::forward(const Tensor2& input, Probe& probe) const
{
    requireInput(input.cols == in_channels_,
                 "conv1d: input channel mismatch");
    if constexpr (std::is_same_v<Probe, NullProbe>) {
        Tensor2 out = forwardEngine(input);
        applyActivation(out, act_, probe);
        return out;
    }
    const u32 t_in = input.rows;
    const u32 t_out = ceilDiv(t_in, stride_);
    Tensor2 out(t_out, out_channels_);
    const i32 pad = static_cast<i32>(kernel_ / 2);
    const u32 ic_per_group = in_channels_ / groups_;
    const u32 oc_per_group = out_channels_ / groups_;

    for (u32 to = 0; to < t_out; ++to) {
        const i32 t_center = static_cast<i32>(to * stride_);
        float* out_row = out.row(to);
        for (u32 oc = 0; oc < out_channels_; ++oc) {
            const u32 group = oc / oc_per_group;
            const float* w = weights_.row(oc);
            float acc = bias_[oc];
            for (u32 k = 0; k < kernel_; ++k) {
                const i32 ti = t_center + static_cast<i32>(k) - pad;
                if (ti < 0 || ti >= static_cast<i32>(t_in)) continue;
                const float* in_row = input.row(static_cast<u32>(ti));
                const u32 ic_base = group * ic_per_group;
                for (u32 ic = 0; ic < ic_per_group; ++ic) {
                    acc += w[ic * kernel_ + k] * in_row[ic_base + ic];
                }
            }
            out_row[oc] = acc;
        }
        // One weight pass + one activation row per output frame.
        probe.op(OpClass::kVecAlu, ceilDiv(macsPerFrame(), u64{8}));
        probe.op(OpClass::kIntAlu, 4);
        probe.load(weights_.row(0),
                   static_cast<u32>(std::min<u64>(
                       weights_.data.size() * 4, 1u << 16)));
        probe.load(input.row(std::min(t_in - 1, to * stride_)),
                   input.cols * 4);
        probe.store(out_row, out.cols * 4);
    }
    applyActivation(out, act_, probe);
    return out;
}

Dense::Dense(u32 in_features, u32 out_features, Activation act, u64 seed)
    : in_features_(in_features), out_features_(out_features), act_(act)
{
    Rng rng(seed);
    weights_ = Tensor2(out_features, in_features);
    xavierFill(weights_, in_features, out_features, rng);
    bias_.assign(out_features, 0.0f);
    for (auto& b : bias_) {
        b = static_cast<float>((rng.uniform() * 2.0 - 1.0) * 0.05);
    }
    weights_t_ = transposed(weights_);
}

template <typename Probe>
Tensor2
Dense::forward(const Tensor2& input, Probe& probe) const
{
    requireInput(input.cols == in_features_,
                 "dense: input feature mismatch");
    Tensor2 out(input.rows, out_features_);
    if constexpr (std::is_same_v<Probe, NullProbe>) {
        simd::F32Gemm call;
        call.rows = input.rows;
        call.cols = out_features_;
        call.depth = in_features_;
        call.a = input.data.data();
        call.a_row = in_features_;
        call.b = weights_t_.data();
        call.ldb = out_features_;
        call.init = bias_.data();
        call.out = out.data.data();
        call.ldo = out_features_;
        simd::f32Gemm(call);
        applyActivation(out, act_, probe);
        return out;
    }
    for (u32 r = 0; r < input.rows; ++r) {
        const float* in_row = input.row(r);
        float* out_row = out.row(r);
        for (u32 o = 0; o < out_features_; ++o) {
            const float* w = weights_.row(o);
            float acc = bias_[o];
            for (u32 i = 0; i < in_features_; ++i) {
                acc += w[i] * in_row[i];
            }
            out_row[o] = acc;
        }
        probe.op(OpClass::kVecAlu,
                 ceilDiv<u64>(static_cast<u64>(out_features_) *
                                  in_features_,
                              8));
        probe.load(weights_.row(0),
                   static_cast<u32>(std::min<u64>(
                       weights_.data.size() * 4, 1u << 16)));
        probe.load(in_row, input.cols * 4);
        probe.store(out_row, out.cols * 4);
    }
    applyActivation(out, act_, probe);
    return out;
}

BiLstm::BiLstm(u32 in_features, u32 hidden, u64 seed)
    : in_features_(in_features), hidden_(hidden)
{
    Rng rng(seed);
    auto init = [&](Direction& dir) {
        dir.w = Tensor2(4 * hidden, in_features + hidden);
        xavierFill(dir.w, in_features + hidden, 4 * hidden, rng);
        dir.bias.assign(4 * hidden, 0.0f);
        // Forget-gate bias starts positive (standard LSTM practice).
        for (u32 h = 0; h < hidden; ++h) dir.bias[hidden + h] = 1.0f;
        dir.w_t = transposed(dir.w);
    };
    init(fwd_);
    init(bwd_);
}

template <typename Probe>
void
BiLstm::runDirection(const Direction& dir, const Tensor2& input,
                     bool backward, Tensor2& out, u32 out_offset,
                     Probe& probe) const
{
    const u32 t_len = input.rows;
    std::vector<float> h(hidden_, 0.0f);
    std::vector<float> c(hidden_, 0.0f);
    std::vector<float> gates(4 * hidden_, 0.0f);

    for (u32 step = 0; step < t_len; ++step) {
        const u32 t = backward ? t_len - 1 - step : step;
        const float* x = input.row(t);
        // gates = W [x; h] + b.
        if constexpr (std::is_same_v<Probe, NullProbe>) {
            // The x part, then the h part resuming from its output.
            simd::F32Gemm call;
            call.rows = 1;
            call.cols = 4 * hidden_;
            call.depth = in_features_;
            call.a = x;
            call.b = dir.w_t.data();
            call.ldb = 4 * hidden_;
            call.init = dir.bias.data();
            call.out = gates.data();
            simd::f32Gemm(call);
            call.depth = hidden_;
            call.a = h.data();
            call.b += static_cast<size_t>(in_features_) * 4 * hidden_;
            call.init = gates.data();
            simd::f32Gemm(call);
        } else {
            for (u32 g = 0; g < 4 * hidden_; ++g) {
                const float* w = dir.w.row(g);
                float acc = dir.bias[g];
                for (u32 i = 0; i < in_features_; ++i) acc += w[i] * x[i];
                for (u32 i = 0; i < hidden_; ++i) {
                    acc += w[in_features_ + i] * h[i];
                }
                gates[g] = acc;
            }
        }
        for (u32 j = 0; j < hidden_; ++j) {
            const float in_g = sigmoidf(gates[j]);
            const float forget_g = sigmoidf(gates[hidden_ + j]);
            const float cell_g = std::tanh(gates[2 * hidden_ + j]);
            const float out_g = sigmoidf(gates[3 * hidden_ + j]);
            c[j] = forget_g * c[j] + in_g * cell_g;
            h[j] = out_g * std::tanh(c[j]);
        }
        float* out_row = out.row(t);
        std::copy(h.begin(), h.end(), out_row + out_offset);

        probe.op(OpClass::kVecAlu,
                 ceilDiv<u64>(static_cast<u64>(4 * hidden_) *
                                  (in_features_ + hidden_),
                              8) +
                     hidden_);
        probe.op(OpClass::kFpAlu, 4 * hidden_);
        probe.load(dir.w.row(0),
                   static_cast<u32>(
                       std::min<u64>(dir.w.data.size() * 4, 1u << 16)));
        probe.load(x, input.cols * 4);
        probe.store(out_row + out_offset, hidden_ * 4);
    }
}

template <typename Probe>
Tensor2
BiLstm::forward(const Tensor2& input, Probe& probe) const
{
    requireInput(input.cols == in_features_,
                 "bilstm: input feature mismatch");
    Tensor2 out(input.rows, 2 * hidden_);
    runDirection(fwd_, input, false, out, 0, probe);
    runDirection(bwd_, input, true, out, hidden_, probe);
    return out;
}

void
softmaxRows(Tensor2& t)
{
    for (u32 r = 0; r < t.rows; ++r) {
        float* row = t.row(r);
        float best = row[0];
        for (u32 c = 1; c < t.cols; ++c) best = std::max(best, row[c]);
        float sum = 0.0f;
        for (u32 c = 0; c < t.cols; ++c) {
            row[c] = std::exp(row[c] - best);
            sum += row[c];
        }
        for (u32 c = 0; c < t.cols; ++c) row[c] /= sum;
    }
}

// Explicit instantiations.
#define GB_NN_INSTANTIATE(P)                                            \
    template void applyActivation<P>(Tensor2&, Activation, P&);        \
    template Tensor2 Conv1d::forward<P>(const Tensor2&, P&) const;     \
    template Tensor2 Dense::forward<P>(const Tensor2&, P&) const;      \
    template Tensor2 BiLstm::forward<P>(const Tensor2&, P&) const;

GB_NN_INSTANTIATE(NullProbe)
GB_NN_INSTANTIATE(CharProbe)
#undef GB_NN_INSTANTIATE

} // namespace gb
