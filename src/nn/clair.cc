#include "nn/clair.h"

#include <cmath>

namespace gb {

ClairModel::ClairModel(const ClairConfig& config)
    : config_(config),
      lstm1_(config.features, config.lstm_hidden, config.seed + 1),
      lstm2_(2 * config.lstm_hidden, config.lstm_hidden,
             config.seed + 2),
      fc1_(2 * config.lstm_hidden, config.fc_width, Activation::kRelu,
           config.seed + 3),
      head_alt_(config.fc_width, 4, Activation::kNone, config.seed + 4),
      head_zyg_(config.fc_width, 2, Activation::kNone, config.seed + 5),
      head_type_(config.fc_width, 4, Activation::kNone,
                 config.seed + 6),
      head_indel_(config.fc_width, 6, Activation::kNone,
                  config.seed + 7)
{
}

namespace {

/** Mean-pool rows of a tensor into a single row. */
Tensor2
meanPoolRows(const Tensor2& t)
{
    Tensor2 out(1, t.cols);
    for (u32 r = 0; r < t.rows; ++r) {
        const float* row = t.row(r);
        for (u32 c = 0; c < t.cols; ++c) out.at(0, c) += row[c];
    }
    for (u32 c = 0; c < t.cols; ++c) {
        out.at(0, c) /= static_cast<float>(t.rows);
    }
    return out;
}

template <size_t N>
void
headOutput(Tensor2 logits, std::array<float, N>& out)
{
    softmaxRows(logits);
    for (size_t i = 0; i < N; ++i) out[i] = logits.at(0, i);
}

} // namespace

template <typename Probe>
ClairOutput
ClairModel::predict(std::span<const float> features, Probe& probe) const
{
    requireInput(features.size() ==
                     static_cast<size_t>(config_.window) *
                         config_.features,
                 "clair: feature tensor size mismatch");
    Tensor2 x(config_.window, config_.features);
    std::copy(features.begin(), features.end(), x.data.begin());

    const Tensor2 h1 = lstm1_.forward(x, probe);
    const Tensor2 h2 = lstm2_.forward(h1, probe);
    const Tensor2 pooled = meanPoolRows(h2);
    const Tensor2 fc = fc1_.forward(pooled, probe);

    ClairOutput out;
    headOutput(head_alt_.forward(fc, probe), out.alt_base);
    headOutput(head_zyg_.forward(fc, probe), out.zygosity);
    headOutput(head_type_.forward(fc, probe), out.var_type);
    headOutput(head_indel_.forward(fc, probe), out.indel_len);
    return out;
}

template <typename Probe>
std::vector<ClairOutput>
ClairModel::predictBatch(std::span<const std::vector<float>> batch,
                         Probe& probe) const
{
    std::vector<ClairOutput> out;
    out.reserve(batch.size());
    for (const auto& features : batch) {
        out.push_back(predict(features, probe));
    }
    return out;
}

// Explicit instantiations.
#define GB_CLAIR_INSTANTIATE(P)                                         \
    template ClairOutput ClairModel::predict<P>(std::span<const float>, \
                                                P&) const;              \
    template std::vector<ClairOutput> ClairModel::predictBatch<P>(      \
        std::span<const std::vector<float>>, P&) const;

GB_CLAIR_INSTANTIATE(NullProbe)
GB_CLAIR_INSTANTIATE(CharProbe)
#undef GB_CLAIR_INSTANTIATE

} // namespace gb
