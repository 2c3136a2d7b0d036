/**
 * @file
 * Tests for the NN inference engine: layers, CTC decoders, the
 * Bonito/Clair model assemblies, and the f32 engine's bit-identity
 * with the per-output loops at every dispatch level.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nn/bonito.h"
#include "nn/clair.h"
#include "nn/ctc.h"
#include "nn/layers.h"
#include "pileup/pileup.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace gb {
namespace {

TEST(Layers, ConvShapeAndDeterminism)
{
    Conv1d conv(4, 8, 5, 1, 1, Activation::kNone, 7);
    Tensor2 input(100, 4);
    Rng rng(1);
    for (auto& v : input.data) v = static_cast<float>(rng.normal());
    NullProbe probe;
    const Tensor2 a = conv.forward(input, probe);
    const Tensor2 b = conv.forward(input, probe);
    EXPECT_EQ(a.rows, 100u);
    EXPECT_EQ(a.cols, 8u);
    EXPECT_EQ(a.data, b.data);
}

TEST(Layers, ConvStrideDownsamples)
{
    Conv1d conv(1, 2, 5, 3, 1, Activation::kNone, 7);
    Tensor2 input(100, 1);
    NullProbe probe;
    EXPECT_EQ(conv.forward(input, probe).rows, 34u); // ceil(100/3)
}

TEST(Layers, DepthwiseConvIsPerChannel)
{
    // groups == channels: each output channel depends only on its own
    // input channel.
    Conv1d conv(2, 2, 3, 1, 2, Activation::kNone, 11);
    Tensor2 a(20, 2);
    Tensor2 b(20, 2);
    Rng rng(2);
    for (u32 t = 0; t < 20; ++t) {
        a.at(t, 0) = static_cast<float>(rng.normal());
        a.at(t, 1) = static_cast<float>(rng.normal());
        b.at(t, 0) = a.at(t, 0);
        b.at(t, 1) = a.at(t, 1) + 5.0f; // perturb channel 1 only
    }
    NullProbe probe;
    const Tensor2 ra = conv.forward(a, probe);
    const Tensor2 rb = conv.forward(b, probe);
    for (u32 t = 0; t < 20; ++t) {
        EXPECT_FLOAT_EQ(ra.at(t, 0), rb.at(t, 0)); // ch0 unaffected
    }
}

TEST(Layers, ConvRejectsBadConfig)
{
    EXPECT_THROW(Conv1d(4, 8, 3, 1, 3, Activation::kNone, 1),
                 InputError);
    Conv1d conv(4, 8, 3, 1, 1, Activation::kNone, 1);
    Tensor2 wrong(10, 5);
    NullProbe probe;
    EXPECT_THROW(conv.forward(wrong, probe), InputError);
}

TEST(Layers, DenseLinearity)
{
    Dense dense(6, 3, Activation::kNone, 13);
    Tensor2 x(1, 6);
    Tensor2 zero(1, 6);
    Rng rng(3);
    for (auto& v : x.data) v = static_cast<float>(rng.normal());
    NullProbe probe;
    const Tensor2 fx = dense.forward(x, probe);
    const Tensor2 f0 = dense.forward(zero, probe);
    // f(2x) - f(0) == 2 (f(x) - f(0)).
    Tensor2 x2 = x;
    for (auto& v : x2.data) v *= 2.0f;
    const Tensor2 f2x = dense.forward(x2, probe);
    for (u32 c = 0; c < 3; ++c) {
        EXPECT_NEAR(f2x.at(0, c) - f0.at(0, c),
                    2.0f * (fx.at(0, c) - f0.at(0, c)), 1e-4f);
    }
}

TEST(Layers, ReluClampsNegative)
{
    Tensor2 t(1, 4);
    t.data = {-1.0f, 0.0f, 2.0f, -3.0f};
    NullProbe probe;
    applyActivation(t, Activation::kRelu, probe);
    const std::vector<float> expected{0.0f, 0.0f, 2.0f, 0.0f};
    EXPECT_EQ(t.data, expected);
}

TEST(Layers, BiLstmShapeAndDirectionality)
{
    BiLstm lstm(4, 8, 17);
    Tensor2 x(12, 4);
    Rng rng(4);
    for (auto& v : x.data) v = static_cast<float>(rng.normal());
    NullProbe probe;
    const Tensor2 h = lstm.forward(x, probe);
    EXPECT_EQ(h.rows, 12u);
    EXPECT_EQ(h.cols, 16u);

    // Perturb the last timestep: forward outputs at t=0 must be
    // unchanged (causality), backward outputs at t=0 must change.
    Tensor2 x2 = x;
    x2.at(11, 0) += 10.0f;
    const Tensor2 h2 = lstm.forward(x2, probe);
    for (u32 c = 0; c < 8; ++c) {
        EXPECT_FLOAT_EQ(h.at(0, c), h2.at(0, c));
    }
    float back_delta = 0.0f;
    for (u32 c = 8; c < 16; ++c) {
        back_delta += std::abs(h.at(0, c) - h2.at(0, c));
    }
    EXPECT_GT(back_delta, 1e-4f);
}

TEST(Softmax, RowsSumToOne)
{
    Tensor2 t(3, 5);
    Rng rng(5);
    for (auto& v : t.data) v = static_cast<float>(rng.normal(0, 3));
    softmaxRows(t);
    for (u32 r = 0; r < 3; ++r) {
        float sum = 0.0f;
        for (u32 c = 0; c < 5; ++c) {
            sum += t.at(r, c);
            EXPECT_GE(t.at(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

/** Build a [T][5] tensor from a class index sequence (one-hot-ish). */
Tensor2
framesOf(const std::vector<u32>& classes, float confidence = 0.9f)
{
    Tensor2 t(static_cast<u32>(classes.size()), kCtcClasses);
    const float rest = (1.0f - confidence) / (kCtcClasses - 1);
    for (u32 r = 0; r < t.rows; ++r) {
        for (u32 c = 0; c < kCtcClasses; ++c) {
            t.at(r, c) = c == classes[r] ? confidence : rest;
        }
    }
    return t;
}

TEST(Ctc, GreedyCollapsesRepeatsAndBlanks)
{
    // blank A A blank C C C blank G T -> "ACGT".
    const Tensor2 probs =
        framesOf({0, 1, 1, 0, 2, 2, 2, 0, 3, 4});
    EXPECT_EQ(ctcGreedyDecode(probs), "ACGT");
}

TEST(Ctc, GreedyRepeatWithBlankSeparatorEmitsTwice)
{
    // A blank A -> "AA".
    EXPECT_EQ(ctcGreedyDecode(framesOf({1, 0, 1})), "AA");
}

TEST(Ctc, GreedyEmptyOnAllBlanks)
{
    EXPECT_EQ(ctcGreedyDecode(framesOf({0, 0, 0, 0})), "");
}

TEST(Bonito, ForwardShapeAndDeterminism)
{
    BonitoModel model;
    Tensor2 chunk(999, 1);
    Rng rng(7);
    for (auto& v : chunk.data) v = static_cast<float>(rng.normal());
    NullProbe probe;
    const Tensor2 a = model.forward(chunk, probe);
    EXPECT_EQ(a.rows, 333u); // stride-3 downsample
    EXPECT_EQ(a.cols, kCtcClasses);
    for (u32 r = 0; r < a.rows; ++r) {
        float sum = 0.0f;
        for (u32 c = 0; c < a.cols; ++c) sum += a.at(r, c);
        EXPECT_NEAR(sum, 1.0f, 1e-4f);
    }
    const Tensor2 b = model.forward(chunk, probe);
    EXPECT_EQ(a.data, b.data);
}

TEST(Bonito, BasecallChunksAndStitches)
{
    BonitoModel model;
    Rng rng(8);
    std::vector<float> samples(9000);
    for (auto& v : samples) {
        v = static_cast<float>(rng.normal(90, 12));
    }
    NullProbe probe;
    const std::string seq = model.basecall(samples, probe);
    // Untrained weights produce arbitrary but valid base strings.
    for (char c : seq) {
        EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
    }
    // Deterministic across calls.
    EXPECT_EQ(seq, model.basecall(samples, probe));
    EXPECT_GT(model.macsPerChunk(), 1'000'000u);
}

TEST(Bonito, NormalizeSignalCentersAndScales)
{
    Rng rng(9);
    std::vector<float> samples(5000);
    for (auto& v : samples) {
        v = static_cast<float>(rng.normal(100, 15));
    }
    const auto norm = normalizeSignal(samples);
    double sum = 0.0;
    double sq = 0.0;
    for (float v : norm) {
        sum += v;
        sq += static_cast<double>(v) * v;
    }
    const double mean = sum / static_cast<double>(norm.size());
    const double sd = std::sqrt(sq / static_cast<double>(norm.size()) -
                                mean * mean);
    EXPECT_NEAR(mean, 0.0, 0.1);
    EXPECT_NEAR(sd, 1.0, 0.15);
}

TEST(Clair, PredictShapeAndValidity)
{
    ClairModel model;
    std::vector<float> features(kClairFeatureSize, 0.1f);
    NullProbe probe;
    const ClairOutput out = model.predict(features, probe);
    auto checkHead = [](const auto& head) {
        float sum = 0.0f;
        for (float v : head) {
            EXPECT_GE(v, 0.0f);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-4f);
    };
    checkHead(out.alt_base);
    checkHead(out.zygosity);
    checkHead(out.var_type);
    checkHead(out.indel_len);

    EXPECT_THROW(model.predict(std::vector<float>(10, 0.0f), probe),
                 InputError);
}

TEST(Clair, BatchMatchesSingle)
{
    ClairModel model;
    Rng rng(10);
    std::vector<std::vector<float>> batch;
    for (int i = 0; i < 5; ++i) {
        std::vector<float> f(kClairFeatureSize);
        for (auto& v : f) v = static_cast<float>(rng.uniform());
        batch.push_back(std::move(f));
    }
    NullProbe probe;
    const auto outs = model.predictBatch(batch, probe);
    ASSERT_EQ(outs.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
        const auto single = model.predict(batch[i], probe);
        EXPECT_EQ(outs[i].alt_base, single.alt_base);
    }
}

TEST(Clair, OutputDependsOnInput)
{
    ClairModel model;
    NullProbe probe;
    std::vector<float> a(kClairFeatureSize, 0.0f);
    std::vector<float> b(kClairFeatureSize, 0.9f);
    const auto oa = model.predict(a, probe);
    const auto ob = model.predict(b, probe);
    float delta = 0.0f;
    for (int i = 0; i < 4; ++i) {
        delta += std::abs(oa.alt_base[static_cast<size_t>(i)] -
                          ob.alt_base[static_cast<size_t>(i)]);
    }
    EXPECT_GT(delta, 1e-4f);
}

/** Levels this host can actually execute (always includes scalar). */
std::vector<simd::SimdLevel>
testableLevels()
{
    std::vector<simd::SimdLevel> levels{simd::SimdLevel::kScalar};
    const simd::SimdLevel best = simd::detectSimdLevel();
    if (best >= simd::SimdLevel::kSse4) {
        levels.push_back(simd::SimdLevel::kSse4);
    }
    if (best >= simd::SimdLevel::kAvx2) {
        levels.push_back(simd::SimdLevel::kAvx2);
    }
    return levels;
}

/** Same shape and the same float bit patterns. */
::testing::AssertionResult
sameBits(const Tensor2& got, const Tensor2& want)
{
    if (got.rows != want.rows || got.cols != want.cols) {
        return ::testing::AssertionFailure()
               << "shape " << got.rows << "x" << got.cols << " vs "
               << want.rows << "x" << want.cols;
    }
    if (std::memcmp(got.data.data(), want.data.data(),
                    want.data.size() * sizeof(float)) != 0) {
        return ::testing::AssertionFailure() << "float bits differ";
    }
    return ::testing::AssertionSuccess();
}

Tensor2
randomTensor(u32 rows, u32 cols, u64 seed)
{
    Tensor2 t(rows, cols);
    Rng rng(seed);
    for (auto& v : t.data) v = static_cast<float>(rng.normal());
    return t;
}

/**
 * A NullProbe forward runs the f32 engine; it must reproduce the
 * recording-probe loop's bits at every level.
 */
template <typename Layer>
void
expectEngineMatchesLoop(const Layer& layer, const Tensor2& input,
                        const std::string& what)
{
    CharProbe counting;
    const Tensor2 oracle = layer.forward(input, counting);
    for (const simd::SimdLevel level : testableLevels()) {
        simd::setSimdLevel(level);
        NullProbe probe;
        EXPECT_TRUE(sameBits(layer.forward(input, probe), oracle))
            << what << " level=" << simd::simdLevelName(level);
    }
    simd::resetSimdLevel();
}

TEST(Layers, ConvEngineBitIdenticalAtEveryLevel)
{
    struct Shape
    {
        u32 in;
        u32 out;
        u32 groups;
    };
    // Dense, depthwise and 2-group convolutions; output widths that
    // are not a multiple of 8 leave a sub-vector column tail.
    const Shape shapes[] = {{1, 13, 1}, {16, 37, 1}, {11, 11, 11},
                            {4, 6, 2}};
    u64 seed = 100;
    for (const Shape& sh : shapes) {
        for (const u32 kernel : {1u, 4u, 5u, 9u}) {
            for (const u32 stride : {1u, 3u}) {
                // T < kernel leaves no interior frame at all.
                for (const u32 t : {1u, 3u, 8u, 40u, 101u}) {
                    const Conv1d conv(sh.in, sh.out, kernel, stride,
                                      sh.groups, Activation::kSwish,
                                      seed++);
                    expectEngineMatchesLoop(
                        conv, randomTensor(t, sh.in, seed++),
                        "conv in=" + std::to_string(sh.in) +
                            " out=" + std::to_string(sh.out) +
                            " groups=" + std::to_string(sh.groups) +
                            " k=" + std::to_string(kernel) +
                            " s=" + std::to_string(stride) +
                            " T=" + std::to_string(t));
                }
            }
        }
    }
}

TEST(Layers, DenseEngineBitIdenticalAtEveryLevel)
{
    u64 seed = 200;
    for (const u32 out : {2u, 4u, 6u, 96u}) {
        for (const u32 rows : {1u, 5u}) {
            const Dense dense(96, out, Activation::kNone, seed++);
            expectEngineMatchesLoop(dense, randomTensor(rows, 96, seed++),
                                    "dense out=" + std::to_string(out) +
                                        " rows=" + std::to_string(rows));
        }
    }
}

TEST(Layers, BiLstmEngineBitIdenticalAtEveryLevel)
{
    // Clair's two layers, and a hidden size below every vector width.
    expectEngineMatchesLoop(BiLstm(32, 48, 301), randomTensor(33, 32, 302),
                            "bilstm 32->48");
    expectEngineMatchesLoop(BiLstm(96, 48, 303), randomTensor(33, 96, 304),
                            "bilstm 96->48");
    expectEngineMatchesLoop(BiLstm(7, 5, 305), randomTensor(9, 7, 306),
                            "bilstm 7->5");
}

TEST(Bonito, ForwardEngineBitIdenticalAtEveryLevel)
{
    const BonitoModel model;
    expectEngineMatchesLoop(model, randomTensor(1000, 1, 401),
                            "bonito T=1000");
}

TEST(Clair, PredictEngineBitIdenticalAtEveryLevel)
{
    const ClairModel model;
    std::vector<float> features(kClairFeatureSize);
    Rng rng(402);
    for (auto& v : features) v = static_cast<float>(rng.uniform());
    CharProbe counting;
    const ClairOutput oracle = model.predict(features, counting);
    auto same = [](const auto& a, const auto& b) {
        return std::memcmp(a.data(), b.data(), sizeof(a)) == 0;
    };
    for (const simd::SimdLevel level : testableLevels()) {
        simd::setSimdLevel(level);
        NullProbe probe;
        const ClairOutput got = model.predict(features, probe);
        EXPECT_TRUE(same(got.alt_base, oracle.alt_base) &&
                    same(got.zygosity, oracle.zygosity) &&
                    same(got.var_type, oracle.var_type) &&
                    same(got.indel_len, oracle.indel_len))
            << simd::simdLevelName(level);
    }
    simd::resetSimdLevel();
}

} // namespace
} // namespace gb
