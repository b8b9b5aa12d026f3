#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/rng.hh"
#include "pipellm/predictor.hh"

using namespace pipellm;
using namespace pipellm::core;

namespace {

ChunkId
chunk(int i)
{
    return ChunkId{Addr(0x100000 + i * 0x10000), 64 * KiB};
}

} // namespace

TEST(Predictor, LearnsRepetitivePattern)
{
    Predictor p;
    for (int c = 0; c < 6; ++c) {
        for (int l = 0; l < 8; ++l)
            p.noteSwapIn(chunk(l));
        p.noteBatchBoundary();
    }
    EXPECT_STREQ(p.activePattern(), "repetitive");
    p.noteSwapIn(chunk(0));
    auto pred = p.predictNext(3);
    ASSERT_EQ(pred.size(), 3u);
    EXPECT_EQ(pred[0].chunk, chunk(1));
    EXPECT_EQ(pred[1].chunk, chunk(2));
    EXPECT_EQ(pred[2].chunk, chunk(3));
}

TEST(Predictor, LearnsLifoPattern)
{
    Predictor p;
    // vLLM-style: swap out a group, swap back in LIFO, repeatedly.
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 4; ++i)
            p.noteSwapOut(chunk(round * 10 + i));
        for (int i = 3; i >= 0; --i) {
            p.noteSwapIn(chunk(round * 10 + i));
        }
        p.noteBatchBoundary();
    }
    EXPECT_STREQ(p.activePattern(), "lifo");
    p.noteSwapOut(chunk(100));
    p.noteSwapOut(chunk(101));
    auto pred = p.predictNext(2);
    ASSERT_EQ(pred.size(), 2u);
    EXPECT_EQ(pred[0].chunk, chunk(101));
    EXPECT_EQ(pred[1].chunk, chunk(100));
}

TEST(Predictor, LearnsFifoPattern)
{
    Predictor p;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 4; ++i)
            p.noteSwapOut(chunk(round * 10 + i));
        for (int i = 0; i < 4; ++i)
            p.noteSwapIn(chunk(round * 10 + i));
        p.noteBatchBoundary();
    }
    EXPECT_STREQ(p.activePattern(), "fifo");
}

TEST(Predictor, AccuracyConvergesNearOne)
{
    Predictor p;
    for (int c = 0; c < 20; ++c)
        for (int l = 0; l < 6; ++l)
            p.noteSwapIn(chunk(l));
    // The repetitive recognizer (index 0) should be nearly perfect.
    EXPECT_GT(p.accuracy(0), 0.9);
    EXPECT_GT(double(p.shadowHits()) / double(p.shadowTotal()), 0.9);
}

TEST(Predictor, SwitchesPatternsWhenWorkloadChanges)
{
    Predictor p;
    // Phase 1: repetitive.
    for (int c = 0; c < 6; ++c)
        for (int l = 0; l < 4; ++l)
            p.noteSwapIn(chunk(l));
    EXPECT_STREQ(p.activePattern(), "repetitive");
    // Phase 2: LIFO swapping of fresh chunks.
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 3; ++i)
            p.noteSwapOut(chunk(1000 + round * 10 + i));
        for (int i = 2; i >= 0; --i)
            p.noteSwapIn(chunk(1000 + round * 10 + i));
    }
    EXPECT_STREQ(p.activePattern(), "lifo");
}

TEST(Predictor, SabotageRotatesSequence)
{
    PredictorConfig cfg;
    cfg.sabotage_sequence = true;
    Predictor p(cfg);
    for (int c = 0; c < 6; ++c)
        for (int l = 0; l < 8; ++l)
            p.noteSwapIn(chunk(l));
    p.noteSwapIn(chunk(0));
    auto pred = p.predictNext(4);
    ASSERT_EQ(pred.size(), 4u);
    // The true next chunk (1) must NOT be first, but must be present.
    EXPECT_NE(pred[0].chunk, chunk(1));
    EXPECT_EQ(pred.back().chunk, chunk(1));
}

TEST(Predictor, NoPredictionWithoutHistory)
{
    Predictor p;
    EXPECT_TRUE(p.predictNext(4).empty());
}

TEST(Predictor, FallsBackWhenBestRecognizerIsSilent)
{
    Predictor p;
    // Outstanding chunks exist, but no swap-in history: the
    // repetitive recognizer is silent; fifo/lifo still predict.
    p.noteSwapOut(chunk(1));
    p.noteSwapOut(chunk(2));
    auto pred = p.predictNext(2);
    EXPECT_EQ(pred.size(), 2u);
}

namespace {

/** A toy recognizer that always predicts one fixed chunk. */
class ConstantRecognizer : public PatternRecognizer
{
  public:
    explicit ConstantRecognizer(ChunkId c) : chunk_(c) {}
    const char *name() const override { return "constant"; }
    std::vector<PredictedSwap>
    predict(const SwapHistory &, std::size_t n) const override
    {
        return std::vector<PredictedSwap>(
            std::min<std::size_t>(n, 1), PredictedSwap{chunk_, false});
    }

  private:
    ChunkId chunk_;
};

} // namespace

TEST(Predictor, RegisteredRecognizerJoinsTheRace)
{
    // §5.1: the predictor is extensible. A custom recognizer that is
    // always right on this workload must win the accuracy race.
    Predictor p;
    auto n_before = p.recognizers();
    p.registerRecognizer(
        std::make_unique<ConstantRecognizer>(chunk(42)));
    EXPECT_EQ(p.recognizers(), n_before + 1);

    for (int i = 0; i < 30; ++i)
        p.noteSwapIn(chunk(42));
    EXPECT_STREQ(p.activePattern(), "constant");
    auto pred = p.predictNext(1);
    ASSERT_EQ(pred.size(), 1u);
    EXPECT_EQ(pred[0].chunk, chunk(42));
}

TEST(Predictor, MarkovInTheRaceByDefault)
{
    Predictor p;
    bool has_markov = false;
    // The built-in set includes the frequency recognizer.
    for (std::size_t i = 0; i < p.recognizers(); ++i)
        has_markov = true; // count only; names not exposed per index
    EXPECT_TRUE(has_markov);
    EXPECT_EQ(p.recognizers(), 5u);
}

TEST(Predictor, BatchBoundaryDropsCachedPredictions)
{
    // A boundary changes no swap-in, yet it can change a prediction:
    // a preempted group turns stale four batches after its swap-out,
    // which caps the group-LIFO prediction at 32 chunks.
    Predictor p;
    int fresh = 1000;
    for (int round = 0; round < 10; ++round) {
        // Two groups out; the newer resumes first, in block order.
        for (int g = 0; g < 2; ++g) {
            for (int i = 0; i < 4; ++i)
                p.noteSwapOut(chunk(round * 10 + g * 4 + i));
            p.noteBatchBoundary();
        }
        for (int g = 1; g >= 0; --g) {
            for (int i = 0; i < 4; ++i)
                p.noteSwapIn(chunk(round * 10 + g * 4 + i));
            p.noteBatchBoundary();
        }
    }
    ASSERT_STREQ(p.activePattern(), "lifo-group");

    for (int i = 0; i < 40; ++i)
        p.noteSwapOut(chunk(500 + i));
    p.noteBatchBoundary();
    for (int b = 0; b < 3; ++b) {
        p.noteSwapIn(chunk(fresh++));
        p.noteBatchBoundary();
    }
    p.noteSwapIn(chunk(fresh++));
    ASSERT_STREQ(p.activePattern(), "lifo-group");
    EXPECT_EQ(p.predictNext(64).size(), 40u);
    p.noteBatchBoundary();
    EXPECT_EQ(p.predictNext(64).size(), 32u);
}

namespace {

/**
 * The Markov recognizer as first written: the whole successor table
 * over the 256-entry window, rebuilt on every call. Oracle for the
 * lazily built table, including its tie-break order.
 */
class EagerMarkov : public PatternRecognizer
{
  public:
    const char *name() const override { return "eager-markov"; }

    std::vector<PredictedSwap>
    predict(const SwapHistory &history, std::size_t n) const override
    {
        const auto &h = history.swapIns();
        const auto &b = history.batchIds();
        if (h.size() < 2)
            return {};
        struct Edge
        {
            unsigned count = 0;
            unsigned boundary = 0;
        };
        std::unordered_map<
            ChunkId, std::unordered_map<ChunkId, Edge, ChunkIdHash>,
            ChunkIdHash>
            successors;
        std::size_t first = h.size() > 256 ? h.size() - 256 : 0;
        for (std::size_t i = first; i + 1 < h.size(); ++i) {
            auto &edge = successors[h[i]][h[i + 1]];
            ++edge.count;
            if (b[i + 1] != b[i])
                ++edge.boundary;
        }
        std::vector<PredictedSwap> out;
        ChunkId cur = h.back();
        std::unordered_map<ChunkId, unsigned, ChunkIdHash> visits;
        while (out.size() < n) {
            auto it = successors.find(cur);
            if (it == successors.end())
                break;
            const ChunkId *best = nullptr;
            const Edge *best_edge = nullptr;
            for (const auto &[next, edge] : it->second) {
                if (!best || edge.count > best_edge->count) {
                    best = &next;
                    best_edge = &edge;
                }
            }
            if (!best || best_edge->count < 2)
                break;
            if (++visits[*best] > 4)
                break;
            bool boundary = best_edge->boundary * 2 > best_edge->count;
            out.push_back(PredictedSwap{*best, boundary});
            cur = *best;
        }
        return out;
    }
};

/**
 * The suffix matcher as first written: it copies the history and
 * extends the copy with its own guesses. Oracle for the in-place scan.
 */
class CopyingRepetitive : public PatternRecognizer
{
  public:
    explicit CopyingRepetitive(std::size_t max_context = 64,
                               std::size_t scan_limit = 512)
        : max_context_(max_context), scan_limit_(scan_limit)
    {
    }

    const char *name() const override { return "copying-repetitive"; }

    std::vector<PredictedSwap>
    predict(const SwapHistory &history, std::size_t n) const override
    {
        std::vector<ChunkId> h(history.swapIns().begin(),
                               history.swapIns().end());
        std::vector<std::uint32_t> b(history.batchIds().begin(),
                                     history.batchIds().end());
        if (h.size() < 2)
            return {};
        std::vector<PredictedSwap> out;
        std::uint32_t synthetic_batch = b.back();
        for (std::size_t step = 0; step < n; ++step) {
            std::size_t m = h.size();
            std::size_t best_len = 0;
            std::size_t best_j = 0;
            std::size_t j_min =
                m - 1 > scan_limit_ ? m - 1 - scan_limit_ : 1;
            for (std::size_t j = m - 1; j >= j_min; --j) {
                if (!(h[j - 1] == h[m - 1]))
                    continue;
                std::size_t l = 0;
                while (l < max_context_ && l < j &&
                       h[j - 1 - l] == h[m - 1 - l])
                    ++l;
                if (l > best_len) {
                    best_len = l;
                    best_j = j;
                    if (l >= max_context_)
                        break;
                }
            }
            if (best_len == 0)
                break;
            ChunkId next = h[best_j];
            bool boundary = b[best_j] != b[best_j - 1];
            if (boundary)
                ++synthetic_batch;
            out.push_back(PredictedSwap{next, boundary});
            h.push_back(next);
            b.push_back(synthetic_batch);
        }
        return out;
    }

  private:
    std::size_t max_context_;
    std::size_t scan_limit_;
};

/**
 * Predictor's scoring and selection over uncached recognizers: the
 * built-in set in its registration order, with the two oracles above
 * standing in for the suffix matcher and the Markov recognizer.
 */
class ReferencePredictor
{
  public:
    explicit ReferencePredictor(const PredictorConfig &config)
        : config_(config), history_(config.history_cap)
    {
        recs_.push_back(std::make_unique<CopyingRepetitive>());
        recs_.push_back(std::make_unique<FifoRecognizer>());
        recs_.push_back(std::make_unique<LifoRecognizer>());
        recs_.push_back(std::make_unique<LifoGroupRecognizer>());
        recs_.push_back(std::make_unique<EagerMarkov>());
        accuracy_.assign(recs_.size(), 0.0);
    }

    void
    noteSwapIn(const ChunkId &c)
    {
        for (std::size_t i = 0; i < recs_.size(); ++i) {
            auto shadow = recs_[i]->predict(history_, 1);
            double hit = !shadow.empty() && shadow[0].chunk == c;
            accuracy_[i] = config_.accuracy_decay * accuracy_[i] +
                           (1.0 - config_.accuracy_decay) * hit;
        }
        history_.noteSwapIn(c);
    }

    void noteSwapOut(const ChunkId &c) { history_.noteSwapOut(c); }
    void noteBatchBoundary() { history_.noteBatchBoundary(); }

    std::vector<PredictedSwap>
    predictNext(std::size_t n) const
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < accuracy_.size(); ++i) {
            if (accuracy_[i] > accuracy_[best])
                best = i;
        }
        auto pred = recs_[best]->predict(history_, n);
        for (std::size_t i = 0; pred.empty() && i < recs_.size(); ++i)
            pred = recs_[i]->predict(history_, n);
        if (config_.sabotage_sequence && pred.size() > 1)
            std::rotate(pred.begin(), pred.begin() + 1, pred.end());
        return pred;
    }

    const SwapHistory &history() const { return history_; }
    double accuracy(std::size_t i) const { return accuracy_[i]; }

  private:
    PredictorConfig config_;
    SwapHistory history_;
    std::vector<std::unique_ptr<PatternRecognizer>> recs_;
    std::vector<double> accuracy_;
};

void
expectSamePredictions(const std::vector<PredictedSwap> &got,
                      const std::vector<PredictedSwap> &want,
                      const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].chunk, want[k].chunk) << where << " k=" << k;
        EXPECT_EQ(got[k].batch_start, want[k].batch_start)
            << where << " k=" << k;
    }
}

} // namespace

TEST(PredictorDifferential, CachedPredictionsMatchUncachedRecognizers)
{
    // A seeded mix of layer cycles, preempted groups resumed LIFO (or
    // in block order, or left out) and noise, long enough to roll the 1,024-entry
    // history over. At every step the cached predictor must agree
    // with the recognizers called directly, uncached; the predictNext
    // calls come in a random order so every cache path is taken.
    for (bool sabotage : {false, true}) {
        PredictorConfig cfg;
        cfg.sabotage_sequence = sabotage;
        Predictor p(cfg);
        ReferencePredictor ref(cfg);
        MarkovRecognizer markov;
        EagerMarkov eager_markov;
        // A short context cap and window, so capped contexts and a
        // full window occur on almost every call.
        RepetitiveRecognizer short_repetitive(4, 40);
        CopyingRepetitive copying_short_repetitive(4, 40);
        Rng rng(sabotage ? 7 : 3);

        int next_fresh = 5000;
        auto swapIn = [&](const ChunkId &c) {
            p.noteSwapIn(c);
            ref.noteSwapIn(c);
        };
        auto swapOut = [&](const ChunkId &c) {
            p.noteSwapOut(c);
            ref.noteSwapOut(c);
        };
        auto boundary = [&] {
            p.noteBatchBoundary();
            ref.noteBatchBoundary();
        };
        auto check = [&](int step) {
            std::string where = "sabotage=" + std::to_string(sabotage) +
                                " step=" + std::to_string(step);
            std::vector<std::size_t> ns{1, 7, 64};
            for (std::size_t k = ns.size(); k > 1; --k)
                std::swap(ns[k - 1], ns[rng.uniformInt(0, k - 1)]);
            // Sometimes skip predicting: the next swap-in's shadow
            // score then fills the cache with a 1-step answer.
            if (rng.bernoulli(0.2))
                ns.resize(rng.uniformInt(0, 1));
            for (std::size_t n : ns) {
                expectSamePredictions(p.predictNext(n),
                                      ref.predictNext(n),
                                      where + " n=" + std::to_string(n));
                expectSamePredictions(
                    markov.predict(p.history(), n),
                    eager_markov.predict(p.history(), n),
                    where + " markov n=" + std::to_string(n));
                expectSamePredictions(
                    short_repetitive.predict(p.history(), n),
                    copying_short_repetitive.predict(p.history(), n),
                    where + " short repetitive n=" + std::to_string(n));
            }
            for (std::size_t i = 0; i < p.recognizers(); ++i)
                ASSERT_EQ(p.accuracy(i), ref.accuracy(i)) << where;
        };

        int step = 0;
        while (p.history().totalSwapIns() < 1400) {
            switch (rng.uniformInt(0, 3)) {
              case 0: { // a layer cycle, sometimes with a skip
                int len = int(rng.uniformInt(3, 12));
                int rounds = int(rng.uniformInt(1, 3));
                for (int r = 0; r < rounds; ++r) {
                    for (int l = 0; l < len; ++l) {
                        if (rng.bernoulli(0.05))
                            continue;
                        swapIn(chunk(l));
                        check(step++);
                    }
                    boundary();
                    check(step++);
                }
                break;
              }
              case 1: { // a preempted group, resumed LIFO or in order
                int g = int(rng.uniformInt(2, 40));
                int base = next_fresh;
                next_fresh += g;
                for (int i = 0; i < g; ++i) {
                    swapOut(chunk(base + i));
                    check(step++);
                }
                boundary();
                check(step++);
                // Or left out: later batches turn it stale, which caps
                // the group-LIFO prediction at 32 chunks.
                if (rng.bernoulli(0.25))
                    break;
                bool lifo = rng.bernoulli(0.5);
                for (int i = 0; i < g; ++i) {
                    swapIn(chunk(lifo ? base + g - 1 - i : base + i));
                    check(step++);
                }
                boundary();
                break;
              }
              case 2: // noise among a small set, so Markov sees ties
                for (int i = int(rng.uniformInt(1, 6)); i > 0; --i) {
                    swapIn(chunk(100 + int(rng.uniformInt(0, 5))));
                    check(step++);
                }
                break;
              default: // a stray swap-out or an empty boundary
                if (rng.bernoulli(0.5))
                    swapOut(chunk(100 + int(rng.uniformInt(0, 5))));
                else
                    boundary();
                check(step++);
                break;
            }
            if (HasFatalFailure() || HasNonfatalFailure())
                return;
        }
    }
}
