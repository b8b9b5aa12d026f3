#include "pipellm/predictor.hh"

#include <algorithm>

namespace pipellm {
namespace core {

Predictor::Predictor(const PredictorConfig &config)
    : config_(config), history_(config.history_cap)
{
    recognizers_.push_back(std::make_unique<RepetitiveRecognizer>());
    recognizers_.push_back(std::make_unique<FifoRecognizer>());
    recognizers_.push_back(std::make_unique<LifoRecognizer>());
    recognizers_.push_back(std::make_unique<LifoGroupRecognizer>());
    recognizers_.push_back(std::make_unique<MarkovRecognizer>());
    accuracy_.assign(recognizers_.size(), 0.0);
    cache_.resize(recognizers_.size());
}

void
Predictor::registerRecognizer(std::unique_ptr<PatternRecognizer> rec)
{
    recognizers_.push_back(std::move(rec));
    accuracy_.push_back(0.0);
    cache_.emplace_back();
}

void
Predictor::noteSwapIn(const ChunkId &chunk)
{
    // Score every recognizer's one-step shadow prediction against the
    // arriving ground truth before folding it into the history.
    bool any_hit = false;
    bool any_prediction = false;
    for (std::size_t i = 0; i < recognizers_.size(); ++i) {
        const auto &shadow = predictionOf(i, 1);
        double hit = 0.0;
        if (!shadow.empty()) {
            any_prediction = true;
            if (shadow[0].chunk == chunk) {
                hit = 1.0;
                any_hit = true;
            }
        }
        accuracy_[i] = config_.accuracy_decay * accuracy_[i] +
                       (1.0 - config_.accuracy_decay) * hit;
    }
    if (any_prediction) {
        ++shadow_total_;
        shadow_hits_ += any_hit ? 1 : 0;
    }
    history_.noteSwapIn(chunk);
    dropPredictions();
}

void
Predictor::noteSwapOut(const ChunkId &chunk)
{
    history_.noteSwapOut(chunk);
    dropPredictions();
}

void
Predictor::noteBatchBoundary()
{
    history_.noteBatchBoundary();
    dropPredictions();
}

void
Predictor::dropPredictions()
{
    for (auto &c : cache_) {
        c.asked = 0;
        c.pred.clear();
    }
}

const std::vector<PredictedSwap> &
Predictor::predictionOf(std::size_t i, std::size_t n) const
{
    Cached &c = cache_[i];
    if (n > c.asked && c.pred.size() == c.asked) {
        c.pred = recognizers_[i]->predict(history_, n);
        c.asked = n;
    }
    return c.pred;
}

std::size_t
Predictor::bestRecognizer() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < accuracy_.size(); ++i) {
        if (accuracy_[i] > accuracy_[best])
            best = i;
    }
    return best;
}

std::vector<PredictedSwap>
Predictor::predictNext(std::size_t n) const
{
    const auto *found = &predictionOf(bestRecognizer(), n);
    // Fall back to any recognizer with a signal.
    for (std::size_t i = 0; found->empty() && i < recognizers_.size();
         ++i)
        found = &predictionOf(i, n);
    std::vector<PredictedSwap> pred(
        found->begin(),
        found->begin() + std::ptrdiff_t(std::min(n, found->size())));
    if (config_.sabotage_sequence && pred.size() > 1)
        std::rotate(pred.begin(), pred.begin() + 1, pred.end());
    return pred;
}

const char *
Predictor::activePattern() const
{
    return recognizers_[bestRecognizer()]->name();
}

} // namespace core
} // namespace pipellm
