/**
 * @file
 * The PipeLLM predictor (paper §5.1): maintains the swap history,
 * scores every pattern recognizer against ground truth as it streams
 * in, and serves multi-step predictions from the currently most
 * accurate recognizer.
 *
 * f([B_0..B_n], {outstanding}, IV_cur) -> (C_next, IV_next)
 *
 * The chunk half of f lives here; IV assignment (the leeway rule)
 * lives in the speculative pipeline, which owns the counters.
 */

#ifndef PIPELLM_PIPELLM_PREDICTOR_HH
#define PIPELLM_PIPELLM_PREDICTOR_HH

#include <memory>
#include <vector>

#include "pipellm/history.hh"
#include "pipellm/patterns.hh"

namespace pipellm {
namespace core {

/** Predictor configuration. */
struct PredictorConfig
{
    /** Exponential moving-average factor for accuracy scoring. */
    double accuracy_decay = 0.9;
    /** Flattened history capacity. */
    std::size_t history_cap = 1024;
    /**
     * Fig. 10 ablation ("PipeLLM-0"): rotate the predicted sequence
     * so the next-chunk prediction is always wrong while the
     * predicted *set* stays useful — success rate of the sequence
     * prediction is forced to zero.
     */
    bool sabotage_sequence = false;
};

/** Accuracy-scored multi-pattern predictor. */
class Predictor
{
  public:
    explicit Predictor(const PredictorConfig &config = PredictorConfig{});

    /**
     * Record a ground-truth swap-in. Each recognizer's one-step
     * shadow prediction is scored against it before the history is
     * updated.
     */
    void noteSwapIn(const ChunkId &chunk);

    void noteSwapOut(const ChunkId &chunk);
    void noteBatchBoundary();

    /** Predict the next @p n swap-ins from the best recognizer. */
    std::vector<PredictedSwap> predictNext(std::size_t n) const;

    /**
     * Register an additional pattern recognizer (§5.1: "PipeLLM's
     * predictor is general and can easily extend to other patterns").
     * It immediately joins the accuracy race on equal terms. Its
     * predictions must depend on the history alone: they are cached
     * until the history next changes.
     */
    void registerRecognizer(std::unique_ptr<PatternRecognizer> rec);

    /** Name of the recognizer currently winning the accuracy race. */
    const char *activePattern() const;

    /** EMA accuracy of recognizer @p i (test introspection). */
    double accuracy(std::size_t i) const { return accuracy_[i]; }
    std::size_t recognizers() const { return recognizers_.size(); }

    const SwapHistory &history() const { return history_; }

    /** Shadow-prediction hit statistics (over all recognizers' best). */
    std::uint64_t shadowHits() const { return shadow_hits_; }
    std::uint64_t shadowTotal() const { return shadow_total_; }

  private:
    /**
     * One recognizer's prediction for the current history, computed
     * for @c asked steps. Every recognizer is a const function of the
     * history and its n-step output is a prefix of any longer one, so
     * the entry answers every request up to @c asked, and any larger
     * one when it came back short (the recognizer stopped). Dropped
     * whenever the history changes.
     */
    struct Cached
    {
        std::size_t asked = 0;
        std::vector<PredictedSwap> pred;
    };

    std::size_t bestRecognizer() const;
    /** Recognizer @p i's prediction, at least @p n steps if it has them. */
    const std::vector<PredictedSwap> &predictionOf(std::size_t i,
                                                   std::size_t n) const;
    void dropPredictions();

    PredictorConfig config_;
    SwapHistory history_;
    std::vector<std::unique_ptr<PatternRecognizer>> recognizers_;
    std::vector<double> accuracy_;
    mutable std::vector<Cached> cache_;
    std::uint64_t shadow_hits_ = 0;
    std::uint64_t shadow_total_ = 0;
};

} // namespace core
} // namespace pipellm

#endif // PIPELLM_PIPELLM_PREDICTOR_HH
