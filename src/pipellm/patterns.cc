#include "pipellm/patterns.hh"

#include <algorithm>
#include <unordered_map>

namespace pipellm {
namespace core {

RepetitiveRecognizer::RepetitiveRecognizer(std::size_t max_context,
                                           std::size_t scan_limit)
    : max_context_(max_context), scan_limit_(scan_limit)
{
}

std::vector<PredictedSwap>
RepetitiveRecognizer::predict(const SwapHistory &history,
                              std::size_t n) const
{
    const auto &h = history.swapIns();
    const auto &b = history.batchIds();
    const std::size_t hist = h.size();
    const std::size_t cap = max_context_;
    if (hist < 2 || cap == 0)
        return {};

    // The sequence searched is the history followed by this call's
    // own guesses, so multi-step prediction extends it as it goes.
    // Positions are absolute; only the tail the scan can reach, from
    // `first` on, is copied.
    const std::size_t first =
        hist > scan_limit_ + cap + 1 ? hist - scan_limit_ - cap - 1 : 0;
    std::vector<ChunkId> seq(h.begin() + std::ptrdiff_t(first), h.end());
    auto at = [&](std::size_t k) -> const ChunkId & {
        return seq[k - first];
    };
    // Batch ids of the guesses extend the history's in parallel, so
    // boundary predictions replay the source cycle's boundaries.
    std::vector<std::uint32_t> guess_batch;
    auto batchAt = [&](std::size_t k) {
        return k < hist ? b[k] : guess_batch[k - hist];
    };

    // The context at position j is the length of the common suffix of
    // the sequence up to j and of the whole sequence, capped. Each step
    // replays what followed the longest context in the scan window, the
    // most recent one on a tie. ctx[j - first] holds the context at j
    // and the step that computed it; an entry from an older step stands
    // for 0, so a step writes only the positions that match.
    struct Ctx
    {
        std::size_t step = 0;
        std::size_t len = 0;
    };
    std::vector<Ctx> ctx(seq.size());
    std::vector<PredictedSwap> out;
    std::uint32_t synthetic_batch = b.back();
    std::size_t best_j = 0;
    std::size_t best_len = 0;
    for (std::size_t step = 1; out.size() < n; ++step) {
        const std::size_t m = first + seq.size();
        const ChunkId &last = at(m - 1);
        // Once a context reaches the cap, the one after it is capped at
        // the next step (it ends with the guess just replayed), so from
        // then on only positions above the last winner can win.
        const std::size_t lo =
            best_len >= cap ? best_j + 1
            : m - 1 > scan_limit_ ? m - 1 - scan_limit_
                                  : 1;
        best_len = 0;
        // Scan backwards so ties prefer the most recent occurrence.
        for (std::size_t j = m - 1; j >= lo; --j) {
            if (!(at(j - 1) == last))
                continue;
            std::size_t l = 0;
            if (step == 1) {
                while (l < cap && l < j && at(j - 1 - l) == at(m - 1 - l))
                    ++l;
            } else {
                // One longer than the context at j - 1 was a step ago;
                // walking down leaves that entry still unwritten.
                const Ctx &before = ctx[j - 1 - first];
                l = std::min(cap,
                             (before.step == step - 1 ? before.len : 0) + 1);
            }
            ctx[j - first] = Ctx{step, l};
            if (l > best_len) {
                best_len = l;
                best_j = j;
                if (l >= cap)
                    break;
            }
        }
        if (best_len == 0)
            break;

        // What followed the matched context, and whether a batch
        // boundary sat between the matched position and its successor.
        ChunkId next = at(best_j);
        bool boundary = batchAt(best_j) != batchAt(best_j - 1);
        if (boundary)
            ++synthetic_batch;
        out.push_back(PredictedSwap{next, boundary});
        seq.push_back(next);
        guess_batch.push_back(synthetic_batch);
        ctx.emplace_back();
    }
    return out;
}

std::vector<PredictedSwap>
FifoRecognizer::predict(const SwapHistory &history, std::size_t n) const
{
    const auto &out = history.outstanding();
    std::vector<PredictedSwap> pred;
    for (auto it = out.begin(); it != out.end() && pred.size() < n; ++it)
        pred.push_back(PredictedSwap{it->chunk, false});
    return pred;
}

std::vector<PredictedSwap>
LifoRecognizer::predict(const SwapHistory &history, std::size_t n) const
{
    const auto &out = history.outstanding();
    std::vector<PredictedSwap> pred;
    for (auto it = out.rbegin(); it != out.rend() && pred.size() < n;
         ++it) {
        pred.push_back(PredictedSwap{it->chunk, false});
    }
    return pred;
}

std::vector<PredictedSwap>
LifoGroupRecognizer::predict(const SwapHistory &history,
                             std::size_t n) const
{
    const auto &out = history.outstanding();
    std::vector<PredictedSwap> pred;
    if (out.empty())
        return pred;
    // Only the newest group (the run of equal swap-out batch at the
    // tail) is predicted, in its original block order. Older groups
    // resume much later — under LIFO, usually after yet another
    // preemption has re-planned everything — so claims on them would
    // mostly be relinquished waste.
    auto group_begin = out.end();
    std::uint32_t tag = std::prev(out.end())->batch;
    while (group_begin != out.begin() &&
           std::prev(group_begin)->batch == tag) {
        --group_begin;
    }

    // A *freshly* preempted group is worth pre-encrypting in full (it
    // resumes first under LIFO, often soon). A stale group — one that
    // has merely become the tail after newer groups resumed — will
    // either resume slowly (light load; the window refills as blocks
    // are consumed) or be displaced by another preemption (heavy
    // load), so only a small prefix is speculated.
    bool fresh = tag + 4 >= history.currentBatch();
    std::size_t limit = fresh ? n : std::min<std::size_t>(n, 32);

    bool first = true;
    for (auto it = group_begin;
         it != out.end() && pred.size() < limit; ++it) {
        pred.push_back(PredictedSwap{it->chunk, first});
        first = false;
    }
    return pred;
}

MarkovRecognizer::MarkovRecognizer(unsigned min_support)
    : min_support_(min_support)
{
}

std::vector<PredictedSwap>
MarkovRecognizer::predict(const SwapHistory &history,
                          std::size_t n) const
{
    const auto &h = history.swapIns();
    const auto &b = history.batchIds();
    if (h.size() < 2)
        return {};

    // Successor frequencies over a recent window of the rolling
    // history; each edge tracks whether the transition most often
    // crosses a batch boundary. Only the chunks the walk visits need
    // their successor set, each built by one pass over the window's
    // source addresses, copied once. A set receives its keys in window
    // order, so its iteration order (which breaks count ties below) is
    // that of a table built over every chunk at once.
    struct Edge
    {
        unsigned count = 0;
        unsigned boundary = 0;
    };
    using Successors = std::unordered_map<ChunkId, Edge, ChunkIdHash>;
    const std::size_t first = h.size() > 256 ? h.size() - 256 : 0;
    std::vector<Addr> sources;
    sources.reserve(h.size() - 1 - first);
    for (auto it = h.begin() + std::ptrdiff_t(first); it + 1 != h.end();
         ++it)
        sources.push_back(it->addr);
    auto successorsOf = [&](const ChunkId &chunk) {
        Successors succ;
        for (std::size_t t = 0; t < sources.size(); ++t) {
            std::size_t i = first + t;
            if (sources[t] != chunk.addr || !(h[i] == chunk))
                continue;
            auto &edge = succ[h[i + 1]];
            ++edge.count;
            if (b[i + 1] != b[i])
                ++edge.boundary;
        }
        return succ;
    };

    std::vector<PredictedSwap> out;
    ChunkId cur = h.back();
    std::unordered_map<ChunkId, unsigned, ChunkIdHash> visits;
    while (out.size() < n) {
        const ChunkId *best = nullptr;
        const Edge *best_edge = nullptr;
        const Successors succ = successorsOf(cur);
        for (const auto &[next, edge] : succ) {
            if (!best || edge.count > best_edge->count) {
                best = &next;
                best_edge = &edge;
            }
        }
        if (!best || best_edge->count < min_support_)
            break;
        // Avoid spinning forever on tight sub-loops the chain cannot
        // leave: stop after revisiting a chunk a few times.
        if (++visits[*best] > 4)
            break;
        bool boundary = best_edge->boundary * 2 > best_edge->count;
        out.push_back(PredictedSwap{*best, boundary});
        cur = *best;
    }
    return out;
}

} // namespace core
} // namespace pipellm
