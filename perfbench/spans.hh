/**
 * @file
 * Benchmark-side spans: host wall-clock intervals recorded around the
 * calls the benchmark makes into each simulator layer, kept in memory
 * and written at exit as Chrome trace-event JSON (open it in
 * ui.perfetto.dev or chrome://tracing). Each span has an id and its
 * parent's id (workload -> phase -> sweep point -> layer call). Only
 * the benchmark's main thread records spans.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hh"

namespace perfbench {

/** @p s as a quoted, escaped JSON string. */
std::string jsonString(const std::string &s);

class Tracer
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = root
        std::string name;
        std::string layer;
        double start_us = 0;
        double dur_us = 0;
    };

    Tracer();

    /** Open a span under @p parent; returns its id (never 0). */
    std::uint64_t begin(std::string name, std::string layer,
                        std::uint64_t parent);

    /** Close span @p id. */
    void end(std::uint64_t id);

    std::size_t size() const;

    /**
     * Write every span as a complete ("X") event, with @p table (the
     * per-layer metrics) and @p info under "otherData".
     * @return false when the file cannot be written
     */
    bool writeChromeJson(
        const std::string &path, const NamedValues &table,
        const std::vector<std::pair<std::string, std::string>> &info) const;

  private:
    double nowUs() const;

    const std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_; ///< id = index + 1
};

/** RAII span; does nothing (id 0) when no tracer is attached. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::string name, std::string layer,
               std::uint64_t parent)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(std::move(name), std::move(layer),
                                     parent)
                     : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
