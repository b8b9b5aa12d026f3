/**
 * @file
 * Every metric the benchmark reports, with its unit, better
 * direction, the layer (module) it belongs to, the end-to-end metric
 * it should move and the workload where it does most of its work.
 * BENCHMARK.json and README.md list the same names; the program
 * prints every entry on every workload (0 where a layer does not run
 * on that workload).
 */

#ifndef PERFBENCH_REGISTRY_HH
#define PERFBENCH_REGISTRY_HH

#include <string>
#include <vector>

namespace perfbench {

struct MetricInfo
{
    const char *name;
    const char *unit;
    const char *better; ///< "higher" or "lower"
    const char *module;
    const char *moves;  ///< end-to-end metric(s) it should move
    const char *where;  ///< workload(s) where it does most work
};

/** The end-to-end metrics (printed with --trace 0). */
const std::vector<MetricInfo> &endToEndMetrics();

/** The per-layer metrics (printed with --trace 1). */
const std::vector<MetricInfo> &layerMetrics();

/** The entry named @p name in either list, or null. */
const MetricInfo *findMetric(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_REGISTRY_HH
