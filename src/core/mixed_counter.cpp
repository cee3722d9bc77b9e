#include "core/mixed_counter.hpp"

#include <stdexcept>
#include <string>

#include "core/counter.hpp"
#include "obs/metrics.hpp"
#include "sched/driver.hpp"
#include "sched/plan.hpp"
#include "treelet/mixed_partition.hpp"
#include "util/error.hpp"

namespace fascia {

namespace detail {

CountResult count_mixed(const Graph& graph, const MixedTemplate& tmpl,
                        const CountOptions& options, const char* kind) {
  // No reorder, per-vertex or incremental plumbing for mixed plans:
  // reject instead of silently ignoring the request.
  reject_unsupported_reorder(options, kind);
  const std::string prefix = std::string(kind) + ": ";
  if (options.per_vertex) {
    throw std::invalid_argument(prefix + "per-vertex counts are tree-only");
  }
  if (options.execution.incremental) {
    throw usage_error(prefix + "incremental recounts are tree-only");
  }
  const int k = options.sampling.num_colors > 0 ? options.sampling.num_colors
                                                : tmpl.size();
  if (k < tmpl.size() || k > kMaxTemplateSize) {
    throw std::invalid_argument(prefix + "bad color count");
  }
  if (options.sampling.iterations < 1) {
    throw std::invalid_argument(prefix + "iterations must be >= 1");
  }
  options.validate();
  if (options.observability.enabled) obs::set_enabled(true);

  const sched::BatchPlan plan =
      sched::plan_partition(partition_mixed_template(tmpl, options.root), k,
                            tmpl.size(), mixed_automorphisms(tmpl),
                            options.root);
  // The description names every edge (triangle edges included), the
  // triangle count and the labels, so the checkpoint fingerprint tells
  // mixed templates apart from each other and from trees.
  return run_count(graph, {tmpl.describe(), tmpl.size(), 0}, options, plan,
                   kind, {}, 0.0);
}

}  // namespace detail

CountResult count_mixed_template(const Graph& graph,
                                 const MixedTemplate& tmpl,
                                 const CountOptions& options) {
  if (tmpl.is_tree()) {
    return count_template(graph, tmpl.as_tree(), options);
  }
  if (tmpl.has_labels() != graph.has_labels()) {
    throw std::invalid_argument(
        "count_mixed_template: template and graph must both be labeled or "
        "both unlabeled");
  }
  return detail::count_mixed(graph, tmpl, options, "count_mixed_template");
}

}  // namespace fascia
