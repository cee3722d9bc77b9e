#pragma once
// RunReport: one structured, versioned JSON document per public run
// (count_template / graphlet_degrees / sched::run_batch /
// count_all_treelets / the exact counters).  It captures what the run
// was asked to do (resolved options), what it ran over (graph stats),
// how it went (per-iteration and per-stage timings, memory plan vs.
// observed peak, estimate + stderr trajectory), and how it ended
// (RunStatus + resilience activity).
//
// Every result type carries one via RunOutcome::report
// (run/controls.hpp); the CLI dumps it with --report out.json.  The
// schema is versioned (kSchemaVersion) and round-trips through
// to_json()/from_json() byte-identically — tests/test_obs.cpp holds
// the round-trip and cross-thread-count determinism properties, CI
// jq-checks an emitted document.
//
// This header depends only on obs/json.hpp and std, so every module
// (including util) can attach reports without layering cycles.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace fascia::obs {

inline constexpr int kSchemaVersion = 1;

struct ReportStage {
  int node = -1;             ///< subtemplate id (partition order)
  std::string kernel;        ///< "pair"/"active"/"passive"/"general"
  std::string table;         ///< table kind the stage wrote
  int passes = 0;            ///< colorings that computed this stage
  int narrow_passes = 0;     ///< of those, passes stored at 4 bytes/entry
  double max_bound = 0.0;    ///< largest entry bound any pass computed
  /// Every pass's largest entry was tracked and at most 2^53, so every
  /// count the stage held was exact in a double.
  bool exact = false;
  double seconds = 0.0;      ///< summed wall time across passes
  double candidates = 0.0;   ///< summed frontier candidates
  double survivors = 0.0;    ///< summed nonzero output rows
  double macs = 0.0;         ///< summed multiply-accumulates
  std::int64_t parent_size = 0;
  std::int64_t active_size = 0;
};

struct ReportJob {
  std::string name;          ///< template name / job label
  double estimate = 0.0;
  double relative_stderr = 0.0;
  int iterations = 0;
  bool converged = false;
};

struct RunReport {
  std::string kind;          ///< entry point that produced the report
  std::string label;         ///< ObservabilityOptions::label passthrough

  /// Resolved option values, in resolution order ("execution.table",
  /// "sampling.iterations", ...).  A flat ordered list keeps the JSON
  /// deterministic and diff-friendly.
  std::vector<std::pair<std::string, std::string>> options;

  struct Graph {
    std::int64_t vertices = 0;
    std::int64_t edges = 0;
    std::int64_t max_degree = 0;
    bool labeled = false;
  } graph;

  struct Template {
    int vertices = 0;
    int root = -1;
    int subtemplates = 0;
  } tmpl;

  struct Sampling {
    int requested_iterations = 0;
    int completed_iterations = 0;
    int num_colors = 0;
    std::uint64_t seed = 0;
    double estimate = 0.0;
    double relative_stderr = 0.0;
    double colorful_probability = 0.0;
    std::uint64_t automorphisms = 0;
    std::vector<double> trajectory;  ///< running prefix-mean estimates
  } sampling;

  struct Timing {
    double total_seconds = 0.0;
    double plan_seconds = 0.0;
    double reorder_seconds = 0.0;
    std::vector<double> per_iteration_seconds;
  } timing;

  struct Memory {
    std::uint64_t planned_peak_bytes = 0;
    std::uint64_t observed_peak_bytes = 0;
    std::uint64_t spilled_bytes = 0;  ///< out-of-core page bytes written
    int spill_events = 0;             ///< tables paged out
    std::string table;  ///< table kind actually used
    std::vector<std::string> degradations;
  } memory;

  struct Threads {
    std::string mode;
    int outer_copies = 1;
    int inner_threads = 1;
    int omp_max_threads = 1;
  } threads;

  struct Run {
    std::string status = "completed";
    bool resumed = false;
    int resumed_iterations = 0;
    std::string resume_rejected;
    int checkpoints_written = 0;
    int checkpoint_failures = 0;
  } run;

  /// Incremental-recount activity (core/incremental.hpp).  Emitted
  /// only when `incremental` is set, so static-run documents are
  /// unchanged.
  struct Delta {
    bool incremental = false;  ///< report came from the delta path
    std::uint64_t graph_version = 0;   ///< Graph::version() counted
    std::uint64_t recounts = 0;        ///< recounts served so far
    std::uint64_t applied_edges = 0;   ///< last delta: edits applied
    std::uint64_t dirty_vertices = 0;  ///< last delta: outermost ball
    double dirty_fraction = 0.0;       ///< dirty_vertices / n
    std::uint64_t stages_recomputed = 0;  ///< non-leaf passes, all iters
    std::uint64_t rows_recomputed = 0;
    std::uint64_t rows_copied = 0;     ///< clean rows spliced verbatim
  } delta;

  /// Knobs the planner picked for this run, each with the figures
  /// that decided it.  A choice is emitted only when one was made.
  struct Choices {
    /// One-job runs: the partition (sched/plan.hpp's one-job rule).
    struct Partition {
      std::string strategy;  ///< "one_at_a_time" / "balanced"
      int root = -1;         ///< template vertex the DP is rooted at
      int stages = 0;        ///< non-leaf DP stages
      std::uint64_t modeled_peak_bytes = 0;
      int default_stages = 0;  ///< one-at-a-time at the default root
      std::uint64_t default_modeled_peak_bytes = 0;
      std::vector<std::string> pinned;  ///< "strategy", "root": caller-set
    };
    std::optional<Partition> partition;
  } choices;

  std::vector<ReportStage> stages;
  std::vector<ReportJob> jobs;  ///< batch / motif-profile runs only

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] std::string to_json_string(int indent = 2) const;

  /// Parse a document emitted by to_json().  Unknown fields are
  /// ignored; a wrong schema_version fails.  Returns false and fills
  /// `error` on failure.
  static bool from_json(const Json& doc, RunReport* out,
                        std::string* error = nullptr);
  static bool from_json_string(std::string_view text, RunReport* out,
                               std::string* error = nullptr);

  /// to_json_string() written to `path`; false + `error` on failure.
  bool write(const std::string& path, std::string* error = nullptr) const;
};

}  // namespace fascia::obs
