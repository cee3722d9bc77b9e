#include "core/count_options.hpp"

#include <string>

#include "util/error.hpp"

namespace fascia {

const char* parallel_mode_name(ParallelMode mode) noexcept {
  switch (mode) {
    case ParallelMode::kSerial:
      return "serial";
    case ParallelMode::kInnerLoop:
      return "inner";
    case ParallelMode::kOuterLoop:
      return "outer";
    case ParallelMode::kHybrid:
      return "hybrid";
  }
  return "?";
}

void CountOptions::validate() const {
  if (execution.threads < 0) {
    throw usage_error("execution.threads must be >= 0 (0 = runtime default), got " +
                      std::to_string(execution.threads));
  }
  if (execution.outer_copies < 0) {
    throw usage_error("execution.outer_copies must be >= 0 (0 = cost model), got " +
                      std::to_string(execution.outer_copies));
  }
  if (execution.outer_copies != 0 && execution.mode != ParallelMode::kHybrid) {
    throw usage_error(
        std::string("execution.outer_copies is a hybrid-mode knob; mode is ") +
        parallel_mode_name(execution.mode) +
        " (set mode=kHybrid or leave outer_copies at 0)");
  }
  if (execution.outer_copies != 0 && execution.threads > 0 &&
      execution.outer_copies > execution.threads) {
    throw usage_error("execution.outer_copies (" +
                      std::to_string(execution.outer_copies) +
                      ") exceeds execution.threads (" +
                      std::to_string(execution.threads) + ")");
  }
  if (execution.incremental) {
    if (execution.mode == ParallelMode::kOuterLoop ||
        execution.mode == ParallelMode::kHybrid) {
      throw usage_error(
          std::string("execution.incremental supports serial/inner "
                      "parallelism only; mode is ") +
          parallel_mode_name(execution.mode));
    }
    if (execution.reorder != ReorderMode::kNone) {
      throw usage_error(
          "execution.incremental and execution.reorder are mutually "
          "exclusive (retained tables are keyed on original vertex ids)");
    }
    if (run.deadline_seconds > 0.0 || run.memory_budget_bytes != 0 ||
        run.cancel != nullptr || !run.checkpoint_path.empty() ||
        !run.spill_dir.empty() || run.resume) {
      throw usage_error(
          "execution.incremental cannot combine with RunControls "
          "(deadline, memory budget, cancel, checkpoint/resume, spill): "
          "retained state must come from complete uninterrupted passes");
    }
  }
  if (run.resume && run.checkpoint_path.empty()) {
    throw usage_error(
        "run.resume requires run.checkpoint_path (use "
        "builder().resume_from(path))");
  }
  if (!run.checkpoint_path.empty() && run.checkpoint_every < 1) {
    throw usage_error("run.checkpoint_every must be >= 1, got " +
                      std::to_string(run.checkpoint_every));
  }
}

void reject_unsupported_reorder(const CountOptions& options, const char* api) {
  if (options.execution.reorder == ReorderMode::kNone) return;
  throw usage_error(std::string(api) +
                    " does not reorder the graph; set execution.reorder = "
                    "ReorderMode::kNone (it would be silently ignored)");
}

}  // namespace fascia
