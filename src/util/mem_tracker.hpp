#pragma once
// Logical-allocation accounting for the dynamic-programming tables.
//
// The paper's Figures 6 and 7 report *peak table memory* for the naive,
// improved, and hash layouts.  Instead of sampling the OS RSS (noisy,
// allocator-dependent, useless for comparing layouts within one
// process), every table implementation reports the bytes it logically
// allocates/frees to this global tracker.  The tracker keeps a current
// and a high-water-mark figure; benches reset the peak around the DP.
//
// Counters are atomics shared by every thread, so tables keep updates
// off their per-row paths: the lazy layouts (compact, succinct) are
// charged once per arena chunk (dp/row_arena.hpp), the others per
// allocation or resize.  Current and peak therefore include, per live
// lazy table, at most one partly filled chunk per committing thread.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fascia {

class MemTracker {
 public:
  static void add(std::size_t bytes) noexcept;
  static void sub(std::size_t bytes) noexcept;

  static std::size_t current() noexcept;
  static std::size_t peak() noexcept;

  /// Resets the peak to the current level (call before a measured phase).
  static void reset_peak() noexcept;

  /// Zeroes both counters; only sensible between independent runs when
  /// no tables are alive.
  static void reset_all() noexcept;

 private:
  static std::atomic<std::int64_t> current_;
  static std::atomic<std::int64_t> peak_;
};

/// RAII guard: resets the peak on construction, exposes the measured
/// peak on destruction via the bound output variable.
class PeakMemScope {
 public:
  explicit PeakMemScope(std::size_t& out_peak) noexcept : out_(out_peak) {
    MemTracker::reset_peak();
  }
  ~PeakMemScope() { out_ = MemTracker::peak(); }

  PeakMemScope(const PeakMemScope&) = delete;
  PeakMemScope& operator=(const PeakMemScope&) = delete;

 private:
  std::size_t& out_;
};

}  // namespace fascia
