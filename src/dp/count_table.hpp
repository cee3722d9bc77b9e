#pragma once
// Dynamic-programming count tables (§III-C).
//
// One table instance stores, for a single subtemplate of size h, the
// count of colorful embeddings rooted at each graph vertex for each
// colorset containing that vertex's color: a row holds C(k-1, h-1)
// color-rooted slots (comb/colorset.hpp), since every other colorset
// is a structural zero.  The tables themselves only see a row width.  FASCIA's
// key engineering contribution is abstracting this structure so the
// layout can vary:
//
//   * NaiveTable   — dense n x width array, everything initialized
//                    (the paper's baseline in Figs. 6-7).
//   * CompactTable — per-vertex rows allocated lazily on first commit;
//                    uninitialized vertices answer has_vertex() false,
//                    letting the DP skip them entirely (the paper's
//                    "improved" layout; ~20 % memory saving unlabeled,
//                    >90 % labeled).
//   * HashTable    — open addressing keyed by vid·Nc + I (the paper's
//                    hashing scheme; wins for high-selectivity
//                    templates, e.g. long paths on road networks).
//   * SuccinctTable — per-row nonzero packing behind a rank-indexed
//                    bitmap or sorted-slot list (Motivo-style; the
//                    layout that makes k = 10-12 tables fit fixed
//                    memory budgets).
//
// The counter is *compile-time* polymorphic over the table type: the
// innermost DP loop — where the paper measures >90 % of runtime — must
// not pay a virtual call per read.  All three classes expose the same
// duck-typed API:
//
//   bool   has_vertex(VertexId v) const;
//   double get(VertexId v, ColorsetIndex idx) const;   // 0 when absent
//   void   commit_row(VertexId v, std::span<const double> row);
//   double total() const;        // exact root reduction, see below
//   double vertex_total(VertexId v) const;
//   std::uint32_t num_colorsets() const;
//   int entry_bytes() const;   // 8 (double) or 4 (int32_t), see below
//   std::size_t bytes() const;
//
// Entry width (DESIGN.md §8, "Exact 32-bit rows"): every entry is an
// exact integer count.  A table built with TableInit::entry_bytes == 4
// stores it as int32_t; the DpEngine asks for that only when a tracked
// bound proves every entry of the stage fits.  The interface stays in
// doubles either way: commit_row converts in, get/total/vertex_total
// convert out, and int32 -> double is exact, so a narrow table reads
// back bit for bit what a wide one would.
//
// Exact root reduction: total() sums every entry as a 128-bit integer
// (detail::ExactSum) and converts to double once, so a table's total
// is the correctly rounded count whatever order its rows are visited
// in — vertex order under any reorder mode, slot order in the hash
// layout.  Entries are non-negative integer counts, so this is exact
// while each is below 2^64; a table holding a larger entry falls back
// to the double sum in its own visiting order.  vertex_total stays a
// double sum over one row.
//
// Row-borrow contract (the vectorized kernels' fast path):
//
//   static constexpr bool kContiguousRows;
//   template <class T = double> const T* row_ptr(VertexId v) const;
//
// When kContiguousRows is true, row_ptr<T>(v) returns the vertex's
// num_colorsets() entries as one contiguous array of T (nullptr when
// the vertex has no row), valid until the next commit to that vertex
// or table destruction; T must be the stored type (double for 8-byte
// tables, std::int32_t for 4-byte ones).  The DP inner loops then run
// multiply-accumulates over raw rows instead of per-element get()
// calls.  A layout without contiguous storage (hash, succinct) sets
// the flag false and returns nullptr unconditionally — callers must
// fall back to get().
//
// In-place patch contract (the incremental delta path's fast path):
//
//   static constexpr bool kPatchableRows;
//   void patch_row(VertexId v, std::span<const double> row);
//   void clear_row(VertexId v);
//
// When kPatchableRows is true, a finished table can be mutated row-
// wise after the fact: patch_row replaces (or creates) v's row with
// the given nonzero row, clear_row removes it so has_vertex(v) turns
// false again.  DpEngine::run_delta then rewrites only the dirty-ball
// rows of a retained table instead of copying every clean row into a
// fresh one — the difference between O(ball) and O(n) recounts.  Only
// the compact layout supports this (its rows are independent per-
// vertex allocations); dense, probe-table, and bit-packed layouts set
// the flag false and keep the copy-splice path.
//
// Prefetch hints (best-effort, may be no-ops):
//
//   void prefetch_slot(VertexId v) const;  // per-vertex indirection cell
//   void prefetch_row(VertexId v) const;   // the row's leading cache line
//
// The frontier sweeps issue these a few neighbors ahead of the gather:
// slot first (the compact layout must load rows_[v] before the row
// address even exists), row once the slot is expected resident.  Pure
// hints — no correctness dependency.
//
// commit_row may be called concurrently for *distinct* vertices (the
// inner-loop parallel mode does exactly that); get/has_vertex are safe
// concurrently with each other but not with commits to the same table.
// The DP never reads a table it is still writing, so this contract is
// naturally satisfied.  All layouts report logical allocations to
// MemTracker so the Figs. 6-7 benches can compare peaks.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "comb/colorset.hpp"
#include "graph/graph.hpp"

/// Best-effort cache-line prefetch; expands to nothing on compilers
/// without the builtin.
#if defined(__GNUC__) || defined(__clang__)
#define FASCIA_PREFETCH(addr) __builtin_prefetch((addr))
#else
#define FASCIA_PREFETCH(addr) ((void)sizeof(addr))
#endif

namespace fascia {

/// First-touch placement policy for table construction.  Vertex-indexed
/// arrays (the naive data block, the compact row-pointer array, the
/// hash occupied flags) are zeroed by `zero_threads` threads in the
/// SAME static partition the DP's inner-parallel sweep later uses, so
/// on a NUMA machine each page faults in on the node of the thread
/// that will write it.  Rows committed lazily (compact/hash) are
/// first-touched by the committing thread by construction.  With
/// zero_threads <= 1 (the default) initialization is serial — outer
/// engine copies each zero their own tables from their own thread,
/// which is already the right placement.
struct TableInit {
  int zero_threads = 1;
  /// Bytes per stored count: 8 (double) or 4 (int32_t).  Only the
  /// DpEngine picks 4, for stages whose tracked bound fits INT32_MAX.
  int entry_bytes = 8;
};

namespace detail {

/// Entry i of an array of `entry_bytes`-wide counts, as a double.
[[nodiscard]] inline double load_entry(const void* base, std::size_t i,
                                       int entry_bytes) noexcept {
  return entry_bytes == 4
             ? static_cast<double>(static_cast<const std::int32_t*>(base)[i])
             : static_cast<const double*>(base)[i];
}

/// Stores `value` as entry i.  A 4-byte store converts an exact count
/// the stage bound proved to fit; debug builds check the round trip.
inline void store_entry(void* base, std::size_t i, double value,
                        int entry_bytes) noexcept {
  if (entry_bytes == 4) {
    const auto narrow = static_cast<std::int32_t>(value);
    assert(static_cast<double>(narrow) == value);
    static_cast<std::int32_t*>(base)[i] = narrow;
  } else {
    static_cast<double*>(base)[i] = value;
  }
}

/// Stores row[0..count) as consecutive entries at `base`.
inline void store_entries(void* base, const double* row, std::size_t count,
                          int entry_bytes) noexcept {
  if (entry_bytes == 4) {
    auto* out = static_cast<std::int32_t*>(base);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = static_cast<std::int32_t>(row[i]);
      assert(static_cast<double>(out[i]) == row[i]);
    }
  } else {
    std::memcpy(base, row, count * sizeof(double));
  }
}

/// Writes `count` consecutive entries at `base` into out[0..count).
inline void load_entries(const void* base, std::size_t count,
                         int entry_bytes, double* out) noexcept {
  if (entry_bytes == 4) {
    const auto* in = static_cast<const std::int32_t*>(base);
    for (std::size_t i = 0; i < count; ++i) out[i] = in[i];
  } else {
    std::memcpy(out, base, count * sizeof(double));
  }
}

/// `sum` plus `count` consecutive entries, added in index order — the
/// same additions on the same doubles whatever the width.
[[nodiscard]] inline double sum_entries(const void* base, std::size_t count,
                                        int entry_bytes,
                                        double sum = 0.0) noexcept {
  if (entry_bytes == 4) {
    const auto* in = static_cast<const std::int32_t*>(base);
    for (std::size_t i = 0; i < count; ++i) sum += in[i];
  } else {
    const auto* in = static_cast<const double*>(base);
    for (std::size_t i = 0; i < count; ++i) sum += in[i];
  }
  return sum;
}

__extension__ using Uint128 = unsigned __int128;

/// The exact root reduction: adds non-negative integer counts into an
/// unsigned 128-bit sum.  fits() turns false once an entry is 2^64 or
/// more (or not a count at all); value() is then meaningless and the
/// caller falls back to a double sum.
class ExactSum {
 public:
  /// Adds `count` consecutive `entry_bytes`-wide entries at `base`.
  void add(const void* base, std::size_t count, int entry_bytes) noexcept {
    if (entry_bytes == 4) {
      const auto* in = static_cast<const std::int32_t*>(base);
      std::int64_t row = 0;  // C(k-1, h-1) * INT32_MAX fits easily
      for (std::size_t i = 0; i < count; ++i) row += in[i];
      if (row < 0) fits_ = false;
      sum_ += static_cast<Uint128>(static_cast<std::uint64_t>(row));
    } else {
      const auto* in = static_cast<const double*>(base);
      for (std::size_t i = 0; i < count; ++i) add(in[i]);
    }
  }

  void add(double entry) noexcept {
    if (!(entry >= 0.0 && entry < 0x1p64)) {
      fits_ = false;
      return;
    }
    sum_ += static_cast<std::uint64_t>(entry);
  }

  [[nodiscard]] bool fits() const noexcept { return fits_; }

  /// The sum, rounded to the nearest double once.
  [[nodiscard]] double value() const noexcept {
    return static_cast<double>(sum_);
  }

 private:
  Uint128 sum_ = 0;
  bool fits_ = true;
};

}  // namespace detail

/// Runtime selector used by CountOptions; maps to the classes above.
enum class TableKind {
  kNaive,
  kCompact,
  kHash,
  kSuccinct,
};

const char* table_kind_name(TableKind kind) noexcept;

}  // namespace fascia
