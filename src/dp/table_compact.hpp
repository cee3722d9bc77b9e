#pragma once
// The paper's "improved" layout: rows exist only for vertices that
// received at least one nonzero count.  Besides the memory saving
// (Fig. 6), the has_vertex() boolean check lets the DP skip whole
// vertices and neighbor reads (§III-C) — the source of FASCIA's
// speedup on selective (labeled / sparse) instances.  Rows come from a
// per-table RowArena (dp/row_arena.hpp), not one heap allocation each.

#include <memory>
#include <span>

#include "dp/count_table.hpp"
#include "dp/row_arena.hpp"

namespace fascia {

class CompactTable {
 public:
  CompactTable(VertexId n, std::uint32_t num_colorsets, TableInit init = {});
  ~CompactTable();

  CompactTable(const CompactTable&) = delete;
  CompactTable& operator=(const CompactTable&) = delete;

  /// Rows are per-vertex contiguous arrays (absent until first nonzero
  /// commit), so the DP can borrow a raw row pointer per vertex.
  static constexpr bool kContiguousRows = true;
  static constexpr bool kDenseRows = false;
  /// Rows are fixed-width blocks behind a pointer array, so a finished
  /// table can be patched row-wise (count_table.hpp).
  static constexpr bool kPatchableRows = true;
  static constexpr const char* kName = "compact";

  [[nodiscard]] bool has_vertex(VertexId v) const noexcept {
    return rows_[static_cast<std::size_t>(v)] != nullptr;
  }

  [[nodiscard]] double get(VertexId v, ColorsetIndex idx) const noexcept {
    const std::uint64_t* row = rows_[static_cast<std::size_t>(v)];
    return row == nullptr ? 0.0 : detail::load_entry(row, idx, entry_bytes_);
  }

  /// The vertex's row as num_colorsets() contiguous entries of T (the
  /// stored type); nullptr when the vertex never committed a nonzero
  /// row.
  template <class T = double>
  [[nodiscard]] const T* row_ptr(VertexId v) const noexcept {
    assert(sizeof(T) == static_cast<std::size_t>(entry_bytes_));
    return reinterpret_cast<const T*>(rows_[static_cast<std::size_t>(v)]);
  }

  /// Two-step prefetch: the row address itself lives behind rows_[v],
  /// so warm that cell first; prefetch_row then chases it (reading a
  /// possibly-cold pointer, hence the larger slot distance upstream).
  void prefetch_slot(VertexId v) const noexcept {
    FASCIA_PREFETCH(rows_.get() + static_cast<std::size_t>(v));
  }
  void prefetch_row(VertexId v) const noexcept {
    const std::uint64_t* row = rows_[static_cast<std::size_t>(v)];
    if (row != nullptr) FASCIA_PREFETCH(row);
  }

  /// Stores the vertex row iff `row` has a nonzero entry, overwriting
  /// an existing row in place.  Safe to call concurrently for distinct
  /// vertices: each writes its own slot, and new rows come from the
  /// calling thread's arena chunk.
  void commit_row(VertexId v, std::span<const double> row);

  /// Replaces (or creates) v's row with `row`, which the caller
  /// guarantees has a nonzero entry — the delta path's in-place patch
  /// (count_table.hpp).  A created row reuses one freed by clear_row
  /// first, so repeated recounts do not grow the table.  Serial: not
  /// safe concurrently with reads, commits, or other patches.
  void patch_row(VertexId v, std::span<const double> row);

  /// Drops v's row onto the free list; has_vertex(v) turns false.
  /// No-op when absent.  Serial, like patch_row.
  void clear_row(VertexId v) noexcept;

  [[nodiscard]] double total() const noexcept;
  [[nodiscard]] double vertex_total(VertexId v) const noexcept;

  [[nodiscard]] std::uint32_t num_colorsets() const noexcept {
    return num_colorsets_;
  }
  [[nodiscard]] int entry_bytes() const noexcept { return entry_bytes_; }
  /// Pointer array plus every arena chunk (rows freed by clear_row
  /// stay counted until reused or the table dies).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return pointer_bytes() + arena_.bytes();
  }

  /// Vertices with at least one count (selectivity statistics).
  [[nodiscard]] VertexId num_active_vertices() const noexcept;

 private:
  [[nodiscard]] std::size_t pointer_bytes() const noexcept {
    return static_cast<std::size_t>(n_) * sizeof(std::uint64_t*);
  }

  /// v's row, allocated (from the free list first when `reuse`) if
  /// absent.
  [[nodiscard]] std::uint64_t* row_slot(VertexId v, bool reuse);

  VertexId n_;
  std::uint32_t num_colorsets_;
  int entry_bytes_;
  std::size_t stride_words_;  ///< arena words per row
  // Raw pointer array so the nullptr fill can run under TableInit's
  // first-touch partition; rows themselves are first-touched by the
  // committing thread (its own arena chunk).
  std::unique_ptr<std::uint64_t*[]> rows_;
  RowArena arena_;
  std::uint64_t* free_rows_ = nullptr;  ///< rows dropped by clear_row, linked
};

}  // namespace fascia
