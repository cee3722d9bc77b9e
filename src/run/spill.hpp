#pragma once
// Out-of-core DP table pages (the memory ladder's last rung).
//
// When plan_memory predicts that even the floor table layout exceeds
// the budget, completed sub-template tables spill to files in
// RunControls::spill_dir and are paged back right before the stage
// that consumes them (core/engine.hpp's Belady-style eviction), so a
// fixed --mem-budget-mb bounds the resident set instead of aborting
// the job.  This module owns the file format; the engine owns the
// eviction policy.
//
// File layout (little-endian, fixed-width; checkpoint.hpp's sibling):
//
//   magic   "FSPILL01"                      8 B
//   n       u32   graph vertices
//   nc      u32   colorsets per row
//   rows:   each [vid u32][pad u32][nc doubles]   (8-byte aligned)
//   nrows   u32   trailing so writes stream in one pass
//   crc     u64   FNV-1a over everything above
//
// Rows are written DENSE via Table::get() and restored via
// Table::commit_row(), so one format serves every layout and a page
// round-trip re-derives the encoding deterministically — doubles are
// stored verbatim, which keeps spilled runs bit-identical to
// in-memory runs (the paging test pins this).  Writes go to
// "<path>.tmp" then rename, the same crash discipline as checkpoints;
// reads memory-map the file (falling back to a buffered read) and
// verify the checksum before any row is trusted.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dp/count_table.hpp"
#include "graph/graph.hpp"

namespace fascia::run {

/// Streams one table's rows to "<path>.tmp" and renames on finalize().
/// Destruction without finalize() removes the temp file (abandoned
/// spill, e.g. an exception mid-write).
class SpillWriter {
 public:
  SpillWriter(std::string path, VertexId n, std::uint32_t num_colorsets);
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Appends one vertex row (must be num_colorsets doubles).
  void write_row(VertexId v, std::span<const double> row);

  /// Seals trailer + checksum and atomically replaces the target.
  /// Returns the file size in bytes.  Throws Error(kResource) on any
  /// write failure.  Fault site: "spill.write".
  std::size_t finalize();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Memory-mapped, checksum-verified page reader.  The constructor
/// validates magic, length, and checksum and throws Error(kResource)
/// on anything inconsistent — a damaged page means the run cannot
/// continue bit-identically, so unlike checkpoints this does NOT
/// degrade silently.
class SpillReader {
 public:
  explicit SpillReader(const std::string& path);
  ~SpillReader();

  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  [[nodiscard]] VertexId num_vertices() const noexcept;
  [[nodiscard]] std::uint32_t num_colorsets() const noexcept;
  [[nodiscard]] std::uint32_t num_rows() const noexcept;
  [[nodiscard]] VertexId row_vertex(std::uint32_t r) const noexcept;
  [[nodiscard]] std::span<const double> row(std::uint32_t r) const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Writes every committed row of `table` to `path`.  `frontier` (the
/// engine's sorted nonzero-vertex list, a superset of the committed
/// rows) names the rows.  Returns bytes written.
template <class Table>
std::size_t spill_table(const std::string& path, const Table& table,
                        const std::vector<VertexId>& frontier, VertexId n) {
  const std::uint32_t width = table.num_colorsets();
  SpillWriter writer(path, n, width);
  std::vector<double> row(width);
  const auto emit = [&](VertexId v) {
    if constexpr (requires { table.decode_row(v, row.data()); }) {
      table.decode_row(v, row.data());
    } else {
      for (std::uint32_t idx = 0; idx < width; ++idx) {
        row[idx] = table.get(v, idx);
      }
    }
    writer.write_row(v, row);
  };
  for (const VertexId v : frontier) {
    if (table.has_vertex(v)) emit(v);
  }
  return writer.finalize();
}

/// Rebuilds a table from a page written by spill_table.  Rows are
/// re-committed through the layout's own commit_row at the original
/// table's `entry_bytes` (pages always hold doubles; a 4-byte table's
/// counts convert back exactly), so the restored table is
/// indistinguishable from the original to every reader.  Returns the
/// table and fills `frontier` with the row vertices (the original
/// sorted frontier, by construction).
template <class Table>
std::unique_ptr<Table> restore_table(const std::string& path, VertexId n,
                                     std::vector<VertexId>* frontier,
                                     int entry_bytes = 8) {
  SpillReader reader(path);
  auto table = std::make_unique<Table>(n, reader.num_colorsets(),
                                       TableInit{1, entry_bytes});
  if (frontier != nullptr) frontier->clear();
  for (std::uint32_t r = 0; r < reader.num_rows(); ++r) {
    const VertexId v = reader.row_vertex(r);
    table->commit_row(v, reader.row(r));
    if (frontier != nullptr) frontier->push_back(v);
  }
  return table;
}

}  // namespace fascia::run
