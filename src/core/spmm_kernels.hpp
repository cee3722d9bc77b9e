#pragma once
// Linear-algebra DP backend (DESIGN.md §13): the per-stage gather of
// the color-coding DP is algebraically a masked sparse-matrix × dense-
// multivector product over the colorset dimension,
//
//   psum[v][·] = Σ_{u ∈ N(v)} X[u][·]        (mask = stage frontiers)
//   out[v][P]  = Σ_s arow[v][act[s]] · psum[v][pas[s]],
//
// and this header holds the dense-multivector half of that product.
// SpmmMultivector exports the PASSIVE child's table once per stage as
// a column-blocked dense matrix over the child's sparse frontier: row
// r < |frontier| is frontier[r]'s table row, and one extra shared
// all-zero row (index |frontier|) stands in for every vertex without a
// stored row, so the per-neighbor accumulate is branchless — absent
// rows contribute exact 0.0 terms and the committed sums match the
// gather kernels bit for bit (all DP values are exact integer counts
// in doubles below 2^53).
//
// Column blocking: the width-W colorset dimension is cut into blocks
// of spmm_block_width columns (FASCIA_SPMM_BLOCK override), each block
// stored as its own (|frontier|+1) × block-width row-major slab.  The
// accumulate loop runs the blocks inside each active vertex: per block
// it walks the vertex's neighbors again and adds one block-width run
// of each neighbor's row.  Every vertex touches every block, so across
// the frontier the working set is the whole multivector, not one slab.
// (A block-outer sweep that kept one slab cached was measured and lost:
// each block re-walks every neighbor list, and per-visit latency, not
// bytes, is the cost — DESIGN.md §13.)
//
// What the export buys per table layout:
//   * hash      — the gather kernels pay one keyed probe per EDGE per
//                 colorset; the export pays W probes once per frontier
//                 vertex, after which every read is a contiguous add.
//   * succinct  — rank/branch decode once per row instead of once per
//                 edge.
//   * naive /   — same FLOPs, but blocked slabs over the frontier in
//     compact     place of row gathers scattered across all n rows.
// The engine's per-stage cost gate (engine.hpp spmm_profitable_*)
// falls back to the gather kernels when the export cannot amortize.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "dp/count_table.hpp"
#include "graph/graph.hpp"

namespace fascia {

/// Default column-block width in doubles: about 256 KiB of slab per
/// block for the given frontier, at least 16 columns.  The accumulate
/// loop is vertex-outer (header comment), so this sets the length of
/// the contiguous runs it adds, not a cache-resident working set.
/// Overridable via FASCIA_SPMM_BLOCK (columns).
inline std::uint32_t spmm_block_width(std::size_t frontier_rows,
                                      std::uint32_t width) noexcept {
  static const long env = [] {
    const char* s = std::getenv("FASCIA_SPMM_BLOCK");
    return s != nullptr ? std::atol(s) : 0L;
  }();
  if (env > 0) {
    return std::min<std::uint32_t>(width,
                                   static_cast<std::uint32_t>(env));
  }
  constexpr std::size_t kTargetSlabBytes = 256 * 1024;
  const std::size_t rows = frontier_rows + 1;
  std::size_t bw = kTargetSlabBytes / (rows * sizeof(double) + 1);
  // Not std::clamp: a stage narrower than 16 columns has width < 16.
  bw = std::max<std::size_t>(bw, 16);
  return static_cast<std::uint32_t>(std::min<std::size_t>(bw, width));
}

/// Column-blocked dense export of one DP table restricted to its
/// frontier, plus the vertex → row remap the masked SpMM reads
/// through.  One instance lives in the engine and is rebuilt per
/// stage; all buffers keep their capacity, so the steady state
/// allocates nothing.
class SpmmMultivector {
 public:
  /// Rebuilds the multivector from `table` over `frontier` (ascending
  /// nonzero-vertex list of the passive child).  A frontier vertex
  /// whose row was commit-filtered away (all-zero commit) maps to the
  /// shared zero row, mirroring the gather kernels' null-row_ptr /
  /// has_vertex skip.  `parallel` spreads the per-row export over
  /// `threads` OpenMP threads.
  template <class Table>
  void build(const Table& table, const std::vector<VertexId>& frontier,
             VertexId n, bool parallel, int threads) {
    width_ = table.num_colorsets();
    rows_ = frontier.size();
    zero_row_ = static_cast<std::uint32_t>(rows_);
    block_width_ = spmm_block_width(rows_, width_);
    num_blocks_ = (width_ + block_width_ - 1) / block_width_;
    block_base_.resize(num_blocks_ + 1);
    for (std::uint32_t b = 0; b <= num_blocks_; ++b) {
      block_base_[b] = std::min(width_, b * block_width_);
    }
    // Slab offsets: block b's slab holds (rows_+1) rows of bw_b
    // columns back to back in one allocation.
    slab_off_.resize(num_blocks_ + 1);
    slab_off_[0] = 0;
    for (std::uint32_t b = 0; b < num_blocks_; ++b) {
      slab_off_[b + 1] =
          slab_off_[b] + (rows_ + 1) * (block_base_[b + 1] - block_base_[b]);
    }
    data_.resize(slab_off_[num_blocks_]);

    // Vertex → row remap; everything not explicitly mapped below reads
    // the shared zero row.
    pos_.assign(static_cast<std::size_t>(n), zero_row_);

    const auto export_one = [&](std::size_t r) {
      const VertexId v = frontier[r];
      bool present;
      if constexpr (Table::kContiguousRows) {
        present = table.row_ptr(v) != nullptr;
      } else {
        present = table.has_vertex(v);
      }
      if (!present) return;  // pos_[v] stays on the zero row
      pos_[static_cast<std::size_t>(v)] = static_cast<std::uint32_t>(r);
      for (std::uint32_t b = 0; b < num_blocks_; ++b) {
        const std::uint32_t base = block_base_[b];
        const std::uint32_t bw = block_base_[b + 1] - base;
        table.export_row_block(v, base, bw,
                               data_.data() + slab_off_[b] + r * bw);
      }
    };
    const auto zero_shared_row = [&] {
      for (std::uint32_t b = 0; b < num_blocks_; ++b) {
        const std::uint32_t bw = block_base_[b + 1] - block_base_[b];
        std::memset(data_.data() + slab_off_[b] + rows_ * bw, 0,
                    bw * sizeof(double));
      }
    };
#ifdef _OPENMP
    if (parallel && rows_ > 1) {
#pragma omp parallel num_threads(threads)
      {
#pragma omp for schedule(static) nowait
        for (std::size_t r = 0; r < rows_; ++r) export_one(r);
#pragma omp single nowait
        zero_shared_row();
      }
      return;
    }
#else
    (void)parallel;
    (void)threads;
#endif
    for (std::size_t r = 0; r < rows_; ++r) export_one(r);
    zero_shared_row();
  }

  /// The masked SpMM row for one active vertex: accumulates the rows
  /// of `nbr[0..deg)` into psum[0..width) block by block and returns
  /// how many neighbors had a stored row (the gather kernels' `nu`
  /// commit gate).  Accumulation order per column is neighbor order —
  /// the same order the gather kernels fold in — and absent rows add
  /// exact zeros, so the sums are bit-identical.  DenseRows tables
  /// (naive) count every neighbor, matching their constant-true
  /// has_vertex.
  template <bool kDenseRows>
  std::size_t accumulate(const VertexId* nbr, std::size_t deg,
                         double* psum) const noexcept {
    std::size_t nu = 0;
    const std::uint32_t* pos = pos_.data();
    if constexpr (kDenseRows) {
      nu = deg;
    } else {
      for (std::size_t j = 0; j < deg; ++j) {
        nu += pos[nbr[j]] != zero_row_ ? 1 : 0;
      }
    }
    for (std::uint32_t b = 0; b < num_blocks_; ++b) {
      const std::uint32_t base = block_base_[b];
      const std::uint32_t bw = block_base_[b + 1] - base;
      const double* slab = data_.data() + slab_off_[b];
      double* ps = psum + base;
      for (std::size_t j = 0; j < deg; ++j) {
        const double* xr = slab + static_cast<std::size_t>(pos[nbr[j]]) * bw;
#ifdef _OPENMP
#pragma omp simd
#endif
        for (std::uint32_t c = 0; c < bw; ++c) {
          ps[c] += xr[c];
        }
      }
    }
    return nu;
  }

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] std::uint32_t block_width() const noexcept {
    return block_width_;
  }
  [[nodiscard]] std::uint32_t num_blocks() const noexcept {
    return num_blocks_;
  }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

  /// Bytes the current export actually holds (slabs + remap) — the
  /// measured side of run::estimate_spmm_multivector_bytes.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return data_.size() * sizeof(double) +
           pos_.size() * sizeof(std::uint32_t);
  }

  /// Drops the buffers (capacity included) so an engine that fell back
  /// to the gather kernels for good does not sit on a stale export.
  void release() noexcept {
    std::vector<double>().swap(data_);
    std::vector<std::uint32_t>().swap(pos_);
    rows_ = 0;
    width_ = 0;
    num_blocks_ = 0;
  }

 private:
  std::vector<double> data_;          ///< block slabs, back to back
  std::vector<std::uint32_t> pos_;    ///< vertex → row (zero_row_ = absent)
  std::vector<std::uint32_t> block_base_;  ///< first column per block
  std::vector<std::size_t> slab_off_;      ///< slab start per block
  std::size_t rows_ = 0;
  std::uint32_t width_ = 0;
  std::uint32_t block_width_ = 0;
  std::uint32_t num_blocks_ = 0;
  std::uint32_t zero_row_ = 0;
};

}  // namespace fascia
