#pragma once
// Succinct colorset-indexed rows (the Motivo-style fourth layout).
//
// Each vertex row stores ONLY its nonzero counts, packed in colorset
// order, behind one of two per-row addressings chosen by density at
// commit time:
//
//   * bitmap — C(k-1,h-1) bits (one per color-rooted slot) plus a
//     per-word cumulative-popcount rank directory (comb/colorset.hpp
//     helpers); get() is a bit test + O(1) rank into the packed values.
//   * sparse — the sorted nonzero colorset indices as u32s; get() is a
//     binary search.  Wins when a row has fewer than roughly one
//     nonzero per 21 colorset slots, where even the bitmap's
//     1.5 bits/slot overhead exceeds the 4 B/nonzero index list.
//
// The packed values are doubles, or int32s in a narrow stage
// (TableInit::entry_bytes == 4).  Whichever addressing is smaller per
// row is used, so the table is never larger than nnz * 12 B (8 B
// narrow) + one header word per active vertex (plus the row-pointer
// array every lazy layout carries).  Compared to compact's
// C(k-1,h-1) * 8 B per active row this is what makes k = 10-12 tables fit
// real memory budgets (Fig. 6's regime taken to the k the paper
// targets); compared to hash it has no empty-slot slack and no key
// storage.
//
// The encoding is LOSSLESS: doubles are stored verbatim (int32 counts
// convert exactly), and zero slots read back exactly 0.0, so estimates
// are bit-identical to the dense layouts per coloring (the layout
// matrices in tests/test_counter.cpp pin this).  Like the
// hash layout there is no contiguous per-vertex row to borrow —
// kContiguousRows is false and the vectorized kernels fall back to
// per-element get() through the same frontier machinery.
//
// Concurrency contract matches count_table.hpp: commit_row may run
// concurrently for distinct vertices (each writes its own row slot and
// allocates from its own arena chunk; no counter is shared), reads
// never overlap commits.

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "dp/count_table.hpp"
#include "dp/row_arena.hpp"

namespace fascia {

/// Words holding `nnz` packed values of `entry_bytes` each.
inline std::size_t succinct_value_words(std::uint32_t nnz, int entry_bytes) {
  return (static_cast<std::size_t>(nnz) *
              static_cast<std::size_t>(entry_bytes) +
          7) /
         8;
}

template <class Emit>
inline void succinct_row_for_each(const std::uint64_t* blob,
                                  std::size_t bitmap_words, int entry_bytes,
                                  Emit&& emit);

class SuccinctTable {
 public:
  SuccinctTable(VertexId n, std::uint32_t num_colorsets, TableInit init = {});
  ~SuccinctTable();

  SuccinctTable(const SuccinctTable&) = delete;
  SuccinctTable& operator=(const SuccinctTable&) = delete;

  /// Values are packed by rank — there is no num_colorsets()-wide
  /// contiguous row to borrow.  Kernels fall back to get().
  static constexpr bool kContiguousRows = false;
  static constexpr bool kDenseRows = false;
  /// Rows are bit-packed into one stream — no in-place rewrites; the
  /// delta path keeps the decode -> commit copy-splice here.
  static constexpr bool kPatchableRows = false;
  static constexpr const char* kName = "succinct";

  [[nodiscard]] bool has_vertex(VertexId v) const noexcept {
    return rows_[static_cast<std::size_t>(v)] != nullptr;
  }

  [[nodiscard]] const double* row_ptr(VertexId) const noexcept {
    return nullptr;
  }

  /// Same two-step warm as compact: the blob address lives behind
  /// rows_[v]; the header word decides everything else.
  void prefetch_slot(VertexId v) const noexcept {
    FASCIA_PREFETCH(rows_.get() + static_cast<std::size_t>(v));
  }
  void prefetch_row(VertexId v) const noexcept {
    const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
    if (blob != nullptr) FASCIA_PREFETCH(blob);
  }

  [[nodiscard]] double get(VertexId v, ColorsetIndex idx) const noexcept;

  /// Dense-row reconstruction for the kernels' sequential read
  /// patterns: enumerating the stored nonzeros is O(nnz) (plus the
  /// zero-fill), where a get() sweep over the full width pays a rank
  /// or binary search per slot.  Writes v's full row (exact zeros
  /// included) into out[0..num_colorsets()).
  void decode_row(VertexId v, double* out) const noexcept;

  /// Calls emit(slot, value) for v's stored nonzeros in ascending
  /// slot order (no-op for a missing row).  Kernels that need every
  /// stored entry use this instead of paying a dense reconstruction
  /// per row.
  template <class Emit>
  void for_each_nonzero(VertexId v, Emit&& emit) const {
    const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
    if (blob == nullptr) return;
    succinct_row_for_each(blob, words_, entry_bytes_,
                          std::forward<Emit>(emit));
  }

  void commit_row(VertexId v, std::span<const double> row);

  [[nodiscard]] double total() const noexcept;
  [[nodiscard]] double vertex_total(VertexId v) const noexcept;

  [[nodiscard]] std::uint32_t num_colorsets() const noexcept {
    return num_colorsets_;
  }
  [[nodiscard]] int entry_bytes() const noexcept { return entry_bytes_; }
  /// Pointer array plus every arena chunk.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return pointer_bytes() + arena_.bytes();
  }

  /// Vertices with at least one count (selectivity statistics).
  /// Counted when read — an O(n) scan, kept off the commit path.
  [[nodiscard]] VertexId num_active_vertices() const noexcept;

  /// Encoding-mix introspection for tests (O(n) scans, like above).
  [[nodiscard]] std::size_t num_bitmap_rows() const noexcept;
  [[nodiscard]] std::size_t num_sparse_rows() const noexcept {
    return static_cast<std::size_t>(num_active_vertices()) -
           num_bitmap_rows();
  }

 private:
  [[nodiscard]] std::size_t pointer_bytes() const noexcept {
    return static_cast<std::size_t>(n_) * sizeof(std::uint64_t*);
  }

  static constexpr std::size_t kMaxChunkBytes = std::size_t{64} << 10;

  // Row blob: a u64 array so every region is 8-byte aligned.
  //   word 0          header: nnz in the low 32 bits, mode in the high
  //   sparse (mode 0) [nnz values, padded][nnz u32 sorted slots, padded]
  //   bitmap (mode 1) [words_ bitmap words][rank u32s, padded]
  //                   [nnz values, padded]
  // Values are entry_bytes_ wide (doubles or int32s).
  [[nodiscard]] std::size_t value_words(std::uint32_t nnz) const noexcept {
    return succinct_value_words(nnz, entry_bytes_);
  }
  [[nodiscard]] std::size_t blob_words_sparse(std::uint32_t nnz)
      const noexcept {
    return 1 + value_words(nnz) + (static_cast<std::size_t>(nnz) + 1) / 2;
  }
  [[nodiscard]] std::size_t blob_words_bitmap(std::uint32_t nnz)
      const noexcept {
    return 1 + words_ + (words_ + 1) / 2 + value_words(nnz);
  }

  [[nodiscard]] std::size_t blob_words(const std::uint64_t* blob)
      const noexcept {
    const auto nnz = static_cast<std::uint32_t>(blob[0]);
    return (blob[0] >> 32) != 0 ? blob_words_bitmap(nnz)
                                : blob_words_sparse(nnz);
  }

  VertexId n_;
  std::uint32_t num_colorsets_;
  int entry_bytes_;
  std::size_t words_;  ///< bitmap words per row (ceil(colorsets / 64))
  // Raw pointer array so the nullptr fill can run under TableInit's
  // first-touch partition, exactly like the compact layout.
  std::unique_ptr<std::uint64_t*[]> rows_;
  // Blobs are bump-allocated from the committing thread's chunk
  // (dp/row_arena.hpp): no per-row malloc, no shared atomic.  Blobs
  // are short (nonzeros only, int32 values in narrow stages), so each
  // thread's last partly filled chunk would be a large share of a
  // table: chunks stop at kMaxChunkBytes, a quarter of the default.  A
  // recommit (the restore path) overwrites the old blob in place when
  // the new one fits and otherwise strands it until the table dies;
  // rows are never recommitted inside a stage.
  RowArena arena_;
};

// Packed-value region of a row blob, in either mode.
inline const std::uint64_t* succinct_row_values(const std::uint64_t* blob,
                                                std::size_t bitmap_words) {
  return (blob[0] >> 32) != 0 ? blob + 1 + bitmap_words + (bitmap_words + 1) / 2
                              : blob + 1;
}

// get() is the kernels' fallback read path (kContiguousRows == false)
// — it must inline into the templated DP loops, so it lives here.
inline double SuccinctTable::get(VertexId v,
                                 ColorsetIndex idx) const noexcept {
  const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
  if (blob == nullptr) return 0.0;
  const auto nnz = static_cast<std::uint32_t>(blob[0]);
  const std::uint64_t* values = succinct_row_values(blob, words_);
  if ((blob[0] >> 32) != 0) {  // bitmap mode
    const std::uint64_t* words = blob + 1;
    if (!colorset_bitmap_test(words, idx)) return 0.0;
    const auto* ranks = reinterpret_cast<const std::uint32_t*>(words + words_);
    return detail::load_entry(values, colorset_bitmap_rank(words, ranks, idx),
                              entry_bytes_);
  }
  // sparse mode: binary search the sorted slot list
  const auto* slots =
      reinterpret_cast<const std::uint32_t*>(values + value_words(nnz));
  std::uint32_t lo = 0;
  std::uint32_t hi = nnz;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (slots[mid] < idx) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return (lo < nnz && slots[lo] == idx)
             ? detail::load_entry(values, lo, entry_bytes_)
             : 0.0;
}

// Shared nonzero enumeration: calls emit(slot, value) in ascending slot
// order (the packed-value order), touching only stored entries.
template <class Emit>
inline void succinct_row_for_each(const std::uint64_t* blob,
                                  std::size_t bitmap_words, int entry_bytes,
                                  Emit&& emit) {
  const auto nnz = static_cast<std::uint32_t>(blob[0]);
  const std::uint64_t* values = succinct_row_values(blob, bitmap_words);
  if ((blob[0] >> 32) != 0) {  // bitmap mode
    const std::uint64_t* words = blob + 1;
    std::uint32_t rank = 0;
    for (std::size_t w = 0; w < bitmap_words; ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
        emit(static_cast<ColorsetIndex>(w * 64 + b),
             detail::load_entry(values, rank++, entry_bytes));
        bits &= bits - 1;
      }
    }
  } else {  // sparse mode
    const auto* slots = reinterpret_cast<const std::uint32_t*>(
        values + succinct_value_words(nnz, entry_bytes));
    for (std::uint32_t i = 0; i < nnz; ++i) {
      emit(static_cast<ColorsetIndex>(slots[i]),
           detail::load_entry(values, i, entry_bytes));
    }
  }
}

inline void SuccinctTable::decode_row(VertexId v,
                                      double* out) const noexcept {
  const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
  const std::size_t width = num_colorsets_;
  if (blob == nullptr) {
    std::memset(out, 0, width * sizeof(double));
    return;
  }
  if ((blob[0] >> 32) != 0) {  // bitmap mode: per-word, full words copied
    const std::uint64_t* words = blob + 1;
    const std::uint64_t* values = succinct_row_values(blob, words_);
    const auto step = static_cast<std::size_t>(entry_bytes_);
    std::uint32_t rank = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::size_t base = w * 64;
      const std::size_t lim = std::min<std::size_t>(64, width - base);
      std::uint64_t bits = words[w];
      if (bits == ~std::uint64_t{0}) {
        detail::load_entries(
            reinterpret_cast<const std::byte*>(values) + rank * step, 64,
            entry_bytes_, out + base);
        rank += 64;
        continue;
      }
      std::memset(out + base, 0, lim * sizeof(double));
      while (bits != 0) {
        out[base + std::countr_zero(bits)] =
            detail::load_entry(values, rank++, entry_bytes_);
        bits &= bits - 1;
      }
    }
    return;
  }
  std::memset(out, 0, width * sizeof(double));
  succinct_row_for_each(
      blob, words_, entry_bytes_,
      [&](ColorsetIndex idx, double value) { out[idx] = value; });
}

}  // namespace fascia
