#include "dp/table_succinct.hpp"

#include <algorithm>
#include <vector>

#include "dp/first_touch.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

SuccinctTable::SuccinctTable(VertexId n, std::uint32_t num_colorsets,
                             TableInit init)
    : n_(n),
      num_colorsets_(num_colorsets),
      entry_bytes_(init.entry_bytes),
      words_(colorset_bitmap_words(num_colorsets)),
      arena_(kMaxChunkBytes) {
  if (fault::fire("dp.alloc")) {
    throw resource_error("injected DP table allocation failure");
  }
  rows_ = std::make_unique_for_overwrite<std::uint64_t*[]>(
      static_cast<std::size_t>(n_));
  detail::first_touch_zero(rows_.get(), static_cast<std::size_t>(n_),
                           init.zero_threads);
  MemTracker::add(pointer_bytes());
}

SuccinctTable::~SuccinctTable() { MemTracker::sub(pointer_bytes()); }

void SuccinctTable::commit_row(VertexId v, std::span<const double> row) {
  // One branchless pass builds the occupancy bitmap in per-thread
  // scratch and counts nonzeros by popcount; everything after touches
  // only stored entries (plus one bitmap copy), so a commit costs one
  // vectorizable width scan + O(nnz) — within arm's reach of compact's
  // any_of + memcpy.
  thread_local std::vector<std::uint64_t> scratch;
  scratch.resize(words_);
  std::uint32_t nnz = 0;
  const double* in = row.data();
  const std::size_t width = row.size();
  for (std::size_t w = 0; w < words_; ++w) {
    const std::size_t base = w * 64;
    const std::size_t lim = std::min<std::size_t>(64, width - base);
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < lim; ++b) {
      bits |= static_cast<std::uint64_t>(in[base + b] != 0.0) << b;
    }
    scratch[w] = bits;
    nnz += static_cast<std::uint32_t>(std::popcount(bits));
  }
  if (nnz == 0) return;

  const std::size_t sparse_words = blob_words_sparse(nnz);
  const std::size_t bitmap_words_total = blob_words_bitmap(nnz);
  const bool bitmap = bitmap_words_total <= sparse_words;
  const std::size_t total_words = bitmap ? bitmap_words_total : sparse_words;

  std::uint64_t*& slot = rows_[static_cast<std::size_t>(v)];
  std::uint64_t* blob = slot != nullptr && blob_words(slot) >= total_words
                            ? slot
                            : arena_.allocate(total_words);
  blob[0] = nnz | (bitmap ? (std::uint64_t{1} << 32) : 0);
  std::uint64_t* values = blob + 1;
  if (bitmap) {
    std::uint64_t* words = blob + 1;
    std::memcpy(words, scratch.data(), words_ * sizeof(std::uint64_t));
    auto* ranks = reinterpret_cast<std::uint32_t*>(words + words_);
    values = blob + 1 + words_ + (words_ + 1) / 2;
    const auto step = static_cast<std::size_t>(entry_bytes_);
    std::uint32_t out = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = scratch[w];
      if (bits == ~std::uint64_t{0}) {
        detail::store_entries(reinterpret_cast<std::byte*>(values) + out * step,
                              in + w * 64, 64, entry_bytes_);
        out += 64;
        continue;
      }
      while (bits != 0) {
        detail::store_entry(values, out++, in[w * 64 + std::countr_zero(bits)],
                            entry_bytes_);
        bits &= bits - 1;
      }
    }
    colorset_bitmap_build_ranks(words, words_, ranks);
  } else {
    auto* slots =
        reinterpret_cast<std::uint32_t*>(values + value_words(nnz));
    std::uint32_t out = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = scratch[w];
      while (bits != 0) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
        detail::store_entry(values, out, in[w * 64 + b], entry_bytes_);
        slots[out++] = static_cast<std::uint32_t>(w * 64 + b);
        bits &= bits - 1;
      }
    }
  }

  slot = blob;
}

double SuccinctTable::total() const noexcept {
  detail::ExactSum exact;
  for (VertexId v = 0; v < n_; ++v) {
    const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
    if (blob == nullptr) continue;
    exact.add(succinct_row_values(blob, words_),
              static_cast<std::uint32_t>(blob[0]), entry_bytes_);
  }
  if (exact.fits()) return exact.value();
  double sum = 0.0;
  for (VertexId v = 0; v < n_; ++v) {
    sum += vertex_total(v);
  }
  return sum;
}

double SuccinctTable::vertex_total(VertexId v) const noexcept {
  const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
  if (blob == nullptr) return 0.0;
  return detail::sum_entries(succinct_row_values(blob, words_),
                             static_cast<std::uint32_t>(blob[0]),
                             entry_bytes_);
}

VertexId SuccinctTable::num_active_vertices() const noexcept {
  VertexId active = 0;
  for (VertexId v = 0; v < n_; ++v) {
    if (rows_[static_cast<std::size_t>(v)] != nullptr) ++active;
  }
  return active;
}

std::size_t SuccinctTable::num_bitmap_rows() const noexcept {
  std::size_t bitmap = 0;
  for (VertexId v = 0; v < n_; ++v) {
    const std::uint64_t* blob = rows_[static_cast<std::size_t>(v)];
    if (blob != nullptr && (blob[0] >> 32) != 0) ++bitmap;
  }
  return bitmap;
}

}  // namespace fascia
