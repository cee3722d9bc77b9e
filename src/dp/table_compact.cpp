#include "dp/table_compact.hpp"

#include <algorithm>
#include <cstring>

#include "dp/first_touch.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

CompactTable::CompactTable(VertexId n, std::uint32_t num_colorsets,
                           TableInit init)
    : n_(n),
      num_colorsets_(num_colorsets),
      // Even word counts keep every row 16-byte aligned (what a per-row
      // malloc guaranteed), and leave room for the free-list link.
      stride_words_((std::max<std::size_t>(num_colorsets, 1) + 1) &
                    ~std::size_t{1}) {
  if (fault::fire("dp.alloc")) {
    throw resource_error("injected DP table allocation failure");
  }
  rows_ = std::make_unique_for_overwrite<double*[]>(
      static_cast<std::size_t>(n_));
  // The nullptr fill is the pointer array's first touch; rows are
  // first-touched by whichever thread commits them (its arena chunk).
  detail::first_touch_zero(rows_.get(), static_cast<std::size_t>(n_),
                           init.zero_threads);
  MemTracker::add(pointer_bytes());
}

CompactTable::~CompactTable() { MemTracker::sub(pointer_bytes()); }

void CompactTable::commit_row(VertexId v, std::span<const double> row) {
  const bool any_nonzero =
      std::any_of(row.begin(), row.end(), [](double x) { return x != 0.0; });
  if (!any_nonzero) return;
  double*& slot = rows_[static_cast<std::size_t>(v)];
  if (slot == nullptr) {
    slot = reinterpret_cast<double*>(arena_.allocate(stride_words_));
  }
  std::memcpy(slot, row.data(), num_colorsets_ * sizeof(double));
}

void CompactTable::patch_row(VertexId v, std::span<const double> row) {
  double*& slot = rows_[static_cast<std::size_t>(v)];
  if (slot == nullptr) {
    if (free_rows_ != nullptr) {
      slot = free_rows_;
      std::memcpy(&free_rows_, slot, sizeof(double*));
    } else {
      slot = reinterpret_cast<double*>(arena_.allocate(stride_words_));
    }
  }
  std::memcpy(slot, row.data(), num_colorsets_ * sizeof(double));
}

void CompactTable::clear_row(VertexId v) noexcept {
  double*& slot = rows_[static_cast<std::size_t>(v)];
  if (slot == nullptr) return;
  // Every row has the same width, so the freed row is a drop-in for the
  // next patch_row: link it through its first word.
  std::memcpy(slot, &free_rows_, sizeof(double*));
  free_rows_ = slot;
  slot = nullptr;
}

double CompactTable::total() const noexcept {
  double sum = 0.0;
  for (VertexId v = 0; v < n_; ++v) {
    const double* row = rows_[static_cast<std::size_t>(v)];
    if (row == nullptr) continue;
    for (std::uint32_t i = 0; i < num_colorsets_; ++i) sum += row[i];
  }
  return sum;
}

double CompactTable::vertex_total(VertexId v) const noexcept {
  const double* row = rows_[static_cast<std::size_t>(v)];
  if (row == nullptr) return 0.0;
  double sum = 0.0;
  for (std::uint32_t i = 0; i < num_colorsets_; ++i) sum += row[i];
  return sum;
}

VertexId CompactTable::num_active_vertices() const noexcept {
  VertexId active = 0;
  for (VertexId v = 0; v < n_; ++v) {
    if (rows_[static_cast<std::size_t>(v)] != nullptr) ++active;
  }
  return active;
}

}  // namespace fascia
