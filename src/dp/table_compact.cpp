#include "dp/table_compact.hpp"

#include <algorithm>
#include <cstring>

#include "dp/first_touch.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

namespace {

/// Arena words per row: the entries rounded up to an even word count,
/// which keeps every row 16-byte aligned (what a per-row malloc
/// guaranteed) and leaves room for the free-list link.
std::size_t row_words(std::uint32_t num_colorsets, int entry_bytes) {
  const std::size_t words =
      (static_cast<std::size_t>(num_colorsets) *
           static_cast<std::size_t>(entry_bytes) +
       7) /
      8;
  return (std::max<std::size_t>(words, 1) + 1) & ~std::size_t{1};
}

}  // namespace

CompactTable::CompactTable(VertexId n, std::uint32_t num_colorsets,
                           TableInit init)
    : n_(n),
      num_colorsets_(num_colorsets),
      entry_bytes_(init.entry_bytes),
      stride_words_(row_words(num_colorsets, init.entry_bytes)) {
  if (fault::fire("dp.alloc")) {
    throw resource_error("injected DP table allocation failure");
  }
  rows_ = std::make_unique_for_overwrite<std::uint64_t*[]>(
      static_cast<std::size_t>(n_));
  // The nullptr fill is the pointer array's first touch; rows are
  // first-touched by whichever thread commits them (its arena chunk).
  detail::first_touch_zero(rows_.get(), static_cast<std::size_t>(n_),
                           init.zero_threads);
  MemTracker::add(pointer_bytes());
}

CompactTable::~CompactTable() { MemTracker::sub(pointer_bytes()); }

std::uint64_t* CompactTable::row_slot(VertexId v, bool reuse) {
  std::uint64_t*& slot = rows_[static_cast<std::size_t>(v)];
  if (slot == nullptr) {
    if (reuse && free_rows_ != nullptr) {
      slot = free_rows_;
      std::memcpy(&free_rows_, slot, sizeof(std::uint64_t*));
    } else {
      slot = arena_.allocate(stride_words_);
    }
  }
  return slot;
}

void CompactTable::commit_row(VertexId v, std::span<const double> row) {
  const bool any_nonzero =
      std::any_of(row.begin(), row.end(), [](double x) { return x != 0.0; });
  if (!any_nonzero) return;
  detail::store_entries(row_slot(v, /*reuse=*/false), row.data(),
                        num_colorsets_, entry_bytes_);
}

void CompactTable::patch_row(VertexId v, std::span<const double> row) {
  detail::store_entries(row_slot(v, /*reuse=*/true), row.data(),
                        num_colorsets_, entry_bytes_);
}

void CompactTable::clear_row(VertexId v) noexcept {
  std::uint64_t*& slot = rows_[static_cast<std::size_t>(v)];
  if (slot == nullptr) return;
  // Every row has the same width, so the freed row is a drop-in for the
  // next patch_row: link it through its first word.
  std::memcpy(slot, &free_rows_, sizeof(std::uint64_t*));
  free_rows_ = slot;
  slot = nullptr;
}

double CompactTable::total() const noexcept {
  detail::ExactSum exact;
  for (VertexId v = 0; v < n_; ++v) {
    const std::uint64_t* row = rows_[static_cast<std::size_t>(v)];
    if (row != nullptr) exact.add(row, num_colorsets_, entry_bytes_);
  }
  if (exact.fits()) return exact.value();
  double sum = 0.0;
  for (VertexId v = 0; v < n_; ++v) {
    const std::uint64_t* row = rows_[static_cast<std::size_t>(v)];
    if (row == nullptr) continue;
    sum = detail::sum_entries(row, num_colorsets_, entry_bytes_, sum);
  }
  return sum;
}

double CompactTable::vertex_total(VertexId v) const noexcept {
  const std::uint64_t* row = rows_[static_cast<std::size_t>(v)];
  if (row == nullptr) return 0.0;
  return detail::sum_entries(row, num_colorsets_, entry_bytes_);
}

VertexId CompactTable::num_active_vertices() const noexcept {
  VertexId active = 0;
  for (VertexId v = 0; v < n_; ++v) {
    if (rows_[static_cast<std::size_t>(v)] != nullptr) ++active;
  }
  return active;
}

}  // namespace fascia
