#include "dp/table_naive.hpp"

#include "dp/first_touch.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {

NaiveTable::NaiveTable(VertexId n, std::uint32_t num_colorsets, TableInit init)
    : n_(n), num_colorsets_(num_colorsets), entry_bytes_(init.entry_bytes),
      size_(static_cast<std::size_t>(n) * num_colorsets) {
  if (fault::fire("dp.alloc")) {
    throw resource_error("injected DP table allocation failure");
  }
  data_ = std::make_unique_for_overwrite<std::byte[]>(bytes());
  // First touch decides page placement: zero with the same static
  // thread partition the inner-parallel frontier sweep uses, so each
  // thread's vertex range lives on its own NUMA node.  Serial when
  // init.zero_threads <= 1 (outer copies construct from their own
  // thread, which is already the right home).
  detail::first_touch_zero(data_.get(), bytes(), init.zero_threads);
  MemTracker::add(bytes());
}

NaiveTable::~NaiveTable() { MemTracker::sub(bytes()); }

void NaiveTable::commit_row(VertexId v, std::span<const double> row) noexcept {
  detail::store_entries(row_bytes(v), row.data(), num_colorsets_,
                        entry_bytes_);
}

double NaiveTable::total() const noexcept {
  detail::ExactSum exact;
  for (VertexId v = 0; v < n_; ++v) {
    exact.add(row_bytes(v), num_colorsets_, entry_bytes_);
  }
  if (exact.fits()) return exact.value();
  return detail::sum_entries(data_.get(), size_, entry_bytes_);
}

double NaiveTable::vertex_total(VertexId v) const noexcept {
  return detail::sum_entries(row_bytes(v), num_colorsets_, entry_bytes_);
}

}  // namespace fascia
