#include "dp/row_arena.hpp"

#include <algorithm>

#include "util/mem_tracker.hpp"

namespace fascia {

namespace {

constexpr std::size_t kWordBytes = sizeof(std::uint64_t);

/// Arena ids start at 1 (0 marks an empty cursor slot) and are never
/// reused within a process.
std::atomic<std::uint64_t> next_arena_id{1};

}  // namespace

RowArena::RowArena(std::size_t max_chunk_bytes)
    : id_(next_arena_id.fetch_add(1, std::memory_order_relaxed)),
      next_chunk_words_(kFirstChunkBytes / kWordBytes),
      max_chunk_words_(std::max(max_chunk_bytes, kFirstChunkBytes) /
                       kWordBytes) {}

RowArena::~RowArena() { MemTracker::sub(bytes()); }

std::uint64_t* RowArena::claim_chunk(std::size_t words) {
  std::size_t chunk_words = 0;
  std::uint64_t* chunk = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    chunk_words = std::max(words, next_chunk_words_);
    next_chunk_words_ = std::min(next_chunk_words_ * 2, max_chunk_words_);
    chunks_.push_back(
        std::make_unique_for_overwrite<std::uint64_t[]>(chunk_words));
    chunk = chunks_.back().get();
  }
  bytes_.fetch_add(chunk_words * kWordBytes, std::memory_order_relaxed);
  MemTracker::add(chunk_words * kWordBytes);
  detail::row_arena_cursors[id_ % detail::kRowArenaSlots] = {
      id_, chunk + words, chunk + chunk_words};
  return chunk;
}

}  // namespace fascia
