#pragma once
// Row storage shared by the lazy table layouts (compact, succinct).
//
// The paper's improved layout (§III-C) allocates a vertex row only when
// the row gets a nonzero count.  Done with one heap allocation per row,
// every committed row pays a malloc, a MemTracker update on the one
// process-wide atomic all threads share, and a serial free when the
// table dies — fixed costs that outweigh the arithmetic on narrow rows
// (k = 5 rows are 10 doubles) and serialize the inner-parallel sweep.
//
// A RowArena instead hands each committing thread a private chunk and
// bump-allocates rows from it:
//
//   * chunks are claimed under a mutex; the first is small and later
//     ones double up to kMaxChunkBytes, so tiny tables stay tiny and
//     big ones settle into O(size / kMaxChunkBytes) claims;
//   * MemTracker is charged once per chunk and bytes() is O(1);
//   * the destructor frees chunks, not rows.
//
// A thread's cursor lives in a small thread-local cache keyed by the
// arena's id, which is drawn from a process-wide counter and never
// reused.  Keying by address would be wrong: a table built at a dead
// table's address would resume bump-allocating inside the dead table's
// freed chunks.  A stale cache entry is simply never matched again.
//
// Each thread holds at most one partly filled chunk per arena, so the
// slack above the rows actually handed out is bounded by
// threads x the arena's largest chunk per live table.  An arena of
// short rows can cap its chunks lower (the constructor argument) to
// keep that slack small next to the rows.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace fascia {

namespace detail {

/// One thread's bump cursor into a chunk of the arena with id `arena`
/// (0 = empty slot).
struct RowArenaCursor {
  std::uint64_t arena = 0;
  std::uint64_t* next = nullptr;
  std::uint64_t* end = nullptr;
};

/// Direct-mapped by arena id: consecutive tables land in different
/// slots, so a thread alternating between a few live tables keeps one
/// cursor in each.
inline constexpr std::size_t kRowArenaSlots = 8;
inline thread_local constinit RowArenaCursor row_arena_cursors[kRowArenaSlots];

}  // namespace detail

class RowArena {
 public:
  static constexpr std::size_t kFirstChunkBytes = std::size_t{4} << 10;
  static constexpr std::size_t kMaxChunkBytes = std::size_t{256} << 10;

  /// Chunks double from kFirstChunkBytes up to `max_chunk_bytes`.
  explicit RowArena(std::size_t max_chunk_bytes = kMaxChunkBytes);
  ~RowArena();

  RowArena(const RowArena&) = delete;
  RowArena& operator=(const RowArena&) = delete;

  /// `words` 8-byte words from the calling thread's chunk, valid until
  /// the arena dies.  Safe to call concurrently from any threads.  The
  /// block starts where the previous one from this thread's chunk
  /// ended; chunks are 16-byte aligned, so callers that always ask for
  /// an even word count get 16-byte-aligned blocks.
  [[nodiscard]] std::uint64_t* allocate(std::size_t words) {
    detail::RowArenaCursor& cursor =
        detail::row_arena_cursors[id_ % detail::kRowArenaSlots];
    if (cursor.arena == id_ &&
        static_cast<std::size_t>(cursor.end - cursor.next) >= words) {
      std::uint64_t* block = cursor.next;
      cursor.next += words;
      return block;
    }
    return claim_chunk(words);
  }

  /// Capacity of every chunk claimed so far (what MemTracker holds).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Slow path: claims a fresh chunk for the calling thread, points its
  /// cursor past the first `words` words, and returns that block.
  std::uint64_t* claim_chunk(std::size_t words);

  const std::uint64_t id_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;  ///< under mutex_
  std::size_t next_chunk_words_;                          ///< under mutex_
  const std::size_t max_chunk_words_;
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace fascia
