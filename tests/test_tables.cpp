#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "dp/row_arena.hpp"
#include "dp/table_compact.hpp"
#include "dp/table_hash.hpp"
#include "dp/table_naive.hpp"
#include "dp/table_succinct.hpp"
#include "util/mem_tracker.hpp"

namespace fascia {
namespace {

// Typed test: the three layouts share one behavioural contract.
template <class T>
class TableContract : public ::testing::Test {};

using TableKinds =
    ::testing::Types<NaiveTable, CompactTable, HashTable, SuccinctTable>;
TYPED_TEST_SUITE(TableContract, TableKinds);

TYPED_TEST(TableContract, FreshTableReadsZero) {
  TypeParam table(10, 6);
  for (VertexId v = 0; v < 10; ++v) {
    for (ColorsetIndex c = 0; c < 6; ++c) {
      EXPECT_DOUBLE_EQ(table.get(v, c), 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(table.total(), 0.0);
}

TYPED_TEST(TableContract, CommitThenReadBack) {
  TypeParam table(5, 4);
  const std::vector<double> row = {1.0, 0.0, 2.5, 0.0};
  table.commit_row(3, row);
  EXPECT_DOUBLE_EQ(table.get(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(table.get(3, 1), 0.0);
  EXPECT_DOUBLE_EQ(table.get(3, 2), 2.5);
  EXPECT_DOUBLE_EQ(table.get(2, 0), 0.0);
  EXPECT_TRUE(table.has_vertex(3));
}

TYPED_TEST(TableContract, TotalsAndVertexTotals) {
  TypeParam table(4, 3);
  table.commit_row(0, std::vector<double>{1.0, 2.0, 0.0});
  table.commit_row(2, std::vector<double>{0.0, 0.0, 4.0});
  EXPECT_DOUBLE_EQ(table.total(), 7.0);
  EXPECT_DOUBLE_EQ(table.vertex_total(0), 3.0);
  EXPECT_DOUBLE_EQ(table.vertex_total(1), 0.0);
  EXPECT_DOUBLE_EQ(table.vertex_total(2), 4.0);
}

TYPED_TEST(TableContract, NumColorsetsReported) {
  TypeParam table(3, 17);
  EXPECT_EQ(table.num_colorsets(), 17u);
}

TYPED_TEST(TableContract, BytesNonZero) {
  TypeParam table(100, 10);
  table.commit_row(0, std::vector<double>(10, 1.0));
  EXPECT_GT(table.bytes(), 0u);
}

TYPED_TEST(TableContract, MemTrackerBalanced) {
  MemTracker::reset_all();
  {
    TypeParam table(50, 8);
    table.commit_row(1, std::vector<double>(8, 1.0));
    EXPECT_GT(MemTracker::current(), 0u);
  }
  EXPECT_EQ(MemTracker::current(), 0u);
}

TYPED_TEST(TableContract, ConcurrentCommitsDistinctVertices) {
  // Large enough that, on the lazy layouts, every committing thread
  // runs through more than one arena chunk (the first chunks are 4-32
  // KiB, one thread's share of rows here is ~250 KB).
  constexpr VertexId kN = 20000;
  TypeParam table(kN, 5);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (VertexId v = 0; v < kN; ++v) {
    std::vector<double> row(5, static_cast<double>(v + 1));
    table.commit_row(v, row);
  }
  for (VertexId v = 0; v < kN; ++v) {
    ASSERT_DOUBLE_EQ(table.get(v, 3), static_cast<double>(v + 1));
  }
}

TYPED_TEST(TableContract, RebuiltTableNeverReusesDeadTableRows) {
  // Each round destroys the table and builds the next one at the SAME
  // address (std::optional storage), then commits from the same
  // threads.  The lazy layouts keep a per-thread bump cursor across
  // tables; were it keyed by address, round r + 1 would carve rows out
  // of round r's freed chunks (a use-after-free under ASan, or values
  // from the wrong table).
  constexpr VertexId kN = 3000;
  constexpr std::uint32_t kWidth = 7;
  std::optional<TypeParam> table;
  const void* first_address = nullptr;
  for (int round = 0; round < 4; ++round) {
    table.emplace(kN, kWidth);
    if (round == 0) first_address = &*table;
    ASSERT_EQ(static_cast<const void*>(&*table), first_address);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (VertexId v = 0; v < kN; v += 2) {  // odd vertices stay absent
      std::vector<double> row(kWidth, 0.0);
      row[static_cast<std::size_t>(v) % kWidth] =
          static_cast<double>(round * 100000 + static_cast<int>(v) + 1);
      table->commit_row(v, row);
    }
    for (VertexId v = 0; v < kN; ++v) {
      for (ColorsetIndex c = 0; c < kWidth; ++c) {
        const bool set = v % 2 == 0 && c == v % kWidth;
        ASSERT_EQ(table->get(v, c),
                  set ? static_cast<double>(round * 100000 +
                                            static_cast<int>(v) + 1)
                      : 0.0)
            << "round " << round << " v " << v << " c " << c;
      }
    }
    table.reset();
  }
}

// ---- row-borrow contract (vectorized kernels) ---------------------------
// kContiguousRows == true promises: row_ptr(v) is non-null whenever
// has_vertex(v), and the returned row reads element-for-element like
// get(v, .).  kContiguousRows == false promises row_ptr always null,
// so kernels fall back to get().

TYPED_TEST(TableContract, RowBorrowMatchesGet) {
  TypeParam table(6, 4);
  table.commit_row(2, std::vector<double>{1.0, 0.0, 3.0, 4.0});
  table.commit_row(4, std::vector<double>{0.0, 2.0, 0.0, 0.0});
  for (VertexId v = 0; v < 6; ++v) {
    const double* row = table.row_ptr(v);
    if constexpr (TypeParam::kContiguousRows) {
      if (table.has_vertex(v)) {
        ASSERT_NE(row, nullptr);
        for (ColorsetIndex c = 0; c < 4; ++c) {
          EXPECT_DOUBLE_EQ(row[c], table.get(v, c));
        }
      }
    } else {
      EXPECT_EQ(row, nullptr);
    }
  }
}

// ---- entry width (TableInit::entry_bytes) ------------------------------
// A 4-byte table stores int32 counts and reads back, through every
// accessor, exactly the doubles an 8-byte table given the same rows
// does — in fewer bytes.  The rows include INT32_MAX and a run of 64
// nonzeros (succinct's full-bitmap-word copy path), in both dense and
// sparse rows.

TYPED_TEST(TableContract, NarrowEntriesReadBackExactly) {
  constexpr VertexId kN = 200;
  constexpr std::uint32_t kWidth = 70;
  TypeParam wide(kN, kWidth);
  TypeParam narrow(kN, kWidth, TableInit{1, 4});
  EXPECT_EQ(wide.entry_bytes(), 8);
  EXPECT_EQ(narrow.entry_bytes(), 4);
  for (VertexId v = 0; v < kN; v += 3) {
    std::vector<double> row(kWidth, 0.0);
    const std::uint32_t filled = v % 2 == 0 ? kWidth : 3;  // dense / sparse
    for (std::uint32_t c = 0; c < filled; ++c) {
      row[(c * 11 + static_cast<std::uint32_t>(v)) % kWidth] =
          static_cast<double>(v * 1000 + c + 1);
    }
    row[static_cast<std::size_t>(v) % kWidth] = 2147483647.0;  // INT32_MAX
    wide.commit_row(v, row);
    narrow.commit_row(v, row);
  }
  for (VertexId v = 0; v < kN; ++v) {
    ASSERT_EQ(narrow.has_vertex(v), wide.has_vertex(v));
    for (ColorsetIndex c = 0; c < kWidth; ++c) {
      ASSERT_EQ(narrow.get(v, c), wide.get(v, c)) << v << " " << c;
    }
    EXPECT_EQ(narrow.vertex_total(v), wide.vertex_total(v));
    if constexpr (TypeParam::kContiguousRows) {
      const std::int32_t* row = narrow.template row_ptr<std::int32_t>(v);
      if (narrow.has_vertex(v)) {
        ASSERT_NE(row, nullptr);
        for (ColorsetIndex c = 0; c < kWidth; ++c) {
          EXPECT_EQ(static_cast<double>(row[c]), wide.get(v, c));
        }
      }
    }
  }
  EXPECT_EQ(narrow.total(), wide.total());
  EXPECT_LT(narrow.bytes(), wide.bytes());
}

TEST(NaiveTable, RowPtrNeverNull) {
  static_assert(NaiveTable::kContiguousRows);
  NaiveTable table(3, 2);
  // Dense layout: every vertex has a row, committed or not.
  for (VertexId v = 0; v < 3; ++v) {
    ASSERT_NE(table.row_ptr(v), nullptr);
    EXPECT_DOUBLE_EQ(table.row_ptr(v)[0], 0.0);
  }
}

TEST(CompactTable, RowPtrNullMirrorsHasVertex) {
  static_assert(CompactTable::kContiguousRows);
  CompactTable table(4, 3);
  table.commit_row(1, std::vector<double>{0.0, 0.0, 0.0});  // rejected
  table.commit_row(2, std::vector<double>{0.0, 1.0, 0.0});
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(table.row_ptr(v) != nullptr, table.has_vertex(v));
  }
}

TEST(HashTable, RowPtrAlwaysNull) {
  static_assert(!HashTable::kContiguousRows);
  HashTable table(3, 2);
  table.commit_row(1, std::vector<double>{5.0, 6.0});
  EXPECT_EQ(table.row_ptr(1), nullptr);
}

// ---- layout-specific behaviour -----------------------------------------

TEST(NaiveTable, HasVertexAlwaysTrue) {
  NaiveTable table(4, 2);
  EXPECT_TRUE(table.has_vertex(0));  // no skip optimization by design
}

TEST(CompactTable, EmptyRowNotAllocated) {
  CompactTable table(4, 3);
  table.commit_row(1, std::vector<double>{0.0, 0.0, 0.0});
  EXPECT_FALSE(table.has_vertex(1));
  EXPECT_EQ(table.num_active_vertices(), 0);
  table.commit_row(2, std::vector<double>{0.0, 1.0, 0.0});
  EXPECT_EQ(table.num_active_vertices(), 1);
}

TEST(CompactTable, ClearThenPatchRoundsKeepBytesFlat) {
  // The delta path's retained-table recount: rows in the dirty ball are
  // cleared or patched, round after round.  Cleared rows go onto a free
  // list that patch_row draws from first, so the table must not grow.
  constexpr VertexId kN = 64;
  constexpr std::uint32_t kWidth = 10;
  CompactTable table(kN, kWidth);
  for (VertexId v = 0; v < kN; ++v) {
    table.commit_row(v, std::vector<double>(kWidth, 1.0));
  }
  const std::size_t settled = table.bytes();
  for (int round = 0; round < 50; ++round) {
    // Clear a block, then patch a shifted block back in: some patches
    // re-create cleared vertices, some overwrite live rows in place.
    const auto base = static_cast<VertexId>(round % 8 * 8);
    for (VertexId v = base; v < base + 8; ++v) table.clear_row(v);
    for (VertexId v = base + 4; v < base + 12 && v < kN; ++v) {
      table.patch_row(v, std::vector<double>(kWidth, round + 2.0));
    }
    for (VertexId v = base; v < base + 4; ++v) {
      table.patch_row(v, std::vector<double>(kWidth, round + 3.0));
    }
    EXPECT_EQ(table.bytes(), settled) << "round " << round;
    EXPECT_EQ(table.num_active_vertices(), kN);
    EXPECT_DOUBLE_EQ(table.get(base, kWidth - 1), round + 3.0);
    EXPECT_DOUBLE_EQ(table.get(base + 4, 0), round + 2.0);
  }
}

TEST(CompactTable, UsesLessMemoryThanNaiveWhenSparse) {
  MemTracker::reset_all();
  std::size_t naive_bytes = 0, compact_bytes = 0;
  {
    NaiveTable naive(10000, 100);
    naive_bytes = naive.bytes();
  }
  {
    CompactTable compact(10000, 100);
    compact.commit_row(5, std::vector<double>(100, 1.0));
    compact_bytes = compact.bytes();
  }
  EXPECT_LT(compact_bytes, naive_bytes / 10);
}

TEST(HashTable, GrowsPastInitialCapacity) {
  HashTable table(5000, 4);
  std::vector<double> row = {1.0, 2.0, 3.0, 4.0};
  for (VertexId v = 0; v < 5000; ++v) table.commit_row(v, row);
  EXPECT_EQ(table.num_entries(), 20000u);
  for (VertexId v = 0; v < 5000; ++v) {
    ASSERT_DOUBLE_EQ(table.get(v, 2), 3.0);
  }
}

TEST(HashTable, SparseFootprintBeatsDense) {
  // One active vertex among many: the paper's high-selectivity regime
  // (Fig. 7).  Compare against the dense layout's *computed* footprint
  // rather than allocating gigabytes in a unit test.
  HashTable hash(1 << 20, 924);
  hash.commit_row(12345, std::vector<double>(924, 1.0));
  const std::size_t dense_bytes =
      std::size_t{1 << 20} * 924 * sizeof(double);
  EXPECT_LT(hash.bytes(), dense_bytes / 100);
}

TEST(HashTable, OverwriteSameKey) {
  HashTable table(3, 2);
  table.commit_row(1, std::vector<double>{5.0, 0.0});
  table.commit_row(1, std::vector<double>{7.0, 1.0});
  EXPECT_DOUBLE_EQ(table.get(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(table.get(1, 1), 1.0);
}

// ---- succinct layout ----------------------------------------------------

TEST(SuccinctTable, EmptyRowNotAllocated) {
  SuccinctTable table(4, 3);
  table.commit_row(1, std::vector<double>{0.0, 0.0, 0.0});
  EXPECT_FALSE(table.has_vertex(1));
  EXPECT_EQ(table.num_active_vertices(), 0);
  table.commit_row(2, std::vector<double>{0.0, 1.0, 0.0});
  EXPECT_EQ(table.num_active_vertices(), 1);
}

TEST(SuccinctTable, DensityPicksBitmapOrSortedSlots) {
  // 256 colorsets: the bitmap header is 4 words + 2 rank words = 6
  // words per row, a sorted-slot row is ~1.5 words per nonzero — so a
  // dense row must choose the bitmap and a 1-nonzero row the slots.
  constexpr std::uint32_t kWidth = 256;
  SuccinctTable table(4, kWidth);
  std::vector<double> dense(kWidth, 2.0);
  table.commit_row(0, dense);
  std::vector<double> sparse(kWidth, 0.0);
  sparse[200] = 7.0;
  table.commit_row(1, sparse);
  EXPECT_EQ(table.num_bitmap_rows(), 1u);
  EXPECT_EQ(table.num_sparse_rows(), 1u);
  for (ColorsetIndex c = 0; c < kWidth; ++c) {
    EXPECT_DOUBLE_EQ(table.get(0, c), 2.0);
    EXPECT_DOUBLE_EQ(table.get(1, c), c == 200 ? 7.0 : 0.0);
  }
}

TEST(SuccinctTable, DecodeRowRoundTripsBothModes) {
  // Width > 64 exercises the multi-word bitmap paths, including the
  // all-ones fast path for word 0 of the dense row.
  constexpr std::uint32_t kWidth = 100;
  SuccinctTable table(3, kWidth);
  std::vector<double> dense(kWidth);
  for (std::uint32_t c = 0; c < kWidth; ++c) {
    dense[c] = c % 7 == 3 ? 0.0 : static_cast<double>(c + 1);
  }
  std::vector<double> mostly_full(kWidth, 1.0);
  mostly_full[70] = 0.0;  // word 0 stays all-ones, word 1 does not
  std::vector<double> sparse(kWidth, 0.0);
  sparse[3] = 5.0;
  sparse[64] = 6.0;
  table.commit_row(0, dense);
  table.commit_row(1, mostly_full);
  table.commit_row(2, sparse);
  std::vector<double> out(kWidth, -1.0);
  for (VertexId v = 0; v < 3; ++v) {
    const std::vector<double>& expect =
        v == 0 ? dense : (v == 1 ? mostly_full : sparse);
    table.decode_row(v, out.data());
    EXPECT_EQ(out, expect) << "vertex " << v;
  }
}

TEST(SuccinctTable, ForEachNonzeroAscendingSlots) {
  SuccinctTable table(1, 130);
  std::vector<double> row(130, 0.0);
  row[0] = 1.0;
  row[63] = 2.0;
  row[64] = 3.0;
  row[129] = 4.0;
  table.commit_row(0, row);
  std::vector<std::pair<ColorsetIndex, double>> seen;
  table.for_each_nonzero(0, [&](ColorsetIndex idx, double value) {
    seen.emplace_back(idx, value);
  });
  const std::vector<std::pair<ColorsetIndex, double>> expect = {
      {0, 1.0}, {63, 2.0}, {64, 3.0}, {129, 4.0}};
  EXPECT_EQ(seen, expect);
}

TEST(SuccinctTable, RecommitReplacesRow) {
  // The restore path (checkpoint / spill page-in) re-commits rows; the
  // new blob overwrites the old one in place when it fits, and readers
  // must see only the new encoding, across a mode flip either way.
  constexpr std::uint32_t kWidth = 256;
  SuccinctTable table(2, kWidth);
  table.commit_row(0, std::vector<double>(kWidth, 1.0));  // bitmap
  EXPECT_EQ(table.num_bitmap_rows(), 1u);
  std::vector<double> sparse(kWidth, 0.0);
  sparse[17] = 9.0;
  table.commit_row(0, sparse);  // flips to sorted slots
  EXPECT_EQ(table.num_bitmap_rows(), 0u);
  EXPECT_EQ(table.num_sparse_rows(), 1u);
  for (ColorsetIndex c = 0; c < kWidth; ++c) {
    EXPECT_DOUBLE_EQ(table.get(0, c), c == 17 ? 9.0 : 0.0);
  }
  EXPECT_DOUBLE_EQ(table.vertex_total(0), 9.0);
  table.commit_row(0, std::vector<double>(kWidth, 2.0));  // outgrows it
  EXPECT_EQ(table.num_bitmap_rows(), 1u);
  EXPECT_EQ(table.num_sparse_rows(), 0u);
  for (ColorsetIndex c = 0; c < kWidth; ++c) {
    EXPECT_DOUBLE_EQ(table.get(0, c), 2.0);
  }
}

TEST(SuccinctTable, SparseFootprintBeatsCompact) {
  // Fig. 7's regime: the whole point of the layout.  Compact pays the
  // full row width per active vertex; succinct pays ~12 B per nonzero
  // (plus the unfilled tail of the last arena chunk).
  constexpr VertexId kN = 20000;
  constexpr std::uint32_t kWidth = 924;  // C(12,6): the k = 12 midpoint
  SuccinctTable succinct(kN, kWidth);
  CompactTable compact(kN, kWidth);
  std::vector<double> row(kWidth, 0.0);
  for (std::uint32_t c = 0; c < kWidth; c += 16) row[c] = 1.0;
  for (VertexId v = 0; v < kN; ++v) {
    succinct.commit_row(v, row);
    compact.commit_row(v, row);
  }
  EXPECT_LT(succinct.bytes(), compact.bytes() / 4);
  EXPECT_DOUBLE_EQ(succinct.total(), compact.total());
}

TEST(SuccinctTable, BytesCoverChunksAndMemTrackerBalances) {
  MemTracker::reset_all();
  const std::size_t before = MemTracker::current();
  {
    SuccinctTable table(1000, 64);
    std::vector<double> row(64, 1.0);
    for (VertexId v = 0; v < 1000; ++v) table.commit_row(v, row);
    // bytes() reports chunk *capacity* (the allocation), never less
    // than the handed-out blobs: 1000 rows x (1 header + 1 bitmap +
    // 1 rank + 64 values) words, plus the row-pointer array.
    const std::size_t floor_bytes =
        1000 * sizeof(std::uint64_t*) + 1000 * 67 * sizeof(std::uint64_t);
    EXPECT_GE(table.bytes(), floor_bytes);
    EXPECT_EQ(MemTracker::current() - before, table.bytes());
  }
  EXPECT_EQ(MemTracker::current(), before);
}

TEST(RowArena, ConcurrentThreadsGetDisjointBlocks) {
  // Plain std::threads (no OpenMP runtime in between), so every
  // sanitizer sees the real synchronization.  Each thread fills its
  // blocks with a tag and checks them after all threads are done: any
  // overlap between two threads' blocks would clobber a tag.
  constexpr int kThreads = 4;
  constexpr std::size_t kBlocks = 3000;
  constexpr std::size_t kWords = 6;
  MemTracker::reset_all();
  {
    RowArena arena;
    std::vector<std::vector<std::uint64_t*>> blocks(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < kBlocks; ++i) {
          std::uint64_t* block = arena.allocate(kWords);
          for (std::size_t w = 0; w < kWords; ++w) {
            block[w] = static_cast<std::uint64_t>(t) * kBlocks + i;
          }
          blocks[static_cast<std::size_t>(t)].push_back(block);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < kBlocks; ++i) {
        const std::uint64_t* block = blocks[static_cast<std::size_t>(t)][i];
        for (std::size_t w = 0; w < kWords; ++w) {
          ASSERT_EQ(block[w], static_cast<std::uint64_t>(t) * kBlocks + i);
        }
      }
    }
    EXPECT_GE(arena.bytes(), kThreads * kBlocks * kWords * sizeof(double));
    EXPECT_EQ(MemTracker::current(), arena.bytes());
  }
  EXPECT_EQ(MemTracker::current(), 0u);
}

}  // namespace
}  // namespace fascia
