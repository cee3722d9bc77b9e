#include "comb/colorset.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace fascia {

ColorsetIndex colorset_index(std::span<const int> sorted_colors) noexcept {
  std::uint64_t index = 0;
  for (std::size_t i = 0; i < sorted_colors.size(); ++i) {
    index += choose(sorted_colors[i], static_cast<int>(i) + 1);
  }
  return static_cast<ColorsetIndex>(index);
}

void colorset_colors(ColorsetIndex index, int h, std::vector<int>& out) {
  out.clear();
  out.resize(static_cast<std::size_t>(h));
  // Greedy decode from the largest position: ch is the largest c with
  // C(c, h) <= remaining index.
  std::uint64_t rest = index;
  for (int pos = h; pos >= 1; --pos) {
    int c = pos - 1;  // smallest possible value at this position
    while (choose(c + 1, pos) <= rest) ++c;
    rest -= choose(c, pos);
    out[static_cast<std::size_t>(pos - 1)] = c;
  }
}

std::vector<int> colorset_colors(ColorsetIndex index, int h) {
  std::vector<int> out;
  colorset_colors(index, h, out);
  return out;
}

bool next_colorset(std::span<int> colors, int k) noexcept {
  // Colexicographic successor: the combinadic maps colex order onto
  // increasing indices, so we advance the *smallest* position that has
  // headroom and reset everything below it to {0, 1, ..., i-1}.
  const int h = static_cast<int>(colors.size());
  for (int i = 0; i < h; ++i) {
    const int ceiling =
        (i + 1 < h) ? colors[static_cast<std::size_t>(i + 1)] : k;
    if (colors[static_cast<std::size_t>(i)] + 1 < ceiling) {
      ++colors[static_cast<std::size_t>(i)];
      for (int j = 0; j < i; ++j) colors[static_cast<std::size_t>(j)] = j;
      return true;
    }
  }
  return false;
}

bool colorset_contains(ColorsetIndex index, int h, int c) {
  std::vector<int> colors;
  colorset_colors(index, h, colors);
  return std::binary_search(colors.begin(), colors.end(), c);
}

RootedColorsets::RootedColorsets(int num_colors, int set_size)
    : k_(num_colors), h_(set_size), num_sets_(num_colorsets(k_, h_)),
      width_(num_rooted_colorsets(k_, h_)) {
  assert(h_ >= 1 && h_ <= k_);
  slot_.assign(static_cast<std::size_t>(k_) * num_sets_, kNoRootedSlot);
  global_.resize(static_cast<std::size_t>(k_) * width_);
  std::vector<int> colors(static_cast<std::size_t>(h_));
  std::iota(colors.begin(), colors.end(), 0);
  std::vector<int> rest(static_cast<std::size_t>(h_ - 1));
  ColorsetIndex global = 0;
  do {
    // Each member c roots S at the combinadic of S∖{c} with the colors
    // above c shifted down.
    for (int m = 0; m < h_; ++m) {
      const int c = colors[static_cast<std::size_t>(m)];
      for (int i = 0, j = 0; i < h_; ++i) {
        if (i == m) continue;
        const int other = colors[static_cast<std::size_t>(i)];
        rest[static_cast<std::size_t>(j++)] = other > c ? other - 1 : other;
      }
      const ColorsetIndex slot = colorset_index(rest);
      slot_[static_cast<std::size_t>(c) * num_sets_ + global] = slot;
      global_[static_cast<std::size_t>(c) * width_ + slot] = global;
    }
    ++global;
  } while (next_colorset(colors, k_));
}

void colorset_bitmap_build_ranks(const std::uint64_t* words,
                                 std::size_t num_words,
                                 std::uint32_t* ranks) noexcept {
  std::uint32_t running = 0;
  for (std::size_t w = 0; w < num_words; ++w) {
    ranks[w] = running;
    running += static_cast<std::uint32_t>(std::popcount(words[w]));
  }
}

std::int64_t colorset_bitmap_select(const std::uint64_t* words,
                                    std::size_t num_words,
                                    std::uint32_t r) noexcept {
  std::uint32_t seen = 0;
  for (std::size_t w = 0; w < num_words; ++w) {
    const auto in_word = static_cast<std::uint32_t>(std::popcount(words[w]));
    if (seen + in_word > r) {
      std::uint64_t word = words[w];
      for (std::uint32_t skip = r - seen; skip > 0; --skip) {
        word &= word - 1;  // clear lowest set bit
      }
      return static_cast<std::int64_t>(w * 64) + std::countr_zero(word);
    }
    seen += in_word;
  }
  return -1;
}

}  // namespace fascia
