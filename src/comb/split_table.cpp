#include "comb/split_table.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace fascia {

namespace {

/// Enumerates all size-`a` position subsets of {0..h-1} as sorted index
/// vectors, in colex order.
std::vector<std::vector<int>> position_subsets(int h, int a) {
  std::vector<std::vector<int>> subsets;
  std::vector<int> pos(static_cast<std::size_t>(a));
  std::iota(pos.begin(), pos.end(), 0);
  do {
    subsets.push_back(pos);
  } while (next_colorset(pos, h));
  return subsets;
}

}  // namespace

SplitTable::SplitTable(int num_colors, int parent_size, int active_size)
    : k_(num_colors), h_(parent_size), a_(active_size) {
  if (a_ < 1 || a_ >= h_ || h_ > k_) {
    throw std::invalid_argument("SplitTable: need 1 <= a < h <= k");
  }
  num_parents_ = num_colorsets(k_, h_);
  per_parent_ = num_colorsets(h_, a_);
  active_.resize(static_cast<std::size_t>(num_parents_) * per_parent_);
  passive_.resize(static_cast<std::size_t>(num_parents_) * per_parent_);

  const auto subsets = position_subsets(h_, a_);
  assert(subsets.size() == per_parent_);

  std::vector<int> parent_colors(static_cast<std::size_t>(h_));
  std::iota(parent_colors.begin(), parent_colors.end(), 0);
  std::vector<int> act(static_cast<std::size_t>(a_));
  std::vector<int> pas(static_cast<std::size_t>(h_ - a_));

  ColorsetIndex parent_index = 0;
  do {
    const std::size_t base = static_cast<std::size_t>(parent_index) * per_parent_;
    for (std::size_t s = 0; s < subsets.size(); ++s) {
      const auto& positions = subsets[s];
      std::size_t ai = 0, pi = 0, next_pos = 0;
      for (int i = 0; i < h_; ++i) {
        if (next_pos < positions.size() && positions[next_pos] == i) {
          act[ai++] = parent_colors[static_cast<std::size_t>(i)];
          ++next_pos;
        } else {
          pas[pi++] = parent_colors[static_cast<std::size_t>(i)];
        }
      }
      active_[base + s] = colorset_index(act);
      passive_[base + s] = colorset_index(pas);
    }
    ++parent_index;
  } while (next_colorset(parent_colors, k_));
  assert(parent_index == num_parents_);
}

RootedSplit::RootedSplit(int num_colors, int parent_size, int active_size)
    : k_(num_colors), h_(parent_size), a_(active_size) {
  const SplitTable global(k_, h_, a_);  // validates the shape
  const int p = h_ - a_;
  const RootedColorsets parents(k_, h_);
  const RootedColorsets actives(k_, a_);
  const RootedColorsets passives(k_, p);
  num_parents_ = parents.width();
  num_actives_ = actives.width();
  per_parent_ = num_colorsets(h_ - 1, a_ - 1);
  fold_size_ = static_cast<std::size_t>(num_parents_) * per_parent_;

  // Direct groups.  A group (root, other, A) is nonempty iff
  // other ∉ A, and then holds one entry per P ∋ other disjoint from A:
  // C(k-a-1, p-1) of them.
  const auto num_groups =
      static_cast<std::size_t>(k_) * k_ * (num_actives_ + 1);
  group_offset_.assign(num_groups, 0);
  const auto group_width =
      static_cast<std::uint32_t>(choose(k_ - a_ - 1, p - 1));
  std::uint32_t filled = 0;
  for (int root = 0; root < k_; ++root) {
    for (int other = 0; other < k_; ++other) {
      std::uint32_t* off =
          group_offset_.data() +
          (static_cast<std::size_t>(root) * k_ + other) * (num_actives_ + 1);
      for (ColorsetIndex act = 0; act < num_actives_; ++act) {
        off[act] = filled;
        if (other != root &&
            actives.slot(other, actives.global(root, act)) == kNoRootedSlot) {
          filled += group_width;
        }
      }
      off[num_actives_] = filled;
    }
  }
  group_parent_.resize(filled);
  group_passive_.resize(filled);
  // Parents ascend in colex order; for a fixed A, S = A ∪ P ascends
  // with P (A is disjoint from every P), so each group fills in passive
  // order.
  std::vector<std::uint32_t> cursor = group_offset_;
  std::vector<std::pair<int, ColorsetIndex>> roots, others;
  for (ColorsetIndex parent = 0; parent < global.num_parents(); ++parent) {
    const auto act = global.active_indices(parent);
    const auto pas = global.passive_indices(parent);
    for (std::size_t s = 0; s < act.size(); ++s) {
      roots.clear();
      others.clear();
      for (int c = 0; c < k_; ++c) {
        if (const ColorsetIndex slot = actives.slot(c, act[s]);
            slot != kNoRootedSlot) {
          roots.emplace_back(c, slot);
        } else if (const ColorsetIndex pslot = passives.slot(c, pas[s]);
                   pslot != kNoRootedSlot) {
          others.emplace_back(c, pslot);
        }
      }
      for (const auto& [root, act_slot] : roots) {
        const ColorsetIndex parent_slot = parents.slot(root, parent);
        for (const auto& [other, pas_slot] : others) {
          const std::uint32_t at =
              cursor[(static_cast<std::size_t>(root) * k_ + other) *
                         (num_actives_ + 1) +
                     act_slot]++;
          group_parent_[at] = parent_slot;
          group_passive_[at] = pas_slot;
        }
      }
    }
  }

  // Fold view: per root, per rooted parent, the global splits whose
  // active side holds the root, in per-parent order.
  fold_active_.resize(static_cast<std::size_t>(k_) * fold_size_);
  fold_passive_.resize(fold_active_.size());
  std::size_t at = 0;
  for (int root = 0; root < k_; ++root) {
    for (const ColorsetIndex parent : parents.globals(root)) {
      const auto act = global.active_indices(parent);
      const auto pas = global.passive_indices(parent);
      for (std::size_t s = 0; s < act.size(); ++s) {
        const ColorsetIndex act_slot = actives.slot(root, act[s]);
        if (act_slot == kNoRootedSlot) continue;
        fold_active_[at] = act_slot;
        fold_passive_[at] = pas[s];
        ++at;
      }
    }
  }
  assert(at == fold_active_.size());
}

SingleActiveSplit::SingleActiveSplit(int num_colors, int parent_size)
    : k_(num_colors), h_(parent_size) {
  if (h_ < 2 || h_ > k_) {
    throw std::invalid_argument("SingleActiveSplit: need 2 <= h <= k");
  }
  per_color_ = num_colorsets(k_ - 1, h_ - 1);
  table_.resize(static_cast<std::size_t>(k_) * per_color_);

  std::vector<int> passive(static_cast<std::size_t>(h_ - 1));
  std::vector<int> parent(static_cast<std::size_t>(h_));
  for (int c = 0; c < k_; ++c) {
    std::size_t filled = 0;
    std::iota(passive.begin(), passive.end(), 0);
    do {
      if (std::binary_search(passive.begin(), passive.end(), c)) continue;
      parent.assign(passive.begin(), passive.end());
      parent.insert(std::upper_bound(parent.begin(), parent.end(), c), c);
      Entry entry;
      entry.passive = colorset_index(passive);
      entry.parent = colorset_index(parent);
      table_[static_cast<std::size_t>(c) * per_color_ + filled] = entry;
      ++filled;
    } while (next_colorset(passive, k_));
    assert(filled == per_color_);
  }

  // Rooted pair lists: every S ⊇ {root, other}, in colex order.
  per_pair_ = num_colorsets(k_ - 2, h_ - 2);
  const RootedColorsets parents(k_, h_);
  const RootedColorsets rests(k_, h_ - 1);
  const std::size_t pairs_total =
      static_cast<std::size_t>(k_) * k_ * per_pair_;
  pair_parent_.resize(pairs_total);
  pair_passive_.resize(pairs_total);
  pair_active_.resize(pairs_total);
  for (int root = 0; root < k_; ++root) {
    for (int other = 0; other < k_; ++other) {
      if (other == root) continue;
      const std::size_t base =
          (static_cast<std::size_t>(root) * k_ + other) * per_pair_;
      std::size_t filled = 0;
      // entries(root) walks the parents containing root in colex order
      // with passive = S∖{root}.
      for (const Entry& entry : entries(root)) {
        const ColorsetIndex pas_slot = rests.slot(other, entry.passive);
        if (pas_slot == kNoRootedSlot) continue;
        const ColorsetIndex without_other =
            table_[static_cast<std::size_t>(other) * per_color_ +
                   parents.slot(other, entry.parent)]
                .passive;
        pair_parent_[base + filled] = parents.slot(root, entry.parent);
        pair_passive_[base + filled] = pas_slot;
        pair_active_[base + filled] = rests.slot(root, without_other);
        ++filled;
      }
      assert(filled == per_pair_);
    }
  }
}

ComplementSplit::ComplementSplit(int num_colors, int active_size)
    : k_(num_colors), a_(active_size) {
  if (a_ < 2 || k_ - a_ < 2) {
    throw std::invalid_argument("ComplementSplit: need 2 <= a <= k - 2");
  }
  per_pair_ = num_colorsets(k_ - 2, a_ - 1);
  const RootedColorsets actives(k_, a_);
  const RootedColorsets passives(k_, k_ - a_);
  // Global index of every size-a set's complement.
  std::vector<ColorsetIndex> complement(num_colorsets(k_, a_));
  std::vector<int> set(static_cast<std::size_t>(a_));
  std::vector<int> rest;
  std::iota(set.begin(), set.end(), 0);
  ColorsetIndex index = 0;
  do {
    rest.clear();
    for (int c = 0; c < k_; ++c) {
      if (!std::binary_search(set.begin(), set.end(), c)) rest.push_back(c);
    }
    complement[index++] = colorset_index(rest);
  } while (next_colorset(set, k_));

  const std::size_t pairs_total =
      static_cast<std::size_t>(k_) * k_ * per_pair_;
  pair_active_.resize(pairs_total);
  pair_passive_.resize(pairs_total);
  for (int root = 0; root < k_; ++root) {
    for (int other = 0; other < k_; ++other) {
      if (other == root) continue;
      const std::size_t base =
          (static_cast<std::size_t>(root) * k_ + other) * per_pair_;
      std::size_t filled = 0;
      for (ColorsetIndex slot = 0; slot < actives.width(); ++slot) {
        const ColorsetIndex global = actives.global(root, slot);
        // A ∌ other exactly when K∖A holds it.
        const ColorsetIndex pas_slot =
            passives.slot(other, complement[global]);
        if (pas_slot == kNoRootedSlot) continue;
        pair_active_[base + filled] = slot;
        pair_passive_[base + filled] = pas_slot;
        ++filled;
      }
      assert(filled == per_pair_);
    }
  }
}

}  // namespace fascia
