#include "vswitch/flow_table.hpp"

#include "common/hash.hpp"

namespace qmax::vswitch {
namespace {

[[nodiscard]] std::uint64_t tuple_hash(const trace::FiveTuple& t) noexcept {
  return t.flow_key();
}

[[nodiscard]] std::size_t round_pow2(std::size_t n) noexcept {
  std::size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ExactMatchCache::ExactMatchCache(std::size_t entries)
    : slots_(round_pow2(entries)), mask_(slots_.size() - 1) {}

std::optional<Action> ExactMatchCache::lookup(
    const trace::FiveTuple& t) const noexcept {
  const Slot& s = slots_[tuple_hash(t) & mask_];
  if (s.valid && s.tuple == t) return s.action;
  return std::nullopt;
}

std::optional<Action> ExactMatchCache::lookup(
    const trace::FiveTuple& t, std::uint64_t key) const noexcept {
  const Slot& s = slots_[key & mask_];
  if (s.valid && s.tuple == t) return s.action;
  return std::nullopt;
}

void ExactMatchCache::insert(const trace::FiveTuple& t, Action a) noexcept {
  Slot& s = slots_[tuple_hash(t) & mask_];
  s.tuple = t;
  s.action = a;
  s.valid = true;
}

void ExactMatchCache::clear() noexcept {
  for (auto& s : slots_) s.valid = false;
}

void TupleSpaceClassifier::Subtable::grow() {
  std::vector<Slot> old = std::move(slots);
  const std::size_t new_cap = old.empty() ? 64 : old.size() * 2;
  slots.assign(round_pow2(new_cap), Slot{});
  index_mask = slots.size() - 1;
  size = 0;
  for (const Slot& s : old) {
    if (s.valid) insert(s.key, s.action);
  }
}

void TupleSpaceClassifier::Subtable::insert(const trace::FiveTuple& masked,
                                            Action a) {
  if (slots.empty() || (size + 1) * 4 > slots.size() * 3) grow();
  std::size_t i = tuple_hash(masked) & index_mask;
  for (;;) {
    Slot& s = slots[i];
    if (!s.valid) {
      s.key = masked;
      s.action = a;
      s.valid = true;
      ++size;
      return;
    }
    if (s.key == masked) {  // update in place
      s.action = a;
      return;
    }
    i = (i + 1) & index_mask;
  }
}

std::optional<Action> TupleSpaceClassifier::Subtable::find(
    const trace::FiveTuple& masked) const noexcept {
  if (slots.empty()) return std::nullopt;
  std::size_t i = tuple_hash(masked) & index_mask;
  for (;;) {
    const Slot& s = slots[i];
    if (!s.valid) return std::nullopt;
    if (s.key == masked) return s.action;
    i = (i + 1) & index_mask;
  }
}

void TupleSpaceClassifier::add_rule(const FlowMask& mask,
                                    const trace::FiveTuple& match, Action a) {
  for (Subtable& st : subtables_) {
    if (st.mask == mask) {
      st.insert(mask.apply(match), a);
      return;
    }
  }
  Subtable st;
  st.mask = mask;
  st.insert(mask.apply(match), a);
  subtables_.push_back(std::move(st));
}

std::optional<Action> TupleSpaceClassifier::lookup(
    const trace::FiveTuple& t) const noexcept {
  for (const Subtable& st : subtables_) {
    if (auto hit = st.find(st.mask.apply(t))) return hit;
  }
  return std::nullopt;
}

std::size_t TupleSpaceClassifier::rule_count() const noexcept {
  std::size_t n = 0;
  for (const Subtable& st : subtables_) n += st.size;
  return n;
}

}  // namespace qmax::vswitch
