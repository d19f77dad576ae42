// The virtual switch's forwarding state, modelled on the OVS userspace
// datapath's two-tier lookup:
//
//   1. EMC (exact match cache): a small direct-mapped cache keyed by the
//      full 5-tuple hash — the per-packet fast path.
//   2. dpcls (tuple-space classifier): one hash table per wildcard mask
//      ("subtable"); a miss in the EMC probes subtables in order and the
//      hit is inserted back into the EMC.
//
// This is the substrate for the Section 6.6 experiments: it gives the
// packet a realistic amount of non-measurement work per hop, so the
// relative overhead of the attached measurement algorithm (the quantity
// the paper reports) is meaningful.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "trace/packet.hpp"

namespace qmax::vswitch {

struct Action {
  std::uint16_t out_port = 0;

  friend constexpr bool operator==(const Action&, const Action&) = default;
};

/// A wildcard match: bits set in the mask participate in the match.
struct FlowMask {
  std::uint32_t src_ip = 0xFFFFFFFF;
  std::uint32_t dst_ip = 0xFFFFFFFF;
  std::uint16_t src_port = 0xFFFF;
  std::uint16_t dst_port = 0xFFFF;
  std::uint8_t proto = 0xFF;

  friend constexpr bool operator==(const FlowMask&, const FlowMask&) = default;

  [[nodiscard]] trace::FiveTuple apply(const trace::FiveTuple& t) const noexcept {
    trace::FiveTuple m;
    m.src_ip = t.src_ip & src_ip;
    m.dst_ip = t.dst_ip & dst_ip;
    m.src_port = static_cast<std::uint16_t>(t.src_port & src_port);
    m.dst_port = static_cast<std::uint16_t>(t.dst_port & dst_port);
    m.proto = static_cast<trace::Proto>(static_cast<std::uint8_t>(t.proto) & proto);
    return m;
  }
};

/// Exact match cache: direct-mapped, fixed size, overwrite on conflict —
/// the same semantics as the OVS EMC (it is a cache, not a store).
class ExactMatchCache {
 public:
  explicit ExactMatchCache(std::size_t entries = 8192);

  [[nodiscard]] std::optional<Action> lookup(
      const trace::FiveTuple& t) const noexcept;
  /// The same with the tuple's flow_key() already computed.
  [[nodiscard]] std::optional<Action> lookup(const trace::FiveTuple& t,
                                             std::uint64_t key) const noexcept;
  void insert(const trace::FiveTuple& t, Action a) noexcept;
  void clear() noexcept;

 private:
  struct Slot {
    trace::FiveTuple tuple;
    Action action;
    bool valid = false;
  };
  std::vector<Slot> slots_;
  std::size_t mask_;
};

/// Tuple-space classifier: one exact-match hash table per mask.
class TupleSpaceClassifier {
 public:
  TupleSpaceClassifier() = default;

  /// Install `rule` (already masked or not — it is masked on insert).
  void add_rule(const FlowMask& mask, const trace::FiveTuple& match, Action a);

  /// Probe subtables in insertion order; first hit wins.
  [[nodiscard]] std::optional<Action> lookup(
      const trace::FiveTuple& t) const noexcept;

  [[nodiscard]] std::size_t subtable_count() const noexcept {
    return subtables_.size();
  }
  [[nodiscard]] std::size_t rule_count() const noexcept;

 private:
  struct Subtable {
    FlowMask mask;
    // Open-addressing table of masked tuples (power-of-two, linear probe).
    struct Slot {
      trace::FiveTuple key;
      Action action;
      bool valid = false;
    };
    std::vector<Slot> slots;
    std::size_t size = 0;
    std::size_t index_mask = 0;

    void grow();
    void insert(const trace::FiveTuple& masked, Action a);
    [[nodiscard]] std::optional<Action> find(
        const trace::FiveTuple& masked) const noexcept;
  };
  std::vector<Subtable> subtables_;
};

/// The combined two-tier lookup with hit statistics.
class FlowTable {
 public:
  explicit FlowTable(std::size_t emc_entries = 8192) : emc_(emc_entries) {}

  void add_rule(const FlowMask& mask, const trace::FiveTuple& match, Action a) {
    classifier_.add_rule(mask, match, a);
  }

  /// Full lookup path: EMC, then classifier (+EMC refill), else miss.
  /// `key...` is empty or the tuple's flow_key() already computed (the
  /// RSS queue filter has it), so the EMC probe does not hash again.
  template <typename... Key>
  [[nodiscard]] std::optional<Action> lookup(const trace::FiveTuple& t,
                                             Key... key) noexcept {
    if (auto hit = emc_.lookup(t, key...)) {
      ++emc_hits_;
      return hit;
    }
    if (auto hit = classifier_.lookup(t)) {
      ++classifier_hits_;
      emc_.insert(t, *hit);
      return hit;
    }
    ++misses_;
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t emc_hits() const noexcept { return emc_hits_; }
  [[nodiscard]] std::uint64_t classifier_hits() const noexcept {
    return classifier_hits_;
  }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] const TupleSpaceClassifier& classifier() const noexcept {
    return classifier_;
  }

 private:
  ExactMatchCache emc_;
  TupleSpaceClassifier classifier_;
  std::uint64_t emc_hits_ = 0;
  std::uint64_t classifier_hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace qmax::vswitch
