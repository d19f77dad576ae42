// White-box invariant audits for every reservoir variant.
//
// The paper's correctness argument rests on a handful of structural
// invariants — Ψ never exceeds the q-th largest retained value (so an
// eviction can never touch the true top q, Theorem 1), the deamortized
// selection owes at most O(1/γ) work per admitted item (Theorem 2), and
// the window variants' ring tags stay aligned to block boundaries (the
// coverage argument of Theorems 5-7). `check_invariants()` verifies all
// of them directly against the private state of a live instance, in
// O(capacity) time, without mutating it.
//
// Since every variant is a policy composition over core::ReservoirCore,
// the core is audited ONCE (one template, dispatching on the maintenance
// policy); the window containers add their per-policy geometry checks on
// top and recurse into their per-block cores. The Theorem 1 check keeps
// its own independent nth_element as a cross-check oracle — deliberately
// NOT core::partition_top, so the audit does not share code with the
// machinery it verifies (scripts/check_no_duplicate_selection.sh
// allowlists this file for that reason).
//
// Intended consumers: unit tests after every metamorphic step, the
// fault-injection soak (audit after every maintenance phase while
// faults fire), and interactive debugging. Audits are deliberately not
// compiled into the hot path — call them explicitly.
//
// `InvariantAccess` is the single friend the reservoir classes grant;
// keeping it one struct means the data structures name exactly one
// escape hatch and the audit code lives entirely in this header.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "qmax/amortized_qmax.hpp"
#include "qmax/core.hpp"
#include "qmax/entry.hpp"
#include "qmax/exp_decay.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sampled_qmax.hpp"
#include "qmax/sliding.hpp"
#include "qmax/time_sliding.hpp"

namespace qmax {

/// Outcome of one audit: empty == every invariant held.
struct AuditResult {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }

  void expect(bool condition, std::string what) {
    if (!condition) violations.push_back(std::move(what));
  }

  /// One violation per line; "" when clean (handy in ASSERT messages).
  [[nodiscard]] std::string to_string() const {
    std::string s;
    for (const std::string& v : violations) {
      s += v;
      s += '\n';
    }
    return s;
  }
};

namespace invariant_detail {

template <typename>
inline constexpr bool is_qmax_v = false;
template <typename Id, typename V>
inline constexpr bool is_qmax_v<QMax<Id, V>> = true;

template <typename>
inline constexpr bool is_amortized_v = false;
template <typename Id, typename V>
inline constexpr bool is_amortized_v<AmortizedQMax<Id, V>> = true;

template <typename>
inline constexpr bool is_sampled_v = false;
template <typename Id, typename V>
inline constexpr bool is_sampled_v<SampledQMax<Id, V>> = true;

template <typename>
inline constexpr bool is_sampled_maintenance_v = false;
template <typename VP>
inline constexpr bool
    is_sampled_maintenance_v<core::SampledMaintenance<VP>> = true;

template <typename>
inline constexpr bool is_deamortized_maintenance_v = false;
template <typename VP>
inline constexpr bool
    is_deamortized_maintenance_v<core::DeamortizedMaintenance<VP>> = true;

template <typename V>
[[nodiscard]] constexpr bool is_nan(V v) noexcept {
  if constexpr (std::is_floating_point_v<V>) {
    return v != v;
  } else {
    (void)v;
    return false;
  }
}

}  // namespace invariant_detail

/// The one friend of the reservoir classes: static audit entry points
/// that read private state. Use the free check_invariants() overloads
/// below unless composing audits with a shared AuditResult.
struct InvariantAccess {
  // ---- ReservoirCore: the shared engine, audited once ----------------
  // Common accounting invariants plus the maintenance-policy-specific
  // structure (Algorithm 1's parity array or Algorithm 2's suffix array).
  template <typename VP, typename WP, typename MP>
  static void audit(const core::ReservoirCore<VP, WP, MP>& r, AuditResult& a,
                    const std::string& ctx = {}) {
    using invariant_detail::is_nan;
    using V = typename core::ReservoirCore<VP, WP, MP>::Value;
    const auto& m = r.maint_;

    if constexpr (invariant_detail::is_deamortized_maintenance_v<MP>) {
      // -- Algorithm 1: parity array + incremental selection --
      const auto& eng = m.eng_;
      const std::size_t n = eng.arr_.size();
      a.expect(eng.g_ >= 1, ctx + "g must be at least 1");
      a.expect(n == r.q_ + 2 * eng.g_,
               ctx + "array must hold exactly q + 2g slots");
      a.expect(eng.steps_ < eng.g_,
               ctx + "steps must stay below g between updates");

      // Unfilled scratch slots must still be empty: admissions write the
      // scratch region strictly left to right.
      const std::size_t sb = eng.scratch_base();
      for (std::size_t i = sb + eng.steps_; i < sb + eng.g_ && i < n; ++i) {
        a.expect(eng.arr_[i].val == kEmptyValue<V>,
                 ctx + "unfilled scratch slot " + std::to_string(i) +
                     " is not empty");
      }

      std::size_t live = 0;
      bool nan_found = false;
      for (const auto& e : eng.arr_) {
        if (is_nan(e.val)) nan_found = true;
        if (e.val != kEmptyValue<V>) ++live;
      }
      a.expect(!nan_found, ctx + "NaN value stored in the array");
      a.expect(live == m.live_,
               ctx + "live counter (" + std::to_string(m.live_) +
                   ") disagrees with occupied slots (" + std::to_string(live) +
                   ")");
      a.expect(!is_nan(eng.psi_), ctx + "admission bound is NaN");

      // Theorem 1 core: Ψ never exceeds the q-th largest retained value,
      // so evicting items at or below Ψ can never touch the true top q.
      // A sharded reservoir may carry an externally folded bound
      // (raise_threshold_floor) above its own q-th largest — there the
      // guarantee is transferred to the broadcast group, and the local
      // check relaxes to Ψ ≤ max(q-th largest live, folded floor).
      if (live >= r.q_) {
        std::vector<V> vals;
        vals.reserve(live);
        for (const auto& e : eng.arr_) {
          if (e.val != kEmptyValue<V>) vals.push_back(e.val);
        }
        std::nth_element(vals.begin(),
                         vals.begin() + static_cast<std::ptrdiff_t>(r.q_ - 1),
                         vals.end(), std::greater<V>{});
        a.expect(!(vals[r.q_ - 1] < eng.psi_) || !(m.ext_floor_ < eng.psi_),
                 ctx + "admission bound exceeds the q-th largest live value");
      } else {
        a.expect(eng.psi_ == kEmptyValue<V> || !(m.ext_floor_ < eng.psi_),
                 ctx + "admission bound raised before q items were retained");
      }

      a.expect(m.live_ <= r.admitted_, ctx + "live exceeds admitted");

      // Theorem 2 (deamortization debt): each admitted item advances the
      // selection by at most step_budget_ ops plus the bounded pivot
      // overshoot (+16, see IncrementalSelect::step), and start() zeroes
      // the op counter — so mid-iteration debt is bounded by the steps
      // taken so far.
      a.expect(eng.select_.total_ops() <=
                   static_cast<std::uint64_t>(eng.steps_) *
                       (eng.step_budget_ + 16),
               ctx + "selection work exceeds the per-step budget bound");
    } else {
      // -- Algorithm 2: append + periodic maintenance pass --
      a.expect(m.cap_ > r.q_, ctx + "capacity must exceed q");
      a.expect(m.arr_.size() < m.cap_,
               ctx + "array must sit below capacity between updates");

      bool nan_found = false;
      bool empty_found = false;
      for (const auto& e : m.arr_) {
        if (is_nan(e.val)) nan_found = true;
        if (e.val == kEmptyValue<V>) empty_found = true;
      }
      a.expect(!nan_found, ctx + "NaN value stored in the array");
      a.expect(!empty_found,
               ctx + "reserved empty value stored as a live item");
      a.expect(!is_nan(m.psi_), ctx + "admission bound is NaN");

      if (m.psi_ != kEmptyValue<V>) {
        a.expect(m.arr_.size() >= r.q_ || !(m.ext_floor_ < m.psi_),
                 ctx + "admission bound raised before q items were retained");
      }
      if (m.arr_.size() >= r.q_) {
        std::vector<V> vals;
        vals.reserve(m.arr_.size());
        for (const auto& e : m.arr_) vals.push_back(e.val);
        std::nth_element(vals.begin(),
                         vals.begin() + static_cast<std::ptrdiff_t>(r.q_ - 1),
                         vals.end(), std::greater<V>{});
        a.expect(!(vals[r.q_ - 1] < m.psi_) || !(m.ext_floor_ < m.psi_),
                 ctx + "admission bound exceeds the q-th largest live value");
      }

      a.expect(m.arr_.size() <= r.admitted_, ctx + "live exceeds admitted");

      if constexpr (invariant_detail::is_sampled_maintenance_v<MP>) {
        // Sampled-pivot deltas. The slack window must leave real eviction
        // progress (a commit sheds at least cap - q - slack items), the
        // bookkeeping counters must tile the maintenance count, and a
        // committed pivot keeps every live item at or above Ψ: the exact
        // pass retains the q-th largest == Ψ, the sampled pass retains
        // only items strictly above the pivot it raised Ψ to. (An
        // externally folded bound may sit above the local items — then
        // ext_floor_ == Ψ and the guarantee belongs to the broadcast
        // group, as in the Theorem 1 relaxation above.)
        a.expect(r.q_ + m.slack_ < m.cap_,
                 ctx + "slack window must stay below capacity");
        a.expect(m.sample_size_ >= 1,
                 ctx + "sample size must be positive");
        if (!m.use_sampling_) {
          a.expect(m.sampled_passes_ == 0,
                   ctx + "sampled passes recorded with sampling disabled");
        }
        if (m.psi_ != kEmptyValue<V> && m.ext_floor_ < m.psi_) {
          for (const auto& e : m.arr_) {
            if (e.val < m.psi_) {
              a.expect(false,
                       ctx + "live item below the admission bound under "
                             "sampled maintenance");
              break;
            }
          }
        }
      }
    }

    a.expect(r.admitted_ <= r.processed_, ctx + "admitted exceeds processed");
  }

  // ---- SlackQMax: count-based slack windows (Algorithms 3/4, Thm 7) --
  template <typename R>
  static void audit(const SlackQMax<R>& r, AuditResult& a,
                    const std::string& ctx = {}) {
    const auto& levels = r.levels_;
    const std::size_t c = levels.size();
    a.expect(r.fine_block_ >= 1, ctx + "finest block size must be >= 1");
    a.expect(c >= 1, ctx + "at least one level required");
    if (c == 0) return;
    a.expect(levels[c - 1].block_size() == r.fine_block_,
             ctx + "finest level block size disagrees with W*tau");

    for (std::size_t l = 0; l < c; ++l) {
      const auto& lv = levels[l];
      const std::string lctx =
          ctx + "level " + std::to_string(l) + ": ";
      a.expect(lv.block_size() * lv.num_blocks() == r.effective_window_,
               lctx + "blocks do not tile the effective window");
      if (l + 1 < c) {
        a.expect(lv.block_size() == levels[l + 1].block_size() * r.branch_,
                 lctx + "block size is not branch x the finer level");
      }
      a.expect(lv.blocks().size() == lv.num_blocks(),
               lctx + "ring holds the wrong number of reservoirs");
      a.expect(lv.start_tags().size() == lv.num_blocks(),
               lctx + "tag array size disagrees with the ring");

      for (std::size_t slot = 0;
           slot < lv.start_tags().size() && slot < lv.blocks().size();
           ++slot) {
        const std::uint64_t s = lv.start_tags()[slot];
        if (s == SlackQMax<R>::kNoBlock) continue;
        const std::string bctx =
            lctx + "slot " + std::to_string(slot) + ": ";
        a.expect(s % lv.block_size() == 0,
                 bctx + "tag not aligned to the block size");
        a.expect((s / lv.block_size()) % lv.num_blocks() == slot,
                 bctx + "tag stored in the wrong ring slot");
        a.expect(s < r.t_, bctx + "tag points past the stream");
        audit_block(lv.blocks()[slot], a, bctx);
      }
    }

    if (r.opts_.lazy) {
      a.expect(r.front_.size() == 1,
               ctx + "lazy mode requires exactly one front reservoir");
      if (!r.front_.empty()) {
        if constexpr (requires { r.front_[0].processed(); }) {
          a.expect(r.front_[0].processed() == r.t_ % r.fine_block_,
                   ctx + "front reservoir out of sync with the flush point");
        }
        audit_block(r.front_[0], a, ctx + "front: ");
      }
    } else if (r.t_ > 0) {
      // Eager mode: the block containing the newest item must be tagged
      // at every level and must have seen every item since its start.
      for (std::size_t l = 0; l < c; ++l) {
        const auto& lv = levels[l];
        const std::uint64_t idx = (r.t_ - 1) / lv.block_size();
        const std::uint64_t slot = idx % lv.num_blocks();
        const std::uint64_t bstart = idx * lv.block_size();
        const std::string lctx =
            ctx + "level " + std::to_string(l) + ": ";
        a.expect(lv.start_tags()[slot] == bstart,
                 lctx + "newest block is not tracked");
        if (lv.start_tags()[slot] == bstart) {
          if constexpr (requires { lv.blocks()[slot].processed(); }) {
            a.expect(lv.blocks()[slot].processed() == r.t_ - bstart,
                     lctx + "newest block missed items since its start");
          }
        }
      }
    }
  }

  // ---- TimeSlackQMax: time-based slack windows (Section 4.3.4) -------
  template <typename R>
  static void audit(const TimeSlackQMax<R>& r, AuditResult& a,
                    const std::string& ctx = {}) {
    const auto& ring = r.ring_;
    a.expect(ring.block_size() >= 1, ctx + "block span must be >= 1");
    a.expect(ring.num_blocks() ==
                 (r.window_ + ring.block_size() - 1) / ring.block_size() + 1,
             ctx + "ring length disagrees with the window geometry");
    a.expect(ring.blocks().size() == ring.num_blocks(),
             ctx + "ring holds the wrong number of reservoirs");
    a.expect(ring.start_tags().size() == ring.num_blocks(),
             ctx + "tag array size disagrees with the ring");

    for (std::size_t slot = 0;
         slot < ring.start_tags().size() && slot < ring.blocks().size();
         ++slot) {
      const std::uint64_t s = ring.start_tags()[slot];
      if (s == TimeSlackQMax<R>::kNoBlock) continue;
      const std::string bctx = ctx + "slot " + std::to_string(slot) + ": ";
      a.expect(s % ring.block_size() == 0,
               bctx + "tag not aligned to the block span");
      a.expect((s / ring.block_size()) % ring.num_blocks() == slot,
               bctx + "tag stored in the wrong ring slot");
      a.expect(s <= r.now_, bctx + "tag points past the newest timestamp");
      audit_block(ring.blocks()[slot], a, bctx);
    }

    if (r.processed_ > 0) {
      const std::uint64_t idx = r.now_ / ring.block_size();
      a.expect(ring.start_tags()[idx % ring.num_blocks()] ==
                   idx * ring.block_size(),
               ctx + "block of the newest item is not tracked");
    }
  }

  /// Audit a nested block: full white-box when the reservoir type is one
  /// of ours, a public-API smoke check otherwise.
  template <typename R>
  static void audit_block(const R& r, AuditResult& a,
                          const std::string& ctx) {
    if constexpr (invariant_detail::is_qmax_v<R> ||
                  invariant_detail::is_amortized_v<R> ||
                  invariant_detail::is_sampled_v<R>) {
      audit(r, a, ctx);
    } else if constexpr (requires(std::vector<typename R::EntryT>& out) {
                           r.query_into(out);
                           r.q();
                         }) {
      std::vector<typename R::EntryT> out;
      r.query_into(out);
      a.expect(out.size() <= r.q(),
               ctx + "query returned more than q items");
    }
  }
};

// ---- Free entry points ----------------------------------------------

/// Covers every policy composition: QMax, AmortizedQMax, and the
/// ExpDecay inner core all deduce to their ReservoirCore base.
template <typename VP, typename WP, typename MP>
[[nodiscard]] AuditResult check_invariants(
    const core::ReservoirCore<VP, WP, MP>& r) {
  AuditResult a;
  InvariantAccess::audit(r, a);
  return a;
}

template <typename R>
[[nodiscard]] AuditResult check_invariants(const SlackQMax<R>& r) {
  AuditResult a;
  InvariantAccess::audit(r, a);
  return a;
}

template <typename R>
[[nodiscard]] AuditResult check_invariants(const TimeSlackQMax<R>& r) {
  AuditResult a;
  InvariantAccess::audit(r, a);
  return a;
}

/// ExpDecayQMax needs no friendship: its inner core is public and holds
/// all the interesting state (the wrapper only shifts the domain).
template <typename Id>
[[nodiscard]] AuditResult check_invariants(const ExpDecayQMax<Id>& r) {
  AuditResult a;
  InvariantAccess::audit(r.inner(), a, "inner: ");
  a.expect(r.inner().processed() <= r.processed(),
           "inner reservoir saw more items than the wrapper");
  return a;
}

/// Cross-observation monotonicity: Ψ and processed() may only grow over
/// a reservoir's lifetime (do not reset() the reservoir mid-stream of
/// observations). The soak test threads one of these through every
/// maintenance phase.
template <typename R>
class MonotoneAuditor {
 public:
  [[nodiscard]] AuditResult observe(const R& r) {
    AuditResult a = check_invariants(r);
    if constexpr (requires { r.threshold(); }) {
      const auto psi = static_cast<long double>(r.threshold());
      a.expect(!(psi < last_psi_),
               "admission bound regressed across observations");
      last_psi_ = psi;
    }
    if constexpr (requires { r.processed(); }) {
      a.expect(r.processed() >= last_processed_,
               "processed counter went backwards across observations");
      last_processed_ = r.processed();
    }
    return a;
  }

 private:
  long double last_psi_ = -std::numeric_limits<long double>::infinity();
  std::uint64_t last_processed_ = 0;
};

}  // namespace qmax
