// Correctness checks: the exact top-q reference the benchmark computes
// from its own inputs, and the comparison every query result must pass.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

/// Order-independent fingerprint of a value multiset: the count, the
/// smallest value, and two independent 64-bit sums of per-value hashes.
/// Two multisets with equal fingerprints differ with probability ~2^-128,
/// and comparing fingerprints costs O(q) with no sort.
struct Fingerprint {
  std::size_t count = 0;
  double floor = 0.0;
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  void add(double v) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (count == 0 || v < floor) floor = v;
    ++count;
    Rng a(bits);
    Rng b(~bits);
    h1 += a.next();
    h2 += b.next() * 0x9E3779B97F4A7C15ull;
  }
};

/// Exact top-q of a value stream, kept by periodic nth_element. This is
/// the reference every query result is checked against.
class TopQ {
 public:
  /// Allocates and touches the whole buffer now, so that it is resident
  /// before the program's objects are built (see peak_rss_mb).
  explicit TopQ(std::size_t q) : q_(q), buf_(3 * q) { buf_.clear(); }

  void add(double v) {
    buf_.push_back(v);
    if (buf_.size() == 3 * q_) trim();
  }

  [[nodiscard]] Fingerprint fingerprint() {
    trim();
    Fingerprint f;
    for (const double v : buf_) f.add(v);
    return f;
  }

  /// Drop every value but the q largest.
  void trim() {
    if (buf_.size() <= q_) return;
    const auto nth = buf_.begin() + static_cast<std::ptrdiff_t>(q_);
    std::nth_element(buf_.begin(), nth, buf_.end(), std::greater<>());
    buf_.resize(q_);
  }

 private:
  std::size_t q_;
  std::vector<double> buf_;
};

template <typename Entry>
[[nodiscard]] Fingerprint fingerprint(const std::vector<Entry>& entries) {
  Fingerprint f;
  for (const auto& e : entries) f.add(e.val);
  return f;
}

/// True iff `got` is exactly the reference top-q: every entry carries its
/// own id's priority (no corrupted id or value) and the value multiset
/// equals the reference's.
template <typename Entry>
[[nodiscard]] bool matches(const std::vector<Entry>& got,
                           const Fingerprint& ref, const Priority& prio) {
  for (const auto& e : got) {
    if (e.val != prio(e.id)) return false;
  }
  return fingerprint(got) == ref;
}

/// Self-check of the checker: two deliberately corrupted forms of a
/// correct result (one value nudged by one ulp; one entry overwritten by a
/// duplicate of another, which keeps every id/value pair consistent) must
/// both fail. Corrupts `good` in place and puts it back, so that the check
/// allocates nothing. Returns false if either corruption goes unnoticed.
template <typename Entry>
[[nodiscard]] bool checker_catches_corruption(std::vector<Entry>& good,
                                              const Fingerprint& ref,
                                              const Priority& prio) {
  if (good.size() < 2 || !matches(good, ref, prio)) return false;
  std::size_t other = 1;
  while (other < good.size() && good[other].val == good[0].val) ++other;
  if (other == good.size()) return false;
  Entry& mid = good[good.size() / 2];
  const Entry mid_was = mid;
  mid.val = std::nextafter(mid.val, 2.0);
  const bool nudged_caught = !matches(good, ref, prio);
  mid = mid_was;
  const Entry first_was = good[0];
  good[0] = good[other];
  const bool duplicate_caught = !matches(good, ref, prio);
  good[0] = first_was;
  return nudged_caught && duplicate_caught;
}

}  // namespace perfbench
