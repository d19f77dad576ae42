// Shared machinery for the batched ingestion fast path.
//
// The common case on the q-MAX hot path is *rejection*: once Ψ converges,
// almost every stream item falls below the admission bound and does
// nothing. The scalar add() still pays a full call per item; add_batch()
// instead screens a whole block of values against Ψ with one branch-free
// comparison each, compacting the indices of the survivors, and only the
// survivors enter the (scalar-identical) admission path. Because Ψ is
// monotone non-decreasing, an item at or below the snapshot Ψ can never be
// admitted later — prefiltering against a snapshot is lossless — and a
// NaN or kEmptyValue item compares false against any Ψ, so the same single
// comparison also screens inadmissible values.
//
// Every reservoir screens in blocks of kPrefilterBlock items so the index
// scratch stays cache-resident and Ψ raises inside a batch (iteration
// endings, maintenance passes) tighten the filter for the next block.
//
// The double-keyed kernels come in three vector widths — SSE2 (the
// x86-64 baseline), AVX2, and AVX-512F — compiled with per-function
// target attributes and picked at runtime via simd.hpp's cached tier
// (cpuid probes, QMAX_SIMD env override, in-process force for tests).
// Every tier evaluates exactly `v[k] > psi` per slot with ordered
// quiet-NaN semantics, so survivor masks are bit-identical across tiers
// by construction; the forced-tier differentials in
// tests/test_simd_dispatch.cpp assert that.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>

#include "qmax/entry.hpp"
#include "qmax/simd.hpp"

#if QMAX_SIMD_X86
// immintrin.h declares every x86 intrinsic regardless of -m flags; using
// one inside a function with the matching target attribute is what makes
// it legal in a default build.
#include <immintrin.h>
#endif

namespace qmax::batch {

/// Prefilter scan-block length. 512 × 4-byte indices = one 2 KiB scratch
/// per reservoir; long batches are screened block by block.
inline constexpr std::size_t kPrefilterBlock = 512;

/// Mini-block width of the two-level screen below. 16 values is wide
/// enough to amortize the vector reduction, narrow enough that a lone
/// survivor only drags 15 neighbours through the compaction loop. Fixed
/// across SIMD tiers (SSE2 walks 8×2, AVX2 4×4, AVX-512 2×8 doubles) so
/// tier choice never changes which lanes get screened.
inline constexpr std::size_t kScreenLane = 16;

// ---------------------------------------------------------------------
// Per-tier kernels (double). The generic templates further down are the
// scalar reference semantics every tier must reproduce bit for bit.
// ---------------------------------------------------------------------

[[nodiscard]] inline bool lane_any_above_scalar(const double* v,
                                                double psi) noexcept {
  int hits = 0;
  for (std::size_t k = 0; k < kScreenLane; ++k) {
    hits += static_cast<int>(v[k] > psi);
  }
  return hits != 0;
}

[[nodiscard]] inline unsigned lane_mask_above_scalar(const double* v,
                                                     double psi) noexcept {
  unsigned mask = 0;
  for (std::size_t k = 0; k < kScreenLane; ++k) {
    mask |= static_cast<unsigned>(v[k] > psi) << k;
  }
  return mask;
}

#if QMAX_SIMD_X86

/// SSE2: 8 packed compares OR-folded into one mask test, no stores, no
/// branches until the single skip decision. An any-above (OR) reduction —
/// unlike a max reduction — is NaN-safe: a NaN compares false, contributes
/// nothing, and can never mask a real survivor the way max(NaN, x) = NaN
/// would.
[[nodiscard]] inline bool lane_any_above_sse2(const double* v,
                                              double psi) noexcept {
  const __m128d bound = _mm_set1_pd(psi);
  __m128d any = _mm_cmpgt_pd(_mm_loadu_pd(v), bound);
  for (std::size_t k = 2; k < kScreenLane; k += 2) {
    any = _mm_or_pd(any, _mm_cmpgt_pd(_mm_loadu_pd(v + k), bound));
  }
  return _mm_movemask_pd(any) != 0;
}

[[nodiscard]] inline unsigned lane_mask_above_sse2(const double* v,
                                                   double psi) noexcept {
  const __m128d bound = _mm_set1_pd(psi);
  unsigned mask = 0;
  for (std::size_t k = 0; k < kScreenLane; k += 2) {
    mask |= static_cast<unsigned>(_mm_movemask_pd(
                _mm_cmpgt_pd(_mm_loadu_pd(v + k), bound)))
            << k;
  }
  return mask;
}

/// AVX2: four 4-wide compares. _CMP_GT_OQ is ordered-quiet greater-than —
/// the exact semantics of scalar `>` on doubles (NaN → false, no traps).
__attribute__((target("avx2"))) [[nodiscard]] inline bool
lane_any_above_avx2(const double* v, double psi) noexcept {
  const __m256d bound = _mm256_set1_pd(psi);
  __m256d any = _mm256_cmp_pd(_mm256_loadu_pd(v), bound, _CMP_GT_OQ);
  for (std::size_t k = 4; k < kScreenLane; k += 4) {
    any = _mm256_or_pd(any,
                       _mm256_cmp_pd(_mm256_loadu_pd(v + k), bound,
                                     _CMP_GT_OQ));
  }
  return _mm256_movemask_pd(any) != 0;
}

__attribute__((target("avx2"))) [[nodiscard]] inline unsigned
lane_mask_above_avx2(const double* v, double psi) noexcept {
  const __m256d bound = _mm256_set1_pd(psi);
  unsigned mask = 0;
  for (std::size_t k = 0; k < kScreenLane; k += 4) {
    mask |= static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_cmp_pd(_mm256_loadu_pd(v + k), bound, _CMP_GT_OQ)))
            << k;
  }
  return mask;
}

/// AVX-512F: the whole 16-value lane is two compares whose results are
/// already bitmasks (__mmask8) — the mask kernel costs the same as the
/// any kernel, with no movemask extraction at all.
__attribute__((target("avx512f"))) [[nodiscard]] inline bool
lane_any_above_avx512(const double* v, double psi) noexcept {
  const __m512d bound = _mm512_set1_pd(psi);
  const __mmask8 lo = _mm512_cmp_pd_mask(_mm512_loadu_pd(v), bound,
                                         _CMP_GT_OQ);
  const __mmask8 hi = _mm512_cmp_pd_mask(_mm512_loadu_pd(v + 8), bound,
                                         _CMP_GT_OQ);
  return (static_cast<unsigned>(lo) | static_cast<unsigned>(hi)) != 0;
}

__attribute__((target("avx512f"))) [[nodiscard]] inline unsigned
lane_mask_above_avx512(const double* v, double psi) noexcept {
  const __m512d bound = _mm512_set1_pd(psi);
  const __mmask8 lo = _mm512_cmp_pd_mask(_mm512_loadu_pd(v), bound,
                                         _CMP_GT_OQ);
  const __mmask8 hi = _mm512_cmp_pd_mask(_mm512_loadu_pd(v + 8), bound,
                                         _CMP_GT_OQ);
  return static_cast<unsigned>(lo) | (static_cast<unsigned>(hi) << 8);
}

#endif  // QMAX_SIMD_X86

// ---------------------------------------------------------------------
// Dispatching lane tests
// ---------------------------------------------------------------------

/// True if any of the kScreenLane values starting at `v` exceeds `psi`.
/// This is the reservoirs' whole-lane reject test: when it returns false
/// the lane is skipped without any per-item work. NaN and kEmptyValue
/// compare false against any Ψ, so the same test screens inadmissible
/// values. Generic reference implementation for non-double keys.
template <typename Value>
[[nodiscard]] inline bool lane_any_above(const Value* v, Value psi) noexcept {
  int hits = 0;
  for (std::size_t k = 0; k < kScreenLane; ++k) {
    hits += static_cast<int>(v[k] > psi);
  }
  return hits != 0;
}

/// Bit k set iff v[k] > psi, over one kScreenLane-wide lane. Used on lanes
/// the reject test let through: the caller walks the set bits instead of
/// re-scanning all 16 items. NaN and kEmptyValue compare false.
template <typename Value>
[[nodiscard]] inline unsigned lane_mask_above(const Value* v,
                                              Value psi) noexcept {
  unsigned mask = 0;
  for (std::size_t k = 0; k < kScreenLane; ++k) {
    mask |= static_cast<unsigned>(v[k] > psi) << k;
  }
  return mask;
}

#if QMAX_SIMD_X86

/// Double overloads taking an explicit tier: hot loops hoist one
/// simd_active_tier() load per call instead of paying it per lane.
[[nodiscard]] inline bool lane_any_above(const double* v, double psi,
                                         SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kAvx512: return lane_any_above_avx512(v, psi);
    case SimdTier::kAvx2: return lane_any_above_avx2(v, psi);
    case SimdTier::kSse2: return lane_any_above_sse2(v, psi);
    case SimdTier::kScalar: break;
  }
  return lane_any_above_scalar(v, psi);
}

[[nodiscard]] inline unsigned lane_mask_above(const double* v, double psi,
                                              SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kAvx512: return lane_mask_above_avx512(v, psi);
    case SimdTier::kAvx2: return lane_mask_above_avx2(v, psi);
    case SimdTier::kSse2: return lane_mask_above_sse2(v, psi);
    case SimdTier::kScalar: break;
  }
  return lane_mask_above_scalar(v, psi);
}

[[nodiscard]] inline bool lane_any_above(const double* v,
                                         double psi) noexcept {
  return lane_any_above(v, psi, simd_active_tier());
}

[[nodiscard]] inline unsigned lane_mask_above(const double* v,
                                              double psi) noexcept {
  return lane_mask_above(v, psi, simd_active_tier());
}

#endif  // QMAX_SIMD_X86

// Tier-hoisted callers stay generic: for non-double keys (and on non-x86
// hosts, where the double overloads above don't exist) the explicit-tier
// form decays to the scalar template. Overload resolution prefers the
// non-template double overloads where they exist.
template <typename Value>
[[nodiscard]] inline bool lane_any_above(const Value* v, Value psi,
                                         SimdTier) noexcept {
  return lane_any_above(v, psi);
}

template <typename Value>
[[nodiscard]] inline unsigned lane_mask_above(const Value* v, Value psi,
                                              SimdTier) noexcept {
  return lane_mask_above(v, psi);
}

// ---------------------------------------------------------------------
// Block prefilters
// ---------------------------------------------------------------------

/// Compact the indices of the values in v[0, n) strictly above `psi` into
/// idx (caller provides ≥ n slots). Two-level screen: the vector lane
/// reject test decides per 16-value mini-block whether anything survives;
/// only mini-blocks with a survivor run the scalar index compaction. On
/// the rejection-dominated steady state nearly every mini-block is
/// screened out by the vector pass alone. NaN and kEmptyValue compare
/// false and are rejected. Returns the number of survivors.
template <typename Value>
[[nodiscard]] inline std::size_t prefilter_above(const Value* v,
                                                 std::size_t n, Value psi,
                                                 std::uint32_t* idx) noexcept {
  const SimdTier tier = simd_active_tier();
  std::size_t out = 0;
  std::size_t j = 0;
  for (; j + kScreenLane <= n; j += kScreenLane) {
    if (!lane_any_above(v + j, psi, tier)) continue;
    for (std::size_t k = 0; k < kScreenLane; ++k) {
      idx[out] = static_cast<std::uint32_t>(j + k);
      out += static_cast<std::size_t>(v[j + k] > psi);
    }
  }
  for (; j < n; ++j) {
    idx[out] = static_cast<std::uint32_t>(j);
    out += static_cast<std::size_t>(v[j] > psi);
  }
  return out;
}

/// Entry-array variant with a gather-free split layout: deinterleave the
/// values into the caller's contiguous scratch (one strided copy the
/// compiler turns into shuffles — no per-lane gather instructions), then
/// run the SIMD screen over the packed doubles. The survivor indices
/// refer back into the entry array, so ids are only ever touched for
/// survivors. `vals` needs ≥ n slots.
template <typename Id, typename Value>
[[nodiscard]] inline std::size_t prefilter_above(
    const BasicEntry<Id, Value>* e, std::size_t n, Value psi,
    std::uint32_t* idx, Value* vals) noexcept {
  for (std::size_t j = 0; j < n; ++j) vals[j] = e[j].val;
  return prefilter_above(vals, n, psi, idx);
}

/// Strided fallback (no scratch): scalar walk over the entry array. Kept
/// for callers that cannot provide a values buffer.
template <typename Id, typename Value>
[[nodiscard]] inline std::size_t prefilter_above(
    const BasicEntry<Id, Value>* e, std::size_t n, Value psi,
    std::uint32_t* idx) noexcept {
  std::size_t out = 0;
  for (std::size_t j = 0; j < n; ++j) {
    idx[out] = static_cast<std::uint32_t>(j);
    out += static_cast<std::size_t>(e[j].val > psi);
  }
  return out;
}

// ---------------------------------------------------------------------
// Adaptive screen governor
// ---------------------------------------------------------------------

/// Decides per reservoir whether the lane screen currently pays for
/// itself. The screen wins when the Ψ-rejection rate is high (a skipped
/// lane retires 16 items on a few compares) and loses during warmup or
/// under admission-heavy streams, where nearly every lane survives and
/// the vector pass is pure overhead on top of the scalar admission walk.
///
/// The governor watches the observed rejection rate over fixed windows of
/// processed items and flips the mode with hysteresis (≥ kEnableRate to
/// turn the screen on, < kDisableRate to drop back to scalar), starting
/// in scalar mode because a fresh reservoir admits everything until Ψ
/// first rises. Both modes are semantically identical — the screen only
/// changes how rejections are detected — so flipping is invisible except
/// in throughput and in the mode-switch counter.
class ScreenGovernor {
 public:
  static constexpr std::size_t kWindow = 4096;
  /// Until the governor has flipped once it decides on short windows, so
  /// a stream that rejects from the first item — a restored reservoir, a
  /// shard tightened by the global-Ψ broadcast — engages the lane screen
  /// after ~1k items instead of paying a full scalar window. Derived from
  /// existing state (scalar + never switched), so snapshots are unaffected.
  static constexpr std::size_t kWarmupWindow = 1024;
  static constexpr double kEnableRate = 0.90;
  static constexpr double kDisableRate = 0.80;

  [[nodiscard]] bool screen_enabled() const noexcept { return screen_; }

  /// Account `n` processed items of which `rejected` fell at or below Ψ.
  /// Returns true when this observation flipped the mode.
  bool observe(std::size_t n, std::size_t rejected) noexcept {
    items_ += n;
    rejected_ += rejected;
    const std::size_t window =
        (!screen_ && switches_ == 0) ? kWarmupWindow : kWindow;
    if (items_ < window) return false;
    const double rate =
        static_cast<double>(rejected_) / static_cast<double>(items_);
    items_ = 0;
    rejected_ = 0;
    const bool want = screen_ ? (rate >= kDisableRate) : (rate >= kEnableRate);
    if (want == screen_) return false;
    screen_ = want;
    ++switches_;
    return true;
  }

  [[nodiscard]] std::uint64_t switches() const noexcept { return switches_; }

  /// Snapshot hook: mode flag plus the in-flight observation window, so a
  /// restored reservoir resumes the same scalar/lane decision mid-window.
  template <typename Archive>
  void serialize_state(Archive& ar) {
    ar.b(screen_);
    ar.sz(items_);
    ar.sz(rejected_);
    ar.u64(switches_);
  }

  void reset() noexcept {
    screen_ = false;
    items_ = 0;
    rejected_ = 0;
    switches_ = 0;
  }

 private:
  bool screen_ = false;  // scalar until the rejection rate proves the screen
  std::size_t items_ = 0;
  std::size_t rejected_ = 0;
  std::uint64_t switches_ = 0;
};

/// Feed (ids, vals)[0, n) to any reservoir: the batched path when the type
/// provides one, a scalar loop otherwise. Lets the window containers hold
/// arbitrary Reservoir types (baselines included) behind one call.
/// Reservoirs built on ReservoirCore adapt inside their add_batch — the
/// ScreenGovernor drops the lane screen whenever the observed rejection
/// rate is too low to pay for lane setup — so this entry point is safe to
/// use unconditionally, even on admission-heavy streams.
/// Returns the number of items the reservoir reported as admitted.
template <typename R, typename Id, typename Value>
inline std::size_t add_batch_or_each(R& r, const Id* ids, const Value* vals,
                                     std::size_t n) {
  if constexpr (requires { { r.add_batch(ids, vals, n) } -> std::convertible_to<std::size_t>; }) {
    return r.add_batch(ids, vals, n);
  } else {
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      admitted += static_cast<std::size_t>(r.add(ids[i], vals[i]));
    }
    return admitted;
  }
}

}  // namespace qmax::batch
