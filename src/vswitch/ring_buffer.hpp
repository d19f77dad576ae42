// Single-producer single-consumer lock-free ring buffer.
//
// Stand-in for the shared-memory blocks the paper adds to the OVS
// datapath: "we build one shared memory block for each PMD thread of OVS
// and copy the recorded information into the corresponding shared memory
// blocks", consumed by a user-space measurement program. The PMD thread is
// the single producer, the monitor thread the single consumer.
//
// The ring is bounded; when the monitor's data-structure updates are
// slower than packet arrival the ring fills and the PMD must either drop
// records (losing measurement fidelity) or wait (throttling the switch).
// The paper's OVS throughput curves show the *waiting* behaviour — a slow
// reservoir visibly drags the switch below line rate — so backpressure is
// the default policy here, with drop mode available for experiments.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

#include "common/fault.hpp"
#include "common/validate.hpp"

namespace qmax::vswitch {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (index masking beats modulo
  /// on the per-packet fast path). A zero capacity is rejected rather than
  /// silently promoted: it always signals a configuration bug upstream.
  explicit SpscRing(std::size_t min_capacity) {
    common::validate_nonzero(min_capacity, "SpscRing", "capacity");
    fault::maybe_fail_alloc();
    std::size_t cap = 64;
    while (cap < min_capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when full.
  bool try_push(const T& item) noexcept { return push_batch(&item, 1) == 1; }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) noexcept { return pop_batch(&out, 1) == 1; }

  /// Producer side: push as many of `items[0, n)` as fit, in order, and
  /// publish them with one release store; returns the count accepted.
  /// A burst thus costs the consumer one transfer of the head_ line
  /// instead of one per item.
  std::size_t push_batch(const T* items, std::size_t n) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t free =
        capacity() - static_cast<std::size_t>(head - tail_cache_);
    if (n > free) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      free = capacity() - static_cast<std::size_t>(head - tail_cache_);
      if (n > free) n = free;
    }
    if (n == 0) return 0;
    for (std::size_t i = 0; i < n; ++i) buf_[(head + i) & mask_] = items[i];
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer side: pop up to `max` items into `out`; returns the count.
  /// `occupancy` receives the items visible to this pop (the head
  /// snapshot minus tail), so a caller gauging occupancy needs no second
  /// load of the producer's index line.
  std::size_t pop_batch(T* out, std::size_t max,
                        std::size_t& occupancy) noexcept {
    occupancy = 0;
    if (fault::pop_stalled()) return 0;  // injected consumer stall
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::uint64_t head = head_cache_;
    if (tail == head) {
      head = head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head) return 0;
    }
    occupancy = static_cast<std::size_t>(head - tail);
    const std::size_t n = occupancy < max ? occupancy : max;
    for (std::size_t i = 0; i < n; ++i) out[i] = buf_[(tail + i) & mask_];
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  std::size_t pop_batch(T* out, std::size_t max) noexcept {
    std::size_t occupancy;
    return pop_batch(out, max, occupancy);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Approximate occupancy (exact only when both sides are quiescent).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_acquire));
  }

  [[nodiscard]] bool empty_approx() const noexcept { return size_approx() == 0; }

  /// Producer-side view of the consumer's progress: the monotone count of
  /// items popped so far. The vswitch watchdog samples this while waiting
  /// on a full ring — a cursor frozen across a spin budget means the
  /// consumer is stalled (not merely slow) and the PMD must degrade
  /// instead of blocking forever.
  [[nodiscard]] std::uint64_t consumer_cursor() const noexcept {
    return tail_.load(std::memory_order_acquire);
  }

 private:
  // Fixed 64B (x86-64/common ARM line size) rather than
  // std::hardware_destructive_interference_size: the latter is an ABI
  // hazard GCC warns about (-Winterference-size).
  static constexpr std::size_t kCacheLine = 64;

  std::vector<T> buf_;
  std::size_t mask_ = 0;

  // Each index and each side's private snapshot of the other's index gets
  // its own line: the consumer polls head_, so a producer-private write
  // beside it (or beside tail_) would cost a line transfer per access.
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLine) std::uint64_t tail_cache_ = 0;  // producer's tail_
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLine) std::uint64_t head_cache_ = 0;  // consumer's head_
};

}  // namespace qmax::vswitch
