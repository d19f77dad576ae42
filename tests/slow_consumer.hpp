// Shared by the vswitch tests whose slow monitor consumer must let the PMD
// fill the ring before it drains anything.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace qmax::vswitch::test_support {

/// A slow consumer's first record waits long enough for the PMD to fill a
/// small ring. The per-record busy loop alone does not guarantee that:
/// under a sanitizer the PMD slows down more than the loop does.
inline void hold_first_record(const std::atomic<std::uint64_t>& received) {
  if (received.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace qmax::vswitch::test_support
