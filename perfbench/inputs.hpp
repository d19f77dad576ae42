// Workload inputs owned by the benchmark.
//
// Packet streams, value streams and the record -> priority map are made
// here from the --seed, never by the library's trace generators or hash
// functions. A change to src/trace or src/common/hash therefore cannot
// silently change what the benchmark feeds the program.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/packet.hpp"

namespace perfbench {

/// SplitMix64 generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : s_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform on [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform on [0, n).
  std::uint64_t below(std::uint64_t n) noexcept {
    __extension__ using u128 = unsigned __int128;
    return static_cast<std::uint64_t>((static_cast<u128>(next()) * n) >> 64);
  }

 private:
  std::uint64_t s_;
};

/// Item priority: a pure function of (seed, id), uniform on (0, 1]. Every
/// value the reservoirs see is prio(id), so any returned entry can be
/// checked on its own, and the reference top-q is computed from ids alone.
class Priority {
 public:
  explicit Priority(std::uint64_t seed) noexcept
      : key_(fmix(seed ^ 0x5851F42D4C957F2Dull)) {}

  [[nodiscard]] double operator()(std::uint64_t id) const noexcept {
    return static_cast<double>((fmix(id ^ key_) >> 11) + 1) * 0x1.0p-53;
  }

 private:
  // MurmurHash3's 64-bit finalizer.
  [[nodiscard]] static constexpr std::uint64_t fmix(std::uint64_t k) noexcept {
    k ^= k >> 33;
    k *= 0xFF51AFD7ED558CCDull;
    k ^= k >> 33;
    k *= 0xC4CEB9FE1A85EC53ull;
    return k ^ (k >> 33);
  }
  std::uint64_t key_;
};

/// Item ids. Each pass of a run ingests items of its own: pass p's stream
/// items have ids p * 2^33 + i and its warm-up items p * 2^33 + 2^32 + i.
/// Pre-fill items have ids 2^62 + i. Distinct ids give independent
/// priorities.
inline constexpr std::uint64_t kPrefillIdBase = 1ull << 62;

[[nodiscard]] constexpr std::uint64_t stream_id_base(std::uint64_t pass) {
  return pass << 33;
}
[[nodiscard]] constexpr std::uint64_t warmup_id_base(std::uint64_t pass) {
  return (pass << 33) | (1ull << 32);
}

/// IP total length of a 64-byte Ethernet frame (64 - 14 header - 4 FCS).
inline constexpr std::uint32_t kMin64IpLength = 46;

/// Flow `flow`'s 5-tuple: a pure function of (key, flow), so no table of
/// flows is built.
[[nodiscard]] inline qmax::trace::FiveTuple flow_tuple(std::uint64_t key,
                                                       std::uint64_t flow) {
  Rng rng(key ^ (flow * 0xD1B54A32D192ED03ull));
  const std::uint64_t a = rng.next();
  const std::uint64_t b = rng.next();
  qmax::trace::FiveTuple t;
  t.src_ip = static_cast<std::uint32_t>(a);
  t.dst_ip = static_cast<std::uint32_t>(a >> 32);
  t.src_port = static_cast<std::uint16_t>(b);
  t.dst_port = static_cast<std::uint16_t>(b >> 16);
  t.proto = (b >> 32) & 1 ? qmax::trace::Proto::kUdp : qmax::trace::Proto::kTcp;
  return t;
}

/// Minimum-size frames, each from one of `flows` flows drawn uniformly:
/// the EMC sees almost no reuse, so every packet pays the classifier.
[[nodiscard]] inline std::vector<qmax::trace::PacketRecord> uniform_min64(
    std::uint64_t seed, std::size_t flows, std::size_t n) {
  Rng rng(seed);
  const std::uint64_t key = rng.next();
  std::vector<qmax::trace::PacketRecord> pkts(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& p = pkts[i];
    p.tuple = flow_tuple(key, rng.below(flows));
    p.length = kMin64IpLength;
    p.timestamp = i * 67;  // 84 wire bytes at 10 Gb/s
    p.packet_id = i;
  }
  return pkts;
}

/// Zipf(s) over ranks [0, n) by inverse CDF.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  [[nodiscard]] std::size_t operator()(Rng& rng) const noexcept {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Datacenter-like traffic: Zipf(skew)-popular flows with the repository's
/// UNIV1-like size mix (src/trace/synthetic.cpp, DatacenterLikeGenerator):
/// 55% small packets of 64-163 bytes and 45% bulk packets of 1440-1500
/// bytes. The same constants are kept here, so that a change there does
/// not change this workload. Packet length reaches no timed path of the
/// switch beyond byte counters and the monitor record's copy of it.
[[nodiscard]] inline std::vector<qmax::trace::PacketRecord> zipf_dc(
    std::uint64_t seed, std::size_t flows, double skew, std::size_t n) {
  Rng rng(seed);
  const std::uint64_t key = rng.next();
  const ZipfTable zipf(flows, skew);
  std::vector<qmax::trace::PacketRecord> pkts(n);
  std::uint64_t t_ns = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& p = pkts[i];
    p.tuple = flow_tuple(key, zipf(rng));
    p.length = rng.uniform() < 0.55
                   ? 64 + static_cast<std::uint32_t>(rng.below(100))
                   : 1440 + static_cast<std::uint32_t>(rng.below(61));
    p.timestamp = t_ns;
    t_ns += static_cast<std::uint64_t>(
        qmax::trace::wire_bytes(p.length) * 0.8);  // ns at 10 Gb/s
    p.packet_id = i;
  }
  return pkts;
}

}  // namespace perfbench
