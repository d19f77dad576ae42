// Multi-PMD virtual switch: the deployment shape of the paper's OVS
// integration ("we build one shared memory block for each PMD thread of
// OVS ... a user-space program reads the packet information from the
// shared memory blocks").
//
// N PMD threads each own a flow table (OVS keeps a per-PMD EMC *and* a
// per-PMD dpcls) and an SPSC monitor ring. Packets are dispatched to PMDs
// by RSS (flow-key hash), preserving per-flow ordering: every PMD polls
// the caller's whole input and handles only its own receive queue, the
// packets whose rss_queue() index is its own, so no per-PMD copy of the
// input is made. One measurement thread — the user-space program — drains
// all rings round-robin and feeds a single measurement algorithm; each
// ring stays single-producer / single-consumer.
//
// Throughput semantics match VirtualSwitch: with backpressure on, a slow
// measurement consumer stalls whichever PMD fills its ring, dragging
// aggregate switch throughput — now with N producers contending for one
// consumer, the regime the paper's q = 10^7 cliffs live in.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "vswitch/vswitch.hpp"

namespace qmax::vswitch {

struct MultiPmdConfig {
  std::size_t pmd_threads = 2;
  SwitchConfig per_pmd{};
  /// Dispatch flows with the historical bare `flow_key() % n` instead of
  /// the mixed fastrange hash. Bare modulo maps structured key material
  /// (sequential IPs, fixed ports) straight onto PMD indices, so real
  /// traces land lopsided; kept only so old skew numbers stay
  /// reproducible.
  bool legacy_rss_modulo = false;
};

struct MultiRunResult {
  std::vector<RunResult> per_pmd;
  std::uint64_t packets = 0;
  double seconds = 0.0;  // wall-clock of the whole parallel section

  [[nodiscard]] double aggregate_mpps() const noexcept {
    return common::mops(packets, seconds);
  }
  /// Slowest / fastest individual PMD datapath rate: how lopsided the RSS
  /// partition left the producers. (Each PMD's own wall time, which
  /// includes skipping the other PMDs' packets of the shared input, so on
  /// a time-shared host these rank PMDs against each other, not the
  /// wire.)
  [[nodiscard]] double min_pmd_mpps() const noexcept {
    double m = 0.0;
    bool first = true;
    for (const auto& r : per_pmd) {
      const double v = r.datapath_mpps();
      if (first || v < m) m = v;
      first = false;
    }
    return m;
  }
  [[nodiscard]] double max_pmd_mpps() const noexcept {
    double m = 0.0;
    for (const auto& r : per_pmd) {
      const double v = r.datapath_mpps();
      if (v > m) m = v;
    }
    return m;
  }
  /// max/min PMD rate; 1.0 = perfectly balanced, grows with imbalance.
  /// Returns 1.0 when degenerate (≤1 PMD, or an idle PMD measured 0).
  [[nodiscard]] double pmd_skew() const noexcept {
    const double lo = min_pmd_mpps();
    const double hi = max_pmd_mpps();
    return (per_pmd.size() > 1 && lo > 0.0) ? hi / lo : 1.0;
  }
  [[nodiscard]] double delivered_mpps(double line_rate_pps) const noexcept {
    const double dp = aggregate_mpps();
    const double line = line_rate_pps / 1e6;
    return dp < line ? dp : line;
  }
  [[nodiscard]] std::uint64_t total_stalls() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.backpressure_stalls;
    return n;
  }
  [[nodiscard]] std::uint64_t total_drops() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.records_dropped;
    return n;
  }
  [[nodiscard]] std::uint64_t total_drained() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.records_drained;
    return n;
  }
  /// Peak occupancy across every PMD's monitor ring.
  [[nodiscard]] std::uint64_t max_ring_occupancy() const noexcept {
    std::uint64_t m = 0;
    for (const auto& r : per_pmd) {
      if (r.ring_occupancy_max > m) m = r.ring_occupancy_max;
    }
    return m;
  }
  /// kGraceful aggregates across PMDs (0 under the other policies).
  [[nodiscard]] std::uint64_t total_shed_probabilistic() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.shed_probabilistic;
    return n;
  }
  [[nodiscard]] std::uint64_t total_shed_below_psi() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.shed_below_psi;
    return n;
  }
  [[nodiscard]] std::uint64_t total_watchdog_trips() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : per_pmd) n += r.watchdog_trips;
    return n;
  }
  /// Highest ladder level any PMD reached (DegradeState numeric value).
  [[nodiscard]] std::uint8_t degrade_peak() const noexcept {
    std::uint8_t m = 0;
    for (const auto& r : per_pmd) {
      if (r.degrade_peak > m) m = r.degrade_peak;
    }
    return m;
  }
};

class MultiPmdSwitch {
 public:
  explicit MultiPmdSwitch(MultiPmdConfig cfg = {}) : cfg_(cfg) {
    if (cfg_.pmd_threads == 0) cfg_.pmd_threads = 1;
    pmds_.reserve(cfg_.pmd_threads);
    for (std::size_t i = 0; i < cfg_.pmd_threads; ++i) {
      pmds_.push_back(std::make_unique<VirtualSwitch>(cfg_.per_pmd));
    }
  }

  /// Install the same forwarding policy on every PMD's table.
  void install_default_rules(std::uint32_t buckets = 256) {
    for (auto& pmd : pmds_) pmd->install_default_rules(buckets);
  }

  [[nodiscard]] std::size_t pmd_count() const noexcept { return pmds_.size(); }
  [[nodiscard]] VirtualSwitch& pmd(std::size_t i) { return *pmds_.at(i); }

  /// RSS dispatch: which PMD owns this packet's flow (rss_queue over the
  /// flow key). PMD i's receive queue is the packets this maps to i.
  [[nodiscard]] std::size_t rss(const trace::PacketRecord& p) const noexcept {
    return rss_queue(p.tuple.flow_key(), pmds_.size(),
                     cfg_.legacy_rss_modulo);
  }

  /// Forward with a single measurement consumer draining every PMD's
  /// ring. Called on the monitor thread, either per record as
  /// `consume(pmd_index, record)` or — when the consumer accepts a span —
  /// per drained batch as `consume(pmd_index, span)`, feeding whole ring
  /// pops to a reservoir's add_batch.
  template <typename Consumer>
  MultiRunResult forward_monitored(std::span<const trace::PacketRecord> packets,
                                   Consumer&& consume) {
    return run_monitored(
        packets, 1, [&](std::size_t) -> MonitorTelemetry& { return mon_tm_; },
        consume);
  }

  /// Sharded measurement pipeline: one consumer thread PER ring instead
  /// of one monitor draining all of them. Consumer i drains only ring i
  /// and calls `consume(i, record)` / `consume(i, span)` — with a
  /// ShardedQMax behind the consumer this is the layout where shard i is
  /// single-writer by construction. Each ring remains SPSC and the only
  /// producer→consumer handoff beyond the ring itself is one done flag.
  template <typename Consumer>
  MultiRunResult forward_sharded(std::span<const trace::PacketRecord> packets,
                                 Consumer&& consume) {
    // One MonitorTelemetry per ring: the instruments are single-writer
    // plain fields, so concurrent consumers must never share a pack.
    while (shard_mon_tm_.size() < pmds_.size()) {
      shard_mon_tm_.push_back(std::make_unique<MonitorTelemetry>());
    }
    return run_monitored(
        packets, pmds_.size(),
        [&](std::size_t j) -> MonitorTelemetry& { return *shard_mon_tm_[j]; },
        consume);
  }

  /// Consumer-side instruments across all rings, accumulated over runs.
  [[nodiscard]] const MonitorTelemetry& monitor_telemetry() const noexcept {
    return mon_tm_;
  }
  void reset_monitor_telemetry() noexcept { mon_tm_.reset(); }

  /// Per-ring consumer instruments from forward_sharded runs (empty until
  /// the first such run; entry i is written only by consumer i).
  [[nodiscard]] std::size_t shard_monitor_count() const noexcept {
    return shard_mon_tm_.size();
  }
  [[nodiscard]] const MonitorTelemetry& shard_monitor_telemetry(
      std::size_t i) const {
    return *shard_mon_tm_.at(i);
  }
  void reset_shard_monitor_telemetry() noexcept {
    for (auto& tm : shard_mon_tm_) tm->reset();
  }

  /// Forward without monitoring (the vanilla baseline).
  MultiRunResult forward(std::span<const trace::PacketRecord> packets) {
    const std::size_t n = pmds_.size();
    MultiRunResult res;
    res.per_pmd.resize(n);
    res.packets = packets.size();
    common::Stopwatch wall;
    std::vector<std::thread> pmd_threads;
    for (std::size_t i = 0; i < n; ++i) {
      pmd_threads.emplace_back([&, i] {
        pmds_[i]->run_datapath(packets, rx_queue(i), nullptr,
                               res.per_pmd[i]);
      });
    }
    for (auto& t : pmd_threads) t.join();
    res.seconds = wall.seconds();
    return res;
  }

 private:
  [[nodiscard]] RxQueue rx_queue(std::size_t i) const noexcept {
    return {i, pmds_.size(), cfg_.legacy_rss_modulo};
  }

  /// The monitored pipeline behind forward_monitored (m = 1: one consumer
  /// drains every ring) and forward_sharded (m = n: consumer j drains ring
  /// j): one PMD thread per ring and `m` consumer threads, consumer j
  /// draining rings j, j + m, ... with `tm(j)` as its instruments, so each
  /// ring keeps a single consumer and stays SPSC.
  template <typename Telemetry, typename Consumer>
  MultiRunResult run_monitored(std::span<const trace::PacketRecord> packets,
                               std::size_t m, Telemetry&& tm,
                               Consumer& consume) {
    const std::size_t n = pmds_.size();
    std::vector<std::unique_ptr<SpscRing<MonitorRecord>>> rings;
    rings.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      rings.push_back(std::make_unique<SpscRing<MonitorRecord>>(
          cfg_.per_pmd.ring_capacity));
    }

    MultiRunResult res;
    res.per_pmd.resize(n);
    res.packets = packets.size();
    std::vector<std::atomic<bool>> done(n);
    // Written once per ring as its consumer exits; published after join.
    std::vector<detail::DrainGauges> gauges(n);

    common::Stopwatch wall;
    std::vector<std::thread> pmd_threads;
    pmd_threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      pmd_threads.emplace_back([&, i] {
        pmds_[i]->run_datapath(packets, rx_queue(i), rings[i].get(),
                               res.per_pmd[i]);
        done[i].store(true, std::memory_order_release);
      });
    }
    std::vector<std::thread> consumers;
    consumers.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      consumers.emplace_back([&, j] {
        detail::drain_rings(
            rings, j, m,
            [&](std::size_t i) {
              return done[i].load(std::memory_order_acquire);
            },
            consume, tm(j), gauges.data());
      });
    }

    for (auto& t : pmd_threads) t.join();
    const double producer_wall = wall.seconds();
    for (auto& t : consumers) t.join();
    res.seconds = producer_wall;
    for (std::size_t i = 0; i < n; ++i) {
      gauges[i].publish(res.per_pmd[i], rings[i]->capacity());
    }
    return res;
  }

  MultiPmdConfig cfg_;
  std::vector<std::unique_ptr<VirtualSwitch>> pmds_;
  [[no_unique_address]] MonitorTelemetry mon_tm_;
  std::vector<std::unique_ptr<MonitorTelemetry>> shard_mon_tm_;
};

}  // namespace qmax::vswitch
