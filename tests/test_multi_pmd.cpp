// Multi-PMD switch: RSS flow affinity, lossless multi-ring monitoring,
// and end-to-end measurement across PMDs.
#include "vswitch/multi_pmd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "qmax/qmax.hpp"
#include "qmax/sharded.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace qmax::vswitch;
using qmax::trace::CaidaLikeGenerator;
using qmax::trace::FiveTuple;
using qmax::trace::MinSizePacketGenerator;
using qmax::trace::PacketRecord;
using qmax::trace::take_packets;

TEST(MultiPmd, ZeroThreadsClampsToOne) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 0});
  EXPECT_EQ(sw.pmd_count(), 1u);
}

TEST(MultiPmd, RssIsFlowStable) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 4});
  CaidaLikeGenerator gen;
  std::map<std::uint64_t, std::size_t> flow_to_pmd;
  for (int i = 0; i < 20'000; ++i) {
    const auto p = gen.next();
    const auto pmd = sw.rss(p);
    ASSERT_LT(pmd, 4u);
    auto [it, fresh] = flow_to_pmd.try_emplace(p.tuple.flow_key(), pmd);
    EXPECT_EQ(it->second, pmd) << "flow moved between PMDs";
  }
  // All PMDs should receive some flows.
  std::set<std::size_t> used;
  for (const auto& [f, pmd] : flow_to_pmd) used.insert(pmd);
  EXPECT_EQ(used.size(), 4u);
}

TEST(MultiPmd, ForwardsEverything) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 3});
  sw.install_default_rules();
  MinSizePacketGenerator gen(10'000, 1);
  const auto packets = take_packets(gen, 60'000);
  const auto res = sw.forward(packets);
  EXPECT_EQ(res.packets, 60'000u);
  std::uint64_t forwarded = 0, misses = 0;
  for (const auto& r : res.per_pmd) {
    forwarded += r.forwarded;
    misses += r.table_misses;
  }
  EXPECT_EQ(forwarded, 60'000u);
  EXPECT_EQ(misses, 0u);
  EXPECT_GT(res.aggregate_mpps(), 0.0);
}

TEST(MultiPmd, MonitorReceivesEveryRecordExactlyOnce) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 3});
  sw.install_default_rules();
  MinSizePacketGenerator gen(5'000, 2);
  const auto packets = take_packets(gen, 90'000);

  std::set<std::uint64_t> seen;  // monitor thread only: no lock needed
  std::uint64_t count = 0;
  const auto res = sw.forward_monitored(
      packets, [&](std::size_t pmd, const MonitorRecord& r) {
        ASSERT_LT(pmd, 3u);
        EXPECT_TRUE(seen.insert(r.packet_id).second)
            << "duplicate record " << r.packet_id;
        ++count;
      });
  EXPECT_EQ(count, 90'000u);
  EXPECT_EQ(res.packets, 90'000u);
}

TEST(MultiPmd, PerRingOrderIsPreserved) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 2});
  sw.install_default_rules();
  MinSizePacketGenerator gen(1'000, 3);
  const auto packets = take_packets(gen, 50'000);

  std::map<std::size_t, std::uint64_t> last_pid;
  sw.forward_monitored(packets,
                       [&](std::size_t pmd, const MonitorRecord& r) {
                         auto it = last_pid.find(pmd);
                         if (it != last_pid.end()) {
                           EXPECT_GT(r.packet_id, it->second)
                               << "reordering within PMD " << pmd;
                         }
                         last_pid[pmd] = r.packet_id;
                       });
  EXPECT_EQ(last_pid.size(), 2u);
}

TEST(MultiPmd, RssDispatchFormulasArePinned) {
  // Default dispatch is finalizer-mix + Lemire fastrange over the flow
  // key; the legacy flag reproduces the historical bare modulo exactly.
  // Pinning both formulas keeps old skew measurements reproducible and
  // catches accidental dispatch changes (which would silently re-home
  // every flow).
  MultiPmdSwitch mixed(MultiPmdConfig{.pmd_threads = 5});
  MultiPmdSwitch legacy(
      MultiPmdConfig{.pmd_threads = 5, .legacy_rss_modulo = true});
  CaidaLikeGenerator gen;
  std::vector<std::size_t> mixed_load(5, 0);
  for (int i = 0; i < 20'000; ++i) {
    const auto p = gen.next();
    const std::uint64_t key = p.tuple.flow_key();
    __extension__ using u128 = unsigned __int128;
    const auto expect_mixed = static_cast<std::size_t>(
        (static_cast<u128>(qmax::common::mix64(key)) * 5) >> 64);
    EXPECT_EQ(mixed.rss(p), expect_mixed);
    EXPECT_EQ(legacy.rss(p), key % 5);
    ++mixed_load[mixed.rss(p)];
  }
  // The mixed dispatch must not starve any PMD on a realistic trace.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_GT(mixed_load[i], 20'000u / 20) << "RSS starved PMD " << i;
  }
}

TEST(MultiPmd, EachPmdGetsExactlyItsRssFlowsInOrder) {
  // Every packet is a flow of its own, so with no rules installed each
  // PMD upcalls once per packet of its queue, in queue order. The upcall
  // for the PMD's j-th packet checks the burst boundary: records of the
  // burst being polled are still staged, so the PMD's consumers can have
  // received at most the floor(j / rx_burst) full bursts before it. A
  // burst of rx_burst raw input packets instead of rx_burst of the PMD's
  // own publishes early and breaks that bound.
  constexpr std::size_t kPackets = 10'007;  // not a multiple of rx_burst
  std::vector<PacketRecord> packets(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    PacketRecord& p = packets[i];
    p.tuple.src_ip = 0x0a000000u + static_cast<std::uint32_t>(i);
    p.tuple.dst_ip = 0xc0a80001u;
    p.tuple.src_port = static_cast<std::uint16_t>(1024 + i % 4096);
    p.tuple.dst_port = 443;
    p.length = 64 + static_cast<std::uint32_t>(i % 1400);
    p.packet_id = i;
  }

  enum class Mode { kMonitored, kSharded, kForward };
  for (const std::size_t n : {1ul, 2ul, 3ul, 5ul}) {
    for (const bool legacy : {false, true}) {
      for (const std::size_t burst : {32ul, 1ul}) {
        for (const Mode mode : {Mode::kMonitored, Mode::kSharded,
                                Mode::kForward}) {
          SCOPED_TRACE(::testing::Message()
                       << "pmds=" << n << " legacy=" << legacy
                       << " rx_burst=" << burst
                       << " mode=" << static_cast<int>(mode));
          MultiPmdConfig cfg{.pmd_threads = n, .legacy_rss_modulo = legacy};
          cfg.per_pmd.rx_burst = burst;
          MultiPmdSwitch sw(cfg);
          std::vector<std::vector<std::uint64_t>> expect(n);
          for (const auto& p : packets) {
            expect[sw.rss(p)].push_back(p.packet_id);
          }

          // Entry i is written by PMD i's consumer only; `received` is
          // also read by PMD i's upcall.
          std::vector<std::vector<std::uint64_t>> got(n);
          std::vector<std::atomic<std::uint64_t>> received(n);
          std::vector<std::uint64_t> polled(n, 0);  // PMD i's thread only
          std::vector<std::uint8_t> early(n, 0);    // PMD i's thread only
          for (std::size_t i = 0; i < n; ++i) {
            sw.pmd(i).set_upcall_handler([&, i, burst](const FiveTuple&) {
              const std::uint64_t j = polled[i]++;
              std::this_thread::yield();  // give the consumer a chance
              if (received[i].load(std::memory_order_acquire) >
                  j / burst * burst) {
                early[i] = 1;
              }
              return Action{};
            });
          }
          auto consume = [&](std::size_t i, const MonitorRecord& r) {
            got[i].push_back(r.packet_id);
            received[i].fetch_add(1, std::memory_order_release);
          };
          const auto res =
              mode == Mode::kMonitored ? sw.forward_monitored(packets, consume)
              : mode == Mode::kSharded ? sw.forward_sharded(packets, consume)
                                       : sw.forward(packets);
          std::uint64_t sum = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (mode != Mode::kForward) {
              EXPECT_EQ(got[i], expect[i]) << "ring " << i;
            }
            EXPECT_EQ(res.per_pmd[i].packets, expect[i].size()) << i;
            EXPECT_EQ(polled[i], expect[i].size()) << "PMD " << i;
            EXPECT_FALSE(early[i])
                << "PMD " << i << " published before its burst was full";
            sum += res.per_pmd[i].packets;
          }
          EXPECT_EQ(sum, kPackets);
        }
      }
    }
  }
}

TEST(MultiPmd, SkewAccessorsReportPerPmdSpread) {
  MultiRunResult res;
  res.per_pmd.resize(3);
  res.per_pmd[0].packets = 1000;
  res.per_pmd[0].seconds = 1.0;  // 0.001 Mpps
  res.per_pmd[1].packets = 4000;
  res.per_pmd[1].seconds = 1.0;  // 0.004 Mpps
  res.per_pmd[2].packets = 2000;
  res.per_pmd[2].seconds = 1.0;  // 0.002 Mpps
  EXPECT_DOUBLE_EQ(res.min_pmd_mpps(), 0.001);
  EXPECT_DOUBLE_EQ(res.max_pmd_mpps(), 0.004);
  EXPECT_DOUBLE_EQ(res.pmd_skew(), 4.0);

  MultiRunResult single;
  single.per_pmd.resize(1);
  single.per_pmd[0].packets = 1000;
  single.per_pmd[0].seconds = 1.0;
  EXPECT_DOUBLE_EQ(single.pmd_skew(), 1.0) << "degenerate: one PMD";

  MultiRunResult idle;
  idle.per_pmd.resize(2);
  idle.per_pmd[0].packets = 1000;
  idle.per_pmd[0].seconds = 1.0;
  EXPECT_DOUBLE_EQ(idle.pmd_skew(), 1.0) << "degenerate: idle PMD";
}

TEST(MultiPmd, ShardedConsumersReceiveEveryRecordExactlyOnce) {
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 3});
  sw.install_default_rules();
  MinSizePacketGenerator gen(5'000, 4);
  const auto packets = take_packets(gen, 90'000);

  // One consumer thread per ring: per-shard state needs no lock, the
  // cross-shard duplicate check does.
  std::vector<std::set<std::uint64_t>> seen(3);
  std::vector<std::uint64_t> count(3, 0);
  std::mutex all_mu;
  std::set<std::uint64_t> all;
  const auto res = sw.forward_sharded(
      packets, [&](std::size_t shard, const MonitorRecord& r) {
        ASSERT_LT(shard, 3u);
        EXPECT_TRUE(seen[shard].insert(r.packet_id).second)
            << "duplicate within shard " << shard;
        ++count[shard];
        std::lock_guard<std::mutex> lk(all_mu);
        EXPECT_TRUE(all.insert(r.packet_id).second)
            << "record " << r.packet_id << " seen by two shards";
      });
  EXPECT_EQ(count[0] + count[1] + count[2], 90'000u);
  EXPECT_EQ(res.packets, 90'000u);
  EXPECT_EQ(res.total_drained(), 90'000u);
  // Per-ring consumer telemetry exists for each ring after a sharded run.
  EXPECT_EQ(sw.shard_monitor_count(), 3u);
}

TEST(MultiPmd, ShardedEndToEndMatchesOracle) {
  // The full tentpole pipeline: RSS → per-ring consumer → per-shard
  // reservoir with Ψ-broadcast → merge-on-query == exact global top-q.
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 4});
  sw.install_default_rules();
  CaidaLikeGenerator gen;
  const auto packets = take_packets(gen, 40'000);

  qmax::ShardedQMax<qmax::QMax<>> reservoir(4, 16, {}, true);
  sw.forward_sharded(packets,
                     [&](std::size_t shard, const MonitorRecord& r) {
                       reservoir.add(shard, r.packet_id, double(r.length));
                     });

  std::vector<double> oracle;
  for (const auto& p : packets) oracle.push_back(double(p.length));
  std::sort(oracle.begin(), oracle.end(), std::greater<>());
  oracle.resize(16);
  std::vector<double> got;
  for (const auto& e : reservoir.query()) got.push_back(e.val);
  std::sort(got.begin(), got.end(), std::greater<>());
  EXPECT_EQ(got, oracle);
}

TEST(MultiPmd, EndToEndTopPacketsAcrossPmds) {
  // One q-MAX fed by all PMD rings must still find the globally largest
  // packets — the exact merge property the OVS experiments rely on.
  MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = 4});
  sw.install_default_rules();
  CaidaLikeGenerator gen;
  const auto packets = take_packets(gen, 40'000);

  qmax::QMax<> reservoir(16, 0.5);
  sw.forward_monitored(packets,
                       [&](std::size_t, const MonitorRecord& r) {
                         reservoir.add(r.packet_id, double(r.length));
                       });

  std::vector<double> oracle;
  for (const auto& p : packets) oracle.push_back(double(p.length));
  std::sort(oracle.begin(), oracle.end(), std::greater<>());
  oracle.resize(16);
  std::vector<double> got;
  for (const auto& e : reservoir.query()) got.push_back(e.val);
  std::sort(got.begin(), got.end(), std::greater<>());
  EXPECT_EQ(got, oracle);
}

}  // namespace
