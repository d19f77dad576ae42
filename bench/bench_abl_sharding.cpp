// Ablation: sharded parallel measurement — throughput vs shard count
// (1/2/4/8), with and without the global-Ψ broadcast, at q = 10^5
// (QMAX_BENCH_LARGE=1 adds 10^6 and 10^7).
//
// Two layers:
//  * direct/  — S writer threads feed S ShardedQMax shards straight from
//    pre-partitioned value arrays (pure measurement scaling, no switch).
//  * pipeline/ — the full MultiPmdSwitch path: forward_sharded (consumer
//    thread per PMD ring, per-shard reservoir, Ψ-broadcast) against the
//    forward_monitored single-consumer baseline.
//
// Single-core honesty: CI containers for this repo typically expose ONE
// core, where S threads time-share and wall-clock MPPS cannot exceed the
// single-shard rate. Every case reports wall-clock MPPS (meaningful only
// with ≥S cores); a pipeline case times the whole forwarding call from
// outside, so every dispatch cost counts. Direct cases also report a
// diagnostic
//   modeled_MPPS  — items / busiest writer's CPU time (ThreadCpuStopwatch):
//                   the rate this layout would sustain if each writer
//                   owned a core. It is never a headline rate.
// Also reported: merge-on-query cost (merge_ms) and the broadcast gauges
// (per-shard Ψ, folds, publishes, tightened rejections — the latter only
// counts with -DQMAX_TELEMETRY=ON).
//
// `--smoke` (stripped before google-benchmark sees argv) shrinks the
// stream via QMAX_BENCH_SCALE for the CI bench-smoke job.
#include "bench_common.hpp"
#include "bench_vswitch_common.hpp"

#include <thread>

#include "qmax/qmax.hpp"
#include "qmax/sharded.hpp"
#include "vswitch/multi_pmd.hpp"

namespace {

using namespace qmax;
using namespace qmax::bench;
using vswitch::MonitorRecord;
using vswitch::MultiPmdConfig;
using vswitch::MultiPmdSwitch;

using Sharded = ShardedQMax<QMax<std::uint64_t, double>>;

/// Deterministic dispatch of item i to a shard (stand-in for RSS).
std::size_t dispatch(std::size_t i, std::size_t shards) {
  return static_cast<std::size_t>(common::mix64(0x9e3779b9u ^ i) % shards);
}

/// One substream per shard, partitioned once per (stream, S) outside the
/// timed region — rings deliver records pre-partitioned in the pipeline.
struct Partition {
  std::vector<std::vector<std::uint64_t>> ids;
  std::vector<std::vector<double>> vals;
};

const Partition& partitioned(std::size_t shards) {
  static std::vector<Partition> cache(16);
  Partition& p = cache[shards];
  if (p.ids.empty()) {
    const auto& values = random_values();
    p.ids.resize(shards);
    p.vals.resize(shards);
    for (auto& v : p.ids) v.reserve(values.size() / shards + 1);
    for (auto& v : p.vals) v.reserve(values.size() / shards + 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t s = shards == 1 ? 0 : dispatch(i, shards);
      p.ids[s].push_back(i);
      p.vals[s].push_back(values[i]);
    }
  }
  return p;
}

void snapshot_shard_gauges(CaseMetrics& cm, const Sharded& r) {
  for (std::size_t s = 0; s < r.shard_count(); ++s) {
    const std::string p = "shard" + std::to_string(s);
    cm.add_value(p + "/psi", static_cast<double>(r.shard_threshold(s)));
    cm.add_value(p + "/folds",
                 static_cast<double>(r.shard_broadcast_folds(s)));
  }
  cm.add_value("broadcast/folds", static_cast<double>(r.broadcast_folds()));
  cm.add_value("broadcast/publishes",
               static_cast<double>(r.broadcast_publishes()));
  cm.add_value("broadcast/tightened_rejections",
               static_cast<double>(r.broadcast_tightened_rejections()));
}

void run_direct_case(benchmark::State& state, std::size_t shards,
                     std::size_t q, bool bcast) {
  const Partition& part = partitioned(shards);
  const std::size_t total = random_values().size();
  for (auto _ : state) {
    Sharded r(shards, q, {}, bcast);
    std::vector<double> cpu_secs(shards, 0.0);
    common::Stopwatch wall;
    {
      std::vector<std::thread> writers;
      writers.reserve(shards);
      for (std::size_t s = 0; s < shards; ++s) {
        writers.emplace_back([&, s] {
          common::ThreadCpuStopwatch cpu;
          const auto& ids = part.ids[s];
          const auto& vals = part.vals[s];
          constexpr std::size_t kBatch = 64;
          for (std::size_t i = 0; i < vals.size(); i += kBatch) {
            const std::size_t m = std::min(kBatch, vals.size() - i);
            r.add_batch(s, ids.data() + i, vals.data() + i, m);
          }
          cpu_secs[s] = cpu.seconds();
        });
      }
      for (auto& t : writers) t.join();
    }
    const double wall_secs = wall.seconds();
    double busiest = 0.0;
    for (const double c : cpu_secs) busiest = std::max(busiest, c);

    common::Stopwatch merge_sw;
    auto top = r.query();
    const double merge_ms = merge_sw.millis();
    benchmark::DoNotOptimize(top);

    state.counters["MPPS"] = common::mops(total, wall_secs);
    state.counters["modeled_MPPS"] = common::mops(total, busiest);
    state.counters["merge_ms"] = merge_ms;
    state.counters["bcast_folds"] = static_cast<double>(r.broadcast_folds());
    state.counters["admitted"] = static_cast<double>(r.admitted());
    if (metrics_enabled() && !current_case().empty()) {
      CaseMetrics cm;
      cm.bind("sharded", r);
      snapshot_shard_gauges(cm, r);
      cm.add_value("modeled_mpps", common::mops(total, busiest));
      cm.add_value("wall_mpps", common::mops(total, wall_secs));
      cm.add_value("merge_ms", merge_ms);
      cm.commit(current_case());
    }
  }
}

void run_pipeline_case(benchmark::State& state, std::size_t pmds,
                       std::size_t q, bool sharded_consumers) {
  const auto& pkts = min_size_packets();
  for (auto _ : state) {
    MultiPmdSwitch sw(MultiPmdConfig{.pmd_threads = pmds});
    sw.install_default_rules();
    vswitch::MultiRunResult res;
    Sharded r(pmds, q, {}, true);
    // The whole forwarding call, thread start to last consumer join.
    common::Stopwatch wall;
    if (sharded_consumers) {
      // Consumer thread per ring; consumer i owns shard i (single-writer
      // by construction), records arrive as whole ring drains.
      res = sw.forward_sharded(
          pkts, [&](std::size_t shard, std::span<const MonitorRecord> recs) {
            std::uint64_t ids[64];
            double vals[64];
            std::size_t i = 0;
            while (i < recs.size()) {
              const std::size_t m = std::min<std::size_t>(recs.size() - i, 64);
              for (std::size_t j = 0; j < m; ++j) {
                ids[j] = recs[i + j].src_ip;
                vals[j] = monitor_record_value(recs[i + j]);
              }
              r.add_batch(shard, ids, vals, m);
              i += m;
            }
          });
    } else {
      // Baseline: ONE monitor thread drains every ring into shard 0 —
      // the paper's single user-space reader.
      res = sw.forward_monitored(
          pkts, [&](std::size_t, std::span<const MonitorRecord> recs) {
            std::uint64_t ids[64];
            double vals[64];
            std::size_t i = 0;
            while (i < recs.size()) {
              const std::size_t m = std::min<std::size_t>(recs.size() - i, 64);
              for (std::size_t j = 0; j < m; ++j) {
                ids[j] = recs[i + j].src_ip;
                vals[j] = monitor_record_value(recs[i + j]);
              }
              r.add_batch(0, ids, vals, m);
              i += m;
            }
          });
    }
    const double mpps = common::mops(pkts.size(), wall.seconds());
    auto top = r.query();
    benchmark::DoNotOptimize(top);
    state.counters["MPPS"] = mpps;
    state.counters["pmd_skew"] = res.pmd_skew();
    state.counters["stalls"] = static_cast<double>(res.total_stalls());
    if (metrics_enabled() && !current_case().empty()) {
      CaseMetrics cm;
      cm.bind("sharded", r);
      snapshot_shard_gauges(cm, r);
      cm.add_value("wall_mpps", mpps);
      cm.add_value("aggregate_mpps", res.aggregate_mpps());
      cm.add_value("pmd_skew", res.pmd_skew());
      cm.add_value("min_pmd_mpps", res.min_pmd_mpps());
      cm.add_value("max_pmd_mpps", res.max_pmd_mpps());
      if (sharded_consumers) {
        for (std::size_t i = 0; i < sw.shard_monitor_count(); ++i) {
          cm.bind("consumer" + std::to_string(i),
                  sw.shard_monitor_telemetry(i));
        }
      } else {
        cm.bind("monitor", sw.monitor_telemetry());
      }
      cm.commit(current_case());
    }
  }
}

std::vector<std::size_t> sharding_qs() {
  std::vector<std::size_t> qs{100'000};
  if (common::bench_large()) {
    qs.push_back(1'000'000);
    qs.push_back(10'000'000);
  }
  return qs;
}

void register_all() {
  char name[112];
  for (const std::size_t q : sharding_qs()) {
    for (const std::size_t shards : {1ul, 2ul, 4ul, 8ul}) {
      for (const bool bcast : {true, false}) {
        if (shards == 1 && !bcast) continue;  // broadcast is a no-op at S=1
        std::snprintf(name, sizeof name,
                      "abl-sharding/direct/q=%zu/shards=%zu/bcast=%s", q,
                      shards, bcast ? "on" : "off");
        benchmark::RegisterBenchmark(
            name,
            [shards, q, bcast, n = std::string(name)](benchmark::State& st) {
              current_case() = n;
              run_direct_case(st, shards, q, bcast);
              current_case().clear();
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
    for (const std::size_t pmds : {1ul, 2ul, 4ul}) {
      for (const bool sharded : {true, false}) {
        std::snprintf(name, sizeof name,
                      "abl-sharding/pipeline/q=%zu/pmds=%zu/%s", q, pmds,
                      sharded ? "per-ring-consumers" : "single-consumer");
        benchmark::RegisterBenchmark(
            name,
            [pmds, q, sharded, n = std::string(name)](benchmark::State& st) {
              current_case() = n;
              run_pipeline_case(st, pmds, q, sharded);
              current_case().clear();
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // `--smoke`: CI-sized run. Must be handled before benchmark::Initialize
  // (which rejects unknown flags); the env reads are lazy, so setting the
  // scale here — unless the caller already pinned one — still takes.
  int out = 1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  if (smoke) {
    argc = out;
    setenv("QMAX_BENCH_SCALE", "0.02", /*overwrite=*/0);
  }
  register_all();
  return qmax::bench::run_benchmarks(argc, argv);
}
