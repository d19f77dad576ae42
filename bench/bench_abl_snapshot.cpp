// Ablation: durability cost (src/durability/) on the hot path.
//
// Three questions, one case per q:
//
//   1. checkpoint_mpps — how many reservoir entries per second does
//      snapshot() serialize? That is the whole in-memory image build: a
//      Sizer pass that only counts bytes, one Writer pass that appends
//      the payload into the exactly-sized image behind its header, and
//      the CRC-64 over the payload in place (PCLMUL folding where the
//      CPU has it, the byte table otherwise).
//   2. restore_mpps   — how fast does restore() rehydrate a fresh,
//      identically configured reservoir from that image?
//   3. ingest_with_ckpt_gain — ingest throughput with an *in-memory*
//      snapshot every 1/16 of the stream relative to plain ingest. This
//      is the ratio the observability gate treats as strict, so it is
//      deliberately CPU-only (serialize + CRC, no fsync): disk speed
//      varies wildly across CI runners and must not gate. The durable
//      end-to-end leg (temp + fsync + rename) rides along as
//      durable_ckpt_mpps, which the gate downgrades to a warning across
//      hosts like every absolute rate. The 1/16 cadence is a stress
//      test — at smoke scales the image is large relative to the stream
//      and the ratios land well below 1; the gate tracks drift, not the
//      absolute value.
//
// The image covers the full slot array, so serialize throughput is a
// function of capacity q(1+γ), not of stream length.
#include "bench_common.hpp"

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "durability/store.hpp"
#include "qmax/qmax.hpp"

namespace {

using namespace qmax;
using namespace qmax::bench;

const std::vector<double>& snapshot_stream() {
  static const std::vector<double> values = [] {
    std::vector<double> v(common::scaled(50'000'000));
    common::Xoshiro256 rng(17);
    for (auto& x : v) x = rng.uniform();
    return v;
  }();
  return values;
}

void register_case(std::size_t q) {
  char name[64];
  std::snprintf(name, sizeof name, "abl-snapshot/q=%zu", q);
  benchmark::RegisterBenchmark(
      std::string(name).c_str(),
      [q, case_name = std::string(name)](benchmark::State& st) {
        const auto& values = snapshot_stream();
        const std::size_t n = values.size();
        const double gamma = 0.25;

        double plain_mpps = 0.0;
        double ckpt_mpps = 0.0;
        double durable_mpps = 0.0;
        double snap_mpps = 0.0;
        double restore_mpps = 0.0;
        std::uint64_t image_bytes = 0;

        const std::filesystem::path dir =
            std::filesystem::temp_directory_path() / "qmax_bench_snapshot";
        const std::size_t every = n / 16 == 0 ? 1 : n / 16;
        for (auto _ : st) {
          for (int rep = 0; rep < common::bench_reps(); ++rep) {
            {  // plain ingest baseline
              QMax<> r(q, gamma);
              common::Stopwatch sw;
              for (std::size_t i = 0; i < n; ++i) {
                r.add(static_cast<std::uint64_t>(i), values[i]);
              }
              plain_mpps = std::max(plain_mpps, common::mops(n, sw.seconds()));
              benchmark::DoNotOptimize(r);
            }
            {  // ingest + in-memory snapshot every n/16 items (CPU only)
              QMax<> r(q, gamma);
              common::Stopwatch sw;
              for (std::size_t i = 0; i < n; ++i) {
                r.add(static_cast<std::uint64_t>(i), values[i]);
                if (i % every == every - 1) {
                  auto image = durability::snapshot(r);
                  benchmark::DoNotOptimize(image.data());
                }
              }
              ckpt_mpps = std::max(ckpt_mpps, common::mops(n, sw.seconds()));
              benchmark::DoNotOptimize(r);
            }
            {  // ingest + durable checkpoint (fsync + rename) at the
               // same cadence — absolute rate, warn-only across hosts
              std::filesystem::remove_all(dir);
              durability::SnapshotStore store(dir, "bench", 2);
              QMax<> r(q, gamma);
              common::Stopwatch sw;
              for (std::size_t i = 0; i < n; ++i) {
                r.add(static_cast<std::uint64_t>(i), values[i]);
                if (i % every == every - 1) {
                  durability::checkpoint(store, r);
                }
              }
              durable_mpps =
                  std::max(durable_mpps, common::mops(n, sw.seconds()));
              benchmark::DoNotOptimize(r);
            }
            // Serialize / rehydrate throughput over the full slot array.
            QMax<> r(q, gamma);
            for (std::size_t i = 0; i < n; ++i) {
              r.add(static_cast<std::uint64_t>(i), values[i]);
            }
            const int rounds = 8;
            std::vector<std::byte> image;
            {
              common::Stopwatch sw;
              for (int k = 0; k < rounds; ++k) {
                image = durability::snapshot(r);
                benchmark::DoNotOptimize(image.data());
              }
              snap_mpps = std::max(
                  snap_mpps,
                  common::mops(static_cast<std::size_t>(rounds) * r.capacity(),
                               sw.seconds()));
            }
            image_bytes = image.size();
            {
              QMax<> fresh(q, gamma);
              common::Stopwatch sw;
              for (int k = 0; k < rounds; ++k) {
                durability::restore(fresh, image);
                benchmark::DoNotOptimize(fresh);
              }
              restore_mpps = std::max(
                  restore_mpps,
                  common::mops(static_cast<std::size_t>(rounds) * r.capacity(),
                               sw.seconds()));
            }
            if (metrics_enabled() && rep == common::bench_reps() - 1) {
              CaseMetrics cm;
              cm.bind("reservoir", r);
              cm.add_value("checkpoint_mpps", snap_mpps);
              cm.add_value("restore_mpps", restore_mpps);
              cm.add_value("ingest_with_ckpt_gain", ckpt_mpps / plain_mpps);
              cm.add_value("plain_ingest_mpps", plain_mpps);
              cm.add_value("durable_ckpt_mpps", durable_mpps);
              cm.add_value("image_bytes", static_cast<double>(image_bytes));
              cm.commit(case_name);
            }
          }
        }
        std::filesystem::remove_all(dir);
        st.counters["MPPS_plain"] = plain_mpps;
        st.counters["MPPS_with_ckpt"] = ckpt_mpps;
        st.counters["MPPS_durable_ckpt"] = durable_mpps;
        st.counters["ckpt_gain"] = ckpt_mpps / plain_mpps;
        st.counters["MPPS_serialize"] = snap_mpps;
        st.counters["MPPS_restore"] = restore_mpps;
        st.counters["image_KiB"] =
            static_cast<double>(image_bytes) / 1024.0;
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

void register_all() {
  std::vector<std::size_t> qs = {100'000, 1'000'000};
  if (common::bench_large()) qs.push_back(10'000'000);
  for (std::size_t q : qs) register_case(q);
}

}  // namespace

int main(int argc, char** argv) {
  // Process-wide durability counters ride the blob's "global" section.
  // Plain local: the Registration handles must unregister before the
  // Registry singleton's static destructor runs.
  std::vector<telemetry::Registration> regs;
  durability::register_store_metrics(telemetry::Registry::instance(),
                                     "durability", regs);
  register_all();
  return qmax::bench::run_benchmarks(argc, argv);
}
