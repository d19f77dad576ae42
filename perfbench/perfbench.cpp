// perfbench: the wall-clock benchmark of the q-MAX monitored switch,
// reservoir ingest and checkpointing.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// Every timing is taken here, from outside the public call it measures.
// The program's own clocks (RunResult::seconds, MultiRunResult::seconds)
// are read only as inputs to multi_pmd.outside_clock_share. The last line
// of standard output is one JSON object: correctness, attempted/failed
// operation counts, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). See README.md for the layer -> metric ->
// workload map.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "durability/snapshot.hpp"
#include "inputs.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sharded.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "vswitch/multi_pmd.hpp"
#include "vswitch/vswitch.hpp"

namespace perfbench {
namespace {

namespace vs = qmax::vswitch;
using Reservoir = qmax::QMax<std::uint64_t, double>;
using ShardedReservoir = qmax::ShardedQMax<Reservoir>;
using Entry = Reservoir::EntryT;
using Image = std::vector<std::byte>;
using Packets = std::vector<qmax::trace::PacketRecord>;

constexpr double kGamma = 0.25;
/// Records per consumer call, the most a ring drain hands over at once.
constexpr std::size_t kDrainMax = 64;
/// Every run measures at least this many passes, however short --seconds.
constexpr int kMinPasses = 3;
/// Pass ids of consumer-alone replays start here, clear of pipeline passes.
constexpr std::uint64_t kReplayPassBase = 1u << 20;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  /// Linear-interpolated quantile, p in [0, 1]; the median at p = 0.5.
  [[nodiscard]] double quantile(double p) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = p * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// Operations checked in this run. Each record handed to a pipeline or
/// ingested in a timed cycle is one operation, and fails if it is dropped
/// or never reaches the reservoir. Each verified query, restore and
/// classify lookup is one more.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checker_ok = true;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;  // 0 for a single reading
  double p90;
};

struct Report {
  Tally tally;
  std::vector<Metric> metrics;

  void add(const std::string& name, const Samples& s, const char* unit) {
    metrics.push_back({name, s.median(), unit, s.size(), s.quantile(0.9)});
  }
  void add(const std::string& name, double v, const char* unit) {
    metrics.push_back({name, v, unit, 0, v});
  }
};

/// Peak resident set of the process so far. peak_rss_mb reports the peak
/// minus this figure read just before the program's objects (switch,
/// reservoir) are built. Every buffer the benchmark keeps (inputs,
/// reference top-q, query output) is allocated and touched by then, so
/// the difference is the memory of the program's objects and of the
/// images they produce.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------
// Consumers: the measurement program behind the ring.
// ---------------------------------------------------------------------

/// One consumer's traced totals; padded so concurrent consumers never
/// share a cache line.
struct alignas(64) ConsumerStats {
  std::int64_t busy_ns = 0;    // inside the consumer callback
  std::int64_t ingest_ns = 0;  // inside add_batch
  std::uint64_t calls = 0;
  std::uint64_t records = 0;
  std::uint64_t admitted = 0;
};

/// Map drained records to (packet id, priority) and hand them to the
/// reservoir through `add_batch(ids, vals, n)`. The untraced form reads no
/// clock and leaves `st` (which may then be null) alone.
template <bool kTraced, typename AddBatch>
void feed(std::span<const vs::MonitorRecord> recs, const Priority& prio,
          AddBatch&& add_batch, ConsumerStats* st) {
  std::uint64_t ids[kDrainMax];
  double vals[kDrainMax];
  for (std::size_t off = 0; off < recs.size(); off += kDrainMax) {
    const std::size_t m = std::min(kDrainMax, recs.size() - off);
    [[maybe_unused]] std::int64_t t0 = 0;
    [[maybe_unused]] std::int64_t t1 = 0;
    if constexpr (kTraced) t0 = now_ns();
    for (std::size_t j = 0; j < m; ++j) {
      ids[j] = recs[off + j].packet_id;
      vals[j] = prio(ids[j]);
    }
    if constexpr (kTraced) t1 = now_ns();
    const std::size_t admitted = add_batch(ids, vals, m);
    if constexpr (kTraced) {
      const std::int64_t t2 = now_ns();
      st->busy_ns += t2 - t0;
      st->ingest_ns += t2 - t1;
      ++st->calls;
      st->records += m;
      st->admitted += admitted;
    }
  }
}

/// add_batch into a reservoir, or into one shard of a sharded one.
std::size_t add_batch_to(Reservoir& res, std::size_t /*shard*/,
                         const std::uint64_t* ids, const double* vals,
                         std::size_t m) {
  return res.add_batch(ids, vals, m);
}

std::size_t add_batch_to(ShardedReservoir& res, std::size_t shard,
                         const std::uint64_t* ids, const double* vals,
                         std::size_t m) {
  return res.add_batch(shard, ids, vals, m);
}

/// Consumer `shard`'s reservoir entry point.
template <typename Res>
struct IngestInto {
  Res* res;
  std::size_t shard = 0;
  std::size_t operator()(const std::uint64_t* ids, const double* vals,
                         std::size_t m) const {
    return add_batch_to(*res, shard, ids, vals, m);
  }
};

/// add_batch into shards [0, shards) in turn, one call each.
template <typename Res>
struct RoundRobin {
  Res* res;
  std::size_t shards;
  std::size_t next = 0;
  std::size_t operator()(const std::uint64_t* ids, const double* vals,
                         std::size_t m) {
    const std::size_t admitted = add_batch_to(*res, next, ids, vals, m);
    next = (next + 1) % shards;
    return admitted;
  }
};

/// Feed items with ids id_base + [from, to) through `add_batch(ids, vals,
/// n)` in blocks, and their values to `top`.
template <typename AddBatch>
void feed_items(std::uint64_t id_base, std::size_t from, std::size_t to,
                const Priority& prio, TopQ& top, AddBatch&& add_batch) {
  constexpr std::size_t kBlock = 1024;
  std::uint64_t ids[kBlock];
  double vals[kBlock];
  for (std::size_t base = from; base < to; base += kBlock) {
    const std::size_t m = std::min(kBlock, to - base);
    for (std::size_t j = 0; j < m; ++j) {
      ids[j] = id_base + base + j;
      vals[j] = prio(ids[j]);
      top.add(vals[j]);
    }
    add_batch(ids, vals, m);
  }
}

/// Where each pass starts.
///
/// Every pass restores the pre-filled reservoir and then ingests, untimed,
/// a warm-up of items of its own before its timed part; the timed part
/// also ingests items of its own. q-MAX's cost per admitted item depends
/// on the state its incremental selection starts from and on how far the
/// current maintenance iteration has got. A pass admits only one to a few
/// iterations' worth of items, so passes that replayed the same items from
/// the same state would all measure one seed-specific case (the measured
/// ingest rate then moved by up to 2x between seeds). The warm-up gives
/// every pass fresh selection data, and its length rotates through
/// kPhases steps spread over one iteration.
class PassStarts {
 public:
  static constexpr std::size_t kPhases = 8;

  /// An iteration admits g = q*gamma/2 items; once the admission rate has
  /// converged to about q/prefill that takes gamma*prefill/2 items.
  PassStarts(const Priority& prio, std::size_t q, std::size_t prefill)
      : prio_(prio),
        prefill_(prefill),
        period_(static_cast<std::size_t>(kGamma * static_cast<double>(prefill) /
                                         2)),
        top_(q) {}

  /// Pre-fill `res` and keep its image, the state every pass starts from.
  template <typename Res, typename AddBatch>
  void prefill(Res& res, AddBatch&& add_batch) {
    feed_items(kPrefillIdBase, 0, prefill_, prio_, top_, add_batch);
    top_.trim();
    image_ = qmax::durability::snapshot(res);
  }

  /// Restore the pre-filled state into `res` and ingest pass `pass`'s
  /// warm-up; `top` becomes the reference top-q of everything ingested.
  template <typename Res, typename AddBatch>
  void start(std::uint64_t pass, Res& res, AddBatch&& add_batch,
             TopQ& top) const {
    qmax::durability::restore(res, image_);
    top = top_;
    const std::size_t warmup =
        period_ + (pass % kPhases) * period_ / kPhases;
    feed_items(warmup_id_base(pass), 0, warmup, prio_, top, add_batch);
  }

 private:
  Priority prio_;
  std::size_t prefill_;
  std::size_t period_;
  TopQ top_;  // the pre-fill's top q
  Image image_;
};

/// Hand `n` records with ids base + [0, n) to `consume(k, span)` as the
/// k-th drain-sized span, the way a ring drain would.
template <typename Consume>
void replay_records(std::uint64_t base, std::size_t n, Consume&& consume) {
  vs::MonitorRecord recs[kDrainMax];
  for (std::size_t off = 0, k = 0; off < n; off += kDrainMax, ++k) {
    const std::size_t m = std::min(kDrainMax, n - off);
    for (std::size_t j = 0; j < m; ++j) {
      recs[j] = {0, kMin64IpLength, base + off + j};
    }
    consume(k, std::span<const vs::MonitorRecord>(recs, m));
  }
}

/// Check the live query result in `w.out()` against `ref`. Then replace
/// the live reservoir by a freshly built one (the old one is freed first,
/// so the check adds no reservoir to the peak), restore `image` into it
/// and check that its query equals the live one. Overwrites `w.out()`.
template <typename Rig>
void verify(Rig& w, const Image& image, const Fingerprint& ref,
            Tally& tally) {
  std::vector<Entry>& out = w.out();
  tally.check(matches(out, ref, w.prio()));
  const Fingerprint live = fingerprint(out);
  auto& fresh = w.renew_live();
  bool restored_ok = false;
  try {
    qmax::durability::restore(fresh, image);
    out.clear();
    fresh.query_into(out);
    restored_ok = fingerprint(out) == live && matches(out, ref, w.prio());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: restore failed: %s\n", e.what());
  }
  tally.check(restored_ok);
}

/// Build the workload once, timed: input generation, the reference top-q
/// and the pre-fill. Returns the seconds it took.
template <typename Rig>
double build(std::optional<Rig>& rig, std::uint64_t seed) {
  rig.reset();
  const std::int64_t t0 = now_ns();
  rig.emplace(seed);
  return seconds_since(t0);
}

/// Build the workload again (identical inputs from the same seed) until
/// `setup_s` has at least 3 samples, and more while they add up to under
/// 1.5 s, so that the median of quick setups is steady too. Called after
/// the measured part: the measured rig is then the process's first, and
/// its peak-RSS baseline holds no memory freed by an earlier one.
template <typename Rig>
void rebuild_for_setup(std::optional<Rig>& rig, std::uint64_t seed,
                       Samples& setup_s) {
  double total_s = setup_s.median();  // the first build's
  while (setup_s.size() < 3 || (total_s < 1.5 && setup_s.size() < 9)) {
    const double s = build(rig, seed);
    setup_s.add(s);
    total_s += s;
  }
}

// ---------------------------------------------------------------------
// Switch workloads.
// ---------------------------------------------------------------------

/// One forwarding call, timed from outside, with the program's counters.
struct Delivery {
  double wall_s = 0.0;     // the whole public call
  double program_s = 0.0;  // the program's own clock (diagnostic only)
  std::uint64_t packets = 0;
  std::uint64_t drained = 0;
  std::uint64_t dropped = 0;
  std::uint64_t stalls = 0;
  std::uint64_t drain_batches = 0;
  double occupancy_peak_frac = 0.0;
  double pmd_skew = 1.0;
};

Delivery delivery_of(const vs::RunResult& r, double wall_s) {
  return {wall_s,
          r.seconds,
          r.packets,
          r.records_drained,
          r.records_dropped,
          r.backpressure_stalls,
          r.drain_batches,
          r.ring_occupancy_peak_frac(),
          1.0};
}

Delivery delivery_of(const vs::MultiRunResult& r, double wall_s) {
  Delivery d{wall_s,         r.seconds,         r.packets,
             r.total_drained(), r.total_drops(), r.total_stalls(),
             0,              0.0,               r.pmd_skew()};
  for (const auto& p : r.per_pmd) {
    d.drain_batches += p.drain_batches;
    d.occupancy_peak_frac =
        std::max(d.occupancy_peak_frac, p.ring_occupancy_peak_frac());
  }
  return d;
}

struct Classify {
  double ns_per_packet = 0.0;
  double emc_hit_share = 0.0;
  std::uint64_t unresolved = 0;
};

/// Time `lookups()`, which looks every packet up and returns how many
/// resolved; `hits()` reads the EMC hit counter(s).
template <typename Lookups, typename Hits>
Classify time_lookups(std::size_t packets, Lookups&& lookups, Hits&& hits) {
  const std::uint64_t hits0 = hits();
  const std::int64_t t0 = now_ns();
  const std::uint64_t resolved = lookups();
  const double s = seconds_since(t0);
  const auto n = static_cast<double>(packets);
  return {s * 1e9 / n, static_cast<double>(hits() - hits0) / n,
          packets - resolved};
}

/// W1: one PMD plus one monitor (the paper's Fig 12 layout). Minimum-size
/// frames over 1M uniform flows, QMax q = 1e5 behind the batched drain.
struct SwitchMin64 {
  static constexpr const char* kName = "switch_min64";
  static constexpr std::size_t kQ = 100'000;
  static constexpr std::size_t kFlows = 1'000'000;
  static constexpr std::size_t kPackets = 2'000'000;
  static constexpr std::size_t kPrefill = 1'500'000;  // ~4% admitted after
  static constexpr std::size_t kConsumers = 1;
  // Consumer-alone replays per pass, and records per replay.
  static constexpr int kReplays = 2;
  static constexpr std::size_t kReplayRecords = 4'000'000;
  using Res = Reservoir;
  using Switch = vs::VirtualSwitch;

  [[nodiscard]] static vs::SwitchConfig switch_config() {
    vs::SwitchConfig cfg;
    cfg.policy = vs::OverloadPolicy::kBackpressure;
    return cfg;
  }
  [[nodiscard]] static std::unique_ptr<Res> make_reservoir() {
    return std::make_unique<Res>(kQ, kGamma);
  }
  [[nodiscard]] static Packets make_packets(std::uint64_t seed) {
    return uniform_min64(seed, kFlows, kPackets);
  }
  template <typename Consume>
  static vs::RunResult monitored(Switch& sw, const Packets& packets,
                                 Consume&& consume) {
    return sw.forward_monitored(
        packets,
        [&](std::span<const vs::MonitorRecord> recs) { consume(0, recs); });
  }
  static Classify classify(Switch& sw, const Packets& packets) {
    vs::FlowTable& t = sw.table();
    return time_lookups(
        packets.size(),
        [&] {
          std::uint64_t resolved = 0;
          for (const auto& p : packets) {
            resolved += t.lookup(p.tuple).has_value();
          }
          return resolved;
        },
        [&] { return t.emc_hits(); });
  }
};

/// W3: MultiPmdSwitch::forward_sharded, 2 PMDs and 2 consumers into a
/// 2-shard ShardedQMax, q = 1e6. Datacenter-like traffic: 10k flows,
/// Zipf 1.2, the UNIV1-like size mix.
struct SwitchShardedDc {
  static constexpr const char* kName = "switch_sharded_dc";
  static constexpr std::size_t kQ = 1'000'000;
  static constexpr std::size_t kFlows = 10'000;
  static constexpr double kZipf = 1.2;
  static constexpr std::size_t kPackets = 2'000'000;
  static constexpr std::size_t kPrefill = 16'000'000;
  static constexpr std::size_t kConsumers = 2;
  static constexpr int kReplays = 1;
  // A shard's maintenance iteration admits q*gamma/2 = 125k items, so an
  // 8M-record replay spanned only about three per shard and its rate
  // hung on where their boundaries fell: ten-seed quartile spread of
  // ingest_mops 19.9%. 24M records span about seven per shard (12.5%).
  static constexpr std::size_t kReplayRecords = 24'000'000;
  using Res = ShardedReservoir;
  using Switch = vs::MultiPmdSwitch;

  [[nodiscard]] static vs::MultiPmdConfig switch_config() {
    vs::MultiPmdConfig cfg;
    cfg.pmd_threads = kConsumers;
    cfg.per_pmd.policy = vs::OverloadPolicy::kBackpressure;
    return cfg;
  }
  [[nodiscard]] static std::unique_ptr<Res> make_reservoir() {
    Res::Options o;
    o.gamma = kGamma;
    return std::make_unique<Res>(kConsumers, kQ, o);
  }
  [[nodiscard]] static Packets make_packets(std::uint64_t seed) {
    return zipf_dc(seed, kFlows, kZipf, kPackets);
  }
  template <typename Consume>
  static vs::MultiRunResult monitored(Switch& sw, const Packets& packets,
                                      Consume&& consume) {
    return sw.forward_sharded(packets, consume);
  }
  /// Each packet is looked up on the PMD the program's own RSS gives it to.
  static Classify classify(Switch& sw, const Packets& packets) {
    std::vector<std::uint32_t> by_pmd[kConsumers];
    for (std::uint32_t i = 0; i < packets.size(); ++i) {
      by_pmd[sw.rss(packets[i])].push_back(i);
    }
    return time_lookups(
        packets.size(),
        [&] {
          std::uint64_t resolved = 0;
          for (std::size_t i = 0; i < kConsumers; ++i) {
            vs::FlowTable& t = sw.pmd(i).table();
            for (const std::uint32_t k : by_pmd[i]) {
              resolved += t.lookup(packets[k].tuple).has_value();
            }
          }
          return resolved;
        },
        [&] {
          std::uint64_t hits = 0;
          for (std::size_t i = 0; i < kConsumers; ++i) {
            hits += sw.pmd(i).table().emc_hits();
          }
          return hits;
        });
  }
};

/// A switch workload: `Spec`'s inputs, switch and reservoir, the pass
/// starts, the timed forwarding calls and the consumer-alone replay.
template <typename Spec>
class SwitchRig : public Spec {
 public:
  using Res = typename Spec::Res;

  explicit SwitchRig(std::uint64_t seed)
      : prio_(seed),
        packets_(Spec::make_packets(seed)),
        out_(Spec::kQ),  // touched now; emptied below
        top_(Spec::kQ),
        starts_(prio_, Spec::kQ, Spec::kPrefill),
        baseline_mb_(peak_rss_mb()),
        sw_(Spec::switch_config()),
        live_(Spec::make_reservoir()) {
    out_.clear();
    sw_.install_default_rules();
    starts_.prefill(*live_, spread());
  }

  Res& live() { return *live_; }
  Res& renew_live() {
    live_.reset();
    live_ = Spec::make_reservoir();
    return *live_;
  }
  std::vector<Entry>& out() { return out_; }
  [[nodiscard]] const Priority& prio() const { return prio_; }
  [[nodiscard]] std::size_t packets() const { return packets_.size(); }
  [[nodiscard]] double baseline_mb() const { return baseline_mb_; }
  /// The reference top-q of the last start() or replay().
  [[nodiscard]] const Fingerprint& reference() const { return ref_; }

  /// Bring the reservoir to pass `pass`'s start, give the packets the
  /// pass's ids and compute the pass's reference.
  void start(std::uint64_t pass) {
    starts_.start(pass, *live_, spread(), top_);
    const std::uint64_t base = stream_id_base(pass);
    for (std::size_t i = 0; i < packets_.size(); ++i) {
      packets_[i].packet_id = base + i;
      top_.add(prio_(base + i));
    }
    ref_ = top_.fingerprint();
  }

  template <bool kTraced>
  Delivery pipeline(ConsumerStats* st) {
    auto consume = [&](std::size_t i, std::span<const vs::MonitorRecord> recs) {
      feed<kTraced>(recs, prio_, ingest_fn(i), kTraced ? st + i : nullptr);
    };
    const std::int64_t t0 = now_ns();
    const auto r = Spec::monitored(sw_, packets_, consume);
    return delivery_of(r, seconds_since(t0));
  }

  Delivery vanilla() {
    const std::int64_t t0 = now_ns();
    const auto r = sw_.forward(packets_);
    return delivery_of(r, seconds_since(t0));
  }

  Delivery noop() {
    const std::int64_t t0 = now_ns();
    const auto r = Spec::monitored(
        sw_, packets_, [](std::size_t, std::span<const vs::MonitorRecord>) {});
    return delivery_of(r, seconds_since(t0));
  }

  /// The consumer alone: from pass `pass`'s start, kReplayRecords records
  /// of the pass's own, in drain-sized spans handed to the consumers'
  /// entry points in turn, with no switch and no ring. One thread keeps
  /// the figure free of a second core's scheduling; the pipeline runs the
  /// same work on kConsumers. Returns the wall time of the feeding.
  double replay(std::uint64_t pass) {
    starts_.start(pass, *live_, spread(), top_);
    const std::uint64_t base = stream_id_base(pass);
    const std::int64_t t0 = now_ns();
    replay_records(base, Spec::kReplayRecords,
                   [&](std::size_t k, std::span<const vs::MonitorRecord> recs) {
                     feed<false>(recs, prio_, ingest_fn(k % Spec::kConsumers),
                                 nullptr);
                   });
    const double s = seconds_since(t0);
    for (std::size_t i = 0; i < Spec::kReplayRecords; ++i) {
      top_.add(prio_(base + i));
    }
    ref_ = top_.fingerprint();
    return s;
  }

  Classify classify() { return Spec::classify(sw_, packets_); }

 private:
  IngestInto<Res> ingest_fn(std::size_t i) { return {live_.get(), i}; }
  RoundRobin<Res> spread() { return {live_.get(), Spec::kConsumers}; }

  // The benchmark's buffers come first: they are all resident when
  // baseline_mb_ is read, before the program's objects are built.
  Priority prio_;
  Packets packets_;
  std::vector<Entry> out_;
  TopQ top_;
  PassStarts starts_;
  double baseline_mb_;
  typename Spec::Switch sw_;
  std::unique_ptr<Res> live_;
  Fingerprint ref_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

void check_delivery(const Delivery& d, std::uint64_t processed,
                    std::size_t packets, Tally& tally) {
  // Under backpressure every record must reach the reservoir.
  const std::uint64_t delivered = std::min<std::uint64_t>(
      {d.drained, processed, static_cast<std::uint64_t>(packets)});
  tally.attempted += packets;
  tally.failed += std::max<std::uint64_t>(packets - delivered, d.dropped);
}

template <typename Rig>
void run_switch(const Options& o, Report& rep) {
  std::optional<Rig> holder;
  Samples setup_s;
  setup_s.add(build(holder, o.seed));
  Rig& w = *holder;
  Tally& tally = rep.tally;
  const std::size_t n = w.packets();
  const auto packets = static_cast<double>(n);
  std::vector<Entry>& out = w.out();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);

  if (!o.trace) {
    Samples pipeline_mpps, ingest_mops, query_ms, ckpt_ms;
    for (int pass = 0; pass < kMinPasses || now_ns() < deadline; ++pass) {
      w.start(pass);
      const Fingerprint ref = w.reference();
      const std::uint64_t processed0 = w.live().processed();
      const Delivery d = w.template pipeline<false>(nullptr);
      pipeline_mpps.add(packets / d.wall_s / 1e6);
      std::int64_t t = now_ns();
      out.clear();
      w.live().query_into(out);
      query_ms.add(seconds_since(t) * 1e3);
      t = now_ns();
      const Image image = qmax::durability::snapshot(w.live());
      ckpt_ms.add(seconds_since(t) * 1e3);

      check_delivery(d, w.live().processed() - processed0, n, tally);
      if (pass == 0) {
        tally.checker_ok &= checker_catches_corruption(out, ref, w.prio());
      }
      verify(w, image, ref, tally);

      // The consumer alone, from starts and on records of its own.
      for (int r = 0; r < Rig::kReplays; ++r) {
        const double replay_s =
            w.replay(kReplayPassBase + pass * Rig::kReplays + r);
        ingest_mops.add(static_cast<double>(Rig::kReplayRecords) / replay_s /
                        1e6);
        t = now_ns();
        out.clear();
        w.live().query_into(out);
        query_ms.add(seconds_since(t) * 1e3);
        tally.check(matches(out, w.reference(), w.prio()));
      }
    }
    const double program_mb = peak_rss_mb() - w.baseline_mb();
    rebuild_for_setup(holder, o.seed, setup_s);
    rep.add("pipeline_mpps", pipeline_mpps, "Mpps");
    rep.add("ingest_mops", ingest_mops, "Mitems/s");
    rep.add("query_ms_p50", query_ms, "ms");
    rep.add("ckpt_ms_p50", ckpt_ms, "ms");
    rep.add("setup_s", setup_s, "s");
    rep.add("peak_rss_mb", program_mb, "MB");
    return;
  }

  Tracer tr;
  Samples untraced_mpps, traced_mpps, vanilla_mpps, handoff_ns, classify_ns,
      emc_share, per_drain, stalls, occupancy, busy_share, outside, skew,
      ingest_ns, admitted_share, snapshot_mb_s, image_mb, ingest_share,
      query_share, ckpt_share, residual;
  for (int pass = 0; pass < kMinPasses || now_ns() < deadline; ++pass) {
    const int root = tr.begin("pass");

    // Untraced pipeline: the baseline for trace.overhead, and the
    // program's own ring counters undisturbed by the consumer's clock
    // reads. It starts from the same start as the traced cycle, so both
    // see the same warm-up phase and the same items. The two take turns
    // going first, so that neither always runs on what the other left
    // behind (allocator, caches, flow tables).
    const auto untraced = [&] {
      w.start(pass);
      const std::uint64_t processed0 = w.live().processed();
      const int sp = tr.begin("pipeline.untraced", root);
      const Delivery du = w.template pipeline<false>(nullptr);
      tr.end(sp, du.packets);
      check_delivery(du, w.live().processed() - processed0, n, tally);
      untraced_mpps.add(packets / du.wall_s / 1e6);
      outside.add(ratio(du.wall_s - du.program_s, du.wall_s));
      skew.add(du.pmd_skew);
      per_drain.add(ratio(static_cast<double>(du.drained),
                          static_cast<double>(du.drain_batches)));
      stalls.add(static_cast<double>(du.stalls) / packets * 1e6);
      occupancy.add(du.occupancy_peak_frac);
      out.clear();
      w.live().query_into(out);
      tally.check(matches(out, w.reference(), w.prio()));
    };
    if (pass % 2 == 0) untraced();

    // Traced cycle: pipeline, query, checkpoint.
    w.start(pass);
    const Fingerprint ref = w.reference();
    const std::uint64_t processed0 = w.live().processed();
    ConsumerStats st[Rig::kConsumers];
    const int cycle = tr.begin("cycle", root);
    int sp = tr.begin("pipeline", cycle);
    const Delivery dt = w.template pipeline<true>(st);
    const double pipe_s = tr.end(sp, dt.packets);
    const int sq = tr.begin("query", cycle);
    out.clear();
    w.live().query_into(out);
    const double query_s = tr.end(sq, out.size());
    const int sk = tr.begin("ckpt", cycle);
    const Image image = qmax::durability::snapshot(w.live());
    const double ckpt_s = tr.end(sk, image.size());
    const double cycle_s = tr.end(cycle);
    check_delivery(dt, w.live().processed() - processed0, n, tally);
    if (pass == 0) {
      tally.checker_ok &= checker_catches_corruption(out, ref, w.prio());
    }
    verify(w, image, ref, tally);
    if (pass % 2 == 1) untraced();

    traced_mpps.add(packets / dt.wall_s / 1e6);
    std::int64_t busiest = 0;
    std::int64_t in_add_batch = 0;
    std::uint64_t records = 0;
    std::uint64_t admitted = 0;
    for (const ConsumerStats& c : st) {
      tr.fold("monitor.consume", sp, c.busy_ns, c.calls, c.records);
      tr.fold("qmax.add_batch", sp, c.ingest_ns, c.calls, c.records);
      busiest = std::max(busiest, c.busy_ns);
      in_add_batch += c.ingest_ns;
      records += c.records;
      admitted += c.admitted;
    }
    busy_share.add(ratio(static_cast<double>(busiest) * 1e-9, pipe_s));
    ingest_ns.add(ratio(static_cast<double>(in_add_batch),
                        static_cast<double>(records)));
    admitted_share.add(ratio(static_cast<double>(admitted),
                             static_cast<double>(records)));
    snapshot_mb_s.add(static_cast<double>(image.size()) / 1e6 / ckpt_s);
    image_mb.add(static_cast<double>(image.size()) / 1e6);
    ingest_share.add(pipe_s / cycle_s);
    query_share.add(query_s / cycle_s);
    ckpt_share.add(ckpt_s / cycle_s);
    residual.add(1.0 - (pipe_s + query_s + ckpt_s) / cycle_s);

    // Switch-only probes: no monitor, a no-op monitor, bare lookups.
    sp = tr.begin("vswitch.forward", root);
    const Delivery dv = w.vanilla();
    tr.end(sp, dv.packets);
    vanilla_mpps.add(packets / dv.wall_s / 1e6);
    sp = tr.begin("vswitch.forward_noop_monitor", root);
    const Delivery dn = w.noop();
    tr.end(sp, dn.packets);
    handoff_ns.add((dn.wall_s - dv.wall_s) * 1e9 / packets);
    sp = tr.begin("vswitch.classify", root);
    const Classify c = w.classify();
    tr.end(sp, n);
    classify_ns.add(c.ns_per_packet);
    emc_share.add(c.emc_hit_share);
    tally.attempted += n;
    tally.failed += c.unresolved;
    tr.end(root);
  }
  if (!o.spans_out.empty() && !tr.write_jsonl(o.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_out.c_str());
  }
  rep.add("vswitch.classify_ns", classify_ns, "ns");
  rep.add("vswitch.emc_hit_share", emc_share, "ratio");
  rep.add("vswitch.vanilla_mpps", vanilla_mpps, "Mpps");
  rep.add("vswitch.handoff_ns", handoff_ns, "ns");
  rep.add("ring.records_per_drain", per_drain, "count");
  rep.add("ring.stalls_per_mpkt", stalls, "1/Mpkt");
  rep.add("ring.occupancy_peak_frac", occupancy, "ratio");
  rep.add("monitor.busy_share", busy_share, "ratio");
  rep.add("multi_pmd.outside_clock_share", outside, "ratio");
  rep.add("multi_pmd.pmd_skew", skew, "ratio");
  rep.add("qmax.ingest_ns", ingest_ns, "ns");
  rep.add("qmax.admitted_share", admitted_share, "ratio");
  rep.add("durability.snapshot_mb_s", snapshot_mb_s, "MB/s");
  rep.add("durability.image_mb", image_mb, "MB");
  rep.add("ingest.wall_share", ingest_share, "ratio");
  rep.add("query.wall_share", query_share, "ratio");
  rep.add("ckpt.wall_share", ckpt_share, "ratio");
  rep.add("accounting.residual", residual, "ratio");
  rep.add("trace.overhead",
          ratio(untraced_mpps.median(), traced_mpps.median()) - 1.0, "ratio");
}

// ---------------------------------------------------------------------
// Reservoir workload.
// ---------------------------------------------------------------------

/// W2: direct add_batch of uniform values into QMax q = 1e6 (a ~20 MB slot
/// array), pre-filled to a converged admission bound. After every
/// kCycleItems items it takes an exact query and a checkpoint image.
class IngestQ1e6 {
 public:
  static constexpr const char* kName = "ingest_q1e6";
  static constexpr std::size_t kQ = 1'000'000;
  // With the warm-up, a pass's timed items arrive after 16-18M items, so
  // about 4% of them are admitted.
  static constexpr std::size_t kPrefill = 14'000'000;
  static constexpr std::size_t kCycles = 4;
  static constexpr std::size_t kCycleItems = 4'000'000;
  static constexpr std::size_t kBatch = 1024;
  static constexpr std::size_t kItems = kCycles * kCycleItems;

  explicit IngestQ1e6(std::uint64_t seed)
      : prio_(seed),
        ids_(kCycleItems),
        vals_(kCycleItems),
        out_(kQ),  // touched now; emptied below
        top_(kQ),
        starts_(prio_, kQ, kPrefill),
        baseline_mb_(peak_rss_mb()),
        live_(std::make_unique<Reservoir>(kQ, kGamma)) {
    out_.clear();
    starts_.prefill(*live_, ingest());
  }

  Reservoir& renew_live() {
    live_.reset();
    live_ = std::make_unique<Reservoir>(kQ, kGamma);
    return *live_;
  }
  std::vector<Entry>& out() { return out_; }
  [[nodiscard]] const Priority& prio() const { return prio_; }
  [[nodiscard]] double baseline_mb() const { return baseline_mb_; }

  /// One pass's timings, per cycle. A cycle is its ingest, query and
  /// checkpoint back to back; making each cycle's items and checking its
  /// query happen between cycles, untimed.
  struct Cycles {
    std::vector<double> wall_s;
    std::vector<double> ingest_s;  // inside add_batch (traced) or the phase
    std::vector<double> query_s;
    std::vector<double> ckpt_s;
    std::uint64_t admitted = 0;
    std::size_t image_bytes = 0;
  };

  /// Pass `pass`: kCycles cycles from the pass's start. Every query is
  /// checked, and the last checkpoint is restored into a fresh reservoir
  /// (see verify). Traced passes time every add_batch call and record
  /// spans under `parent`.
  template <bool kTraced>
  Cycles run(std::uint64_t pass, Tally& tally, bool self_check, Tracer* tr,
             int parent) {
    starts_.start(pass, *live_, ingest(), top_);
    Cycles c;
    const std::uint64_t admitted0 = live_->admitted();
    for (std::size_t k = 0; k < kCycles; ++k) {
      Image().swap(image_);  // so that two images never coexist
      [[maybe_unused]] int span = -1;
      if constexpr (kTraced) span = tr->begin("bench.generate", parent);
      const std::uint64_t base = stream_id_base(pass) + k * kCycleItems;
      for (std::size_t i = 0; i < kCycleItems; ++i) {
        ids_[i] = base + i;
        vals_[i] = prio_(base + i);
        top_.add(vals_[i]);
      }
      const Fingerprint ref = top_.fingerprint();
      [[maybe_unused]] int cycle = -1;
      if constexpr (kTraced) {
        tr->end(span, kCycleItems);
        cycle = tr->begin("cycle", parent);
        span = tr->begin("ingest", cycle);
      }

      std::int64_t in_calls = 0;
      const std::int64_t t0 = now_ns();
      for (std::size_t off = 0; off < kCycleItems; off += kBatch) {
        const std::size_t m = std::min(kBatch, kCycleItems - off);
        if constexpr (kTraced) {
          const std::int64_t a = now_ns();
          live_->add_batch(ids_.data() + off, vals_.data() + off, m);
          in_calls += now_ns() - a;
        } else {
          live_->add_batch(ids_.data() + off, vals_.data() + off, m);
        }
      }
      const std::int64_t t1 = now_ns();
      if constexpr (kTraced) {
        tr->end(span, kCycleItems);
        tr->fold("qmax.add_batch", span, in_calls,
                 (kCycleItems + kBatch - 1) / kBatch, kCycleItems);
        span = tr->begin("query", cycle);
      }
      out_.clear();
      live_->query_into(out_);
      const std::int64_t t2 = now_ns();
      if constexpr (kTraced) {
        tr->end(span, out_.size());
        span = tr->begin("ckpt", cycle);
      }
      image_ = qmax::durability::snapshot(*live_);
      const std::int64_t t3 = now_ns();
      if constexpr (kTraced) {
        tr->end(span, image_.size());
        tr->end(cycle, kCycleItems);
      }
      c.wall_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
      c.ingest_s.push_back(
          static_cast<double>(kTraced ? in_calls : t1 - t0) * 1e-9);
      c.query_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
      c.ckpt_s.push_back(static_cast<double>(t3 - t2) * 1e-9);

      if (k + 1 < kCycles) {
        tally.check(matches(out_, ref, prio_));
        continue;
      }
      c.admitted = live_->admitted() - admitted0;
      c.image_bytes = image_.size();
      if (self_check) {
        tally.checker_ok &= checker_catches_corruption(out_, ref, prio_);
      }
      verify(*this, image_, ref, tally);
    }
    tally.attempted += kItems;
    return c;
  }

 private:
  IngestInto<Reservoir> ingest() { return {live_.get()}; }

  // The benchmark's buffers come first: they are all resident when
  // baseline_mb_ is read, before the reservoir is built.
  Priority prio_;
  std::vector<std::uint64_t> ids_;
  std::vector<double> vals_;
  std::vector<Entry> out_;
  TopQ top_;
  PassStarts starts_;
  double baseline_mb_;
  std::unique_ptr<Reservoir> live_;
  Image image_;
};

void run_ingest(const Options& o, Report& rep) {
  std::optional<IngestQ1e6> holder;
  Samples setup_s;
  setup_s.add(build(holder, o.seed));
  IngestQ1e6& w = *holder;
  constexpr auto kItems = static_cast<double>(IngestQ1e6::kItems);
  constexpr auto kCycleItems = static_cast<double>(IngestQ1e6::kCycleItems);
  const auto sum = [](const std::vector<double>& v) {
    double t = 0.0;
    for (const double x : v) t += x;
    return t;
  };
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);

  if (!o.trace) {
    Samples pipeline_mpps, ingest_mops, query_ms, ckpt_ms;
    for (int pass = 0; pass < kMinPasses || now_ns() < deadline; ++pass) {
      const IngestQ1e6::Cycles c =
          w.run<false>(pass, rep.tally, pass == 0, nullptr, -1);
      for (std::size_t k = 0; k < IngestQ1e6::kCycles; ++k) {
        pipeline_mpps.add(kCycleItems / c.wall_s[k] / 1e6);
        ingest_mops.add(kCycleItems / c.ingest_s[k] / 1e6);
        query_ms.add(c.query_s[k] * 1e3);
        ckpt_ms.add(c.ckpt_s[k] * 1e3);
      }
    }
    const double program_mb = peak_rss_mb() - w.baseline_mb();
    rebuild_for_setup(holder, o.seed, setup_s);
    rep.add("pipeline_mpps", pipeline_mpps, "Mpps");
    rep.add("ingest_mops", ingest_mops, "Mitems/s");
    rep.add("query_ms_p50", query_ms, "ms");
    rep.add("ckpt_ms_p50", ckpt_ms, "ms");
    rep.add("setup_s", setup_s, "s");
    rep.add("peak_rss_mb", program_mb, "MB");
    return;
  }

  Tracer tr;
  Samples untraced_mpps, traced_mpps, ingest_ns, admitted_share,
      snapshot_mb_s, image_mb, ingest_share, query_share, ckpt_share,
      residual;
  for (int pass = 0; pass < kMinPasses || now_ns() < deadline; ++pass) {
    const int root = tr.begin("pass");
    // The untraced and the traced run start from the same start and take
    // turns going first (see run_switch).
    IngestQ1e6::Cycles u;
    IngestQ1e6::Cycles c;
    if (pass % 2 == 0) {
      u = w.run<false>(pass, rep.tally, false, nullptr, -1);
      c = w.run<true>(pass, rep.tally, pass == 0, &tr, root);
    } else {
      c = w.run<true>(pass, rep.tally, false, &tr, root);
      u = w.run<false>(pass, rep.tally, false, nullptr, -1);
    }
    tr.end(root);
    untraced_mpps.add(kItems / sum(u.wall_s) / 1e6);

    const double wall_s = sum(c.wall_s);
    const double ingest_s = sum(c.ingest_s);
    const double query_s = sum(c.query_s);
    const double ckpt_s = sum(c.ckpt_s);
    traced_mpps.add(kItems / wall_s / 1e6);
    ingest_ns.add(ingest_s * 1e9 / kItems);
    admitted_share.add(static_cast<double>(c.admitted) / kItems);
    snapshot_mb_s.add(static_cast<double>(c.image_bytes) / 1e6 /
                      (ckpt_s / static_cast<double>(c.ckpt_s.size())));
    image_mb.add(static_cast<double>(c.image_bytes) / 1e6);
    ingest_share.add(ingest_s / wall_s);
    query_share.add(query_s / wall_s);
    ckpt_share.add(ckpt_s / wall_s);
    residual.add(1.0 - (ingest_s + query_s + ckpt_s) / wall_s);
  }
  if (!o.spans_out.empty() && !tr.write_jsonl(o.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_out.c_str());
  }
  // No switch runs on this workload: its switch and ring metrics read 0.
  const std::pair<const char*, const char*> kSwitchOnly[] = {
      {"vswitch.classify_ns", "ns"},
      {"vswitch.emc_hit_share", "ratio"},
      {"vswitch.vanilla_mpps", "Mpps"},
      {"vswitch.handoff_ns", "ns"},
      {"ring.records_per_drain", "count"},
      {"ring.stalls_per_mpkt", "1/Mpkt"},
      {"ring.occupancy_peak_frac", "ratio"},
      {"monitor.busy_share", "ratio"},
      {"multi_pmd.outside_clock_share", "ratio"},
      {"multi_pmd.pmd_skew", "ratio"}};
  for (const auto& [name, unit] : kSwitchOnly) rep.add(name, 0.0, unit);
  rep.add("qmax.ingest_ns", ingest_ns, "ns");
  rep.add("qmax.admitted_share", admitted_share, "ratio");
  rep.add("durability.snapshot_mb_s", snapshot_mb_s, "MB/s");
  rep.add("durability.image_mb", image_mb, "MB");
  rep.add("ingest.wall_share", ingest_share, "ratio");
  rep.add("query.wall_share", query_share, "ratio");
  rep.add("ckpt.wall_share", ckpt_share, "ratio");
  rep.add("accounting.residual", residual, "ratio");
  rep.add("trace.overhead",
          ratio(untraced_mpps.median(), traced_mpps.median()) - 1.0, "ratio");
}

// ---------------------------------------------------------------------
// Command line and output.
// ---------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<switch_min64|ingest_q1e6|switch_sharded_dc> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace");
      o.trace = val == "1";
    } else if (flag == "--spans-out") {
      o.spans_out = val;
    } else {
      usage("unknown flag");
    }
  }
  if (o.workload.empty() || !have_seed || o.seconds == 0.0) {
    usage("--workload, --seed and --seconds are required");
  }
  return o;
}

void print(const Report& rep, bool correct) {
  for (const Metric& m : rep.metrics) {
    if (m.samples > 0) {
      std::printf("%-32s %14.6g %-9s median of %zu, p90 %.6g\n",
                  m.name.c_str(), m.value, m.unit, m.samples, m.p90);
    } else {
      std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.tally.attempted),
              static_cast<unsigned long long>(rep.tally.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  Report rep;
  try {
    if (o.workload == SwitchMin64::kName) {
      run_switch<SwitchRig<SwitchMin64>>(o, rep);
    } else if (o.workload == IngestQ1e6::kName) {
      run_ingest(o, rep);
    } else if (o.workload == SwitchShardedDc::kName) {
      if (std::thread::hardware_concurrency() < 4) {
        std::fprintf(stderr,
                     "perfbench: switch_sharded_dc runs 4 threads on %u "
                     "hardware threads\n",
                     std::thread::hardware_concurrency());
      }
      run_switch<SwitchRig<SwitchShardedDc>>(o, rep);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const bool correct = rep.tally.failed == 0 && rep.tally.checker_ok;
  if (!rep.tally.checker_ok) {
    std::fprintf(stderr, "perfbench: the checker missed a corrupted result\n");
  }
  print(rep, correct);
  return 0;
}
