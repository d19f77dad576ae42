// Spans recorded by the benchmark around its calls into the program
// (traced runs only). Spans stay in memory and are written out once, at
// the end of the run. Per-drain and per-batch calls are far too many to
// keep one by one: they are folded into one child span per phase that
// carries their total busy time, call count and item count.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int parent = -1;  // index of the causing span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;  // end - start, or the folded calls' total
  std::uint64_t calls = 1;
  std::uint64_t items = 0;
};

class Tracer {
 public:
  int begin(const char* name, int parent = -1) {
    spans_.push_back(Span{name, parent, now_ns(), 0, 0, 1, 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Close span `id`; returns its duration in seconds.
  double end(int id, std::uint64_t items = 0) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.busy_ns = s.end_ns - s.start_ns;
    s.items = items;
    return static_cast<double>(s.busy_ns) * 1e-9;
  }

  /// A child span standing for `calls` calls made inside `parent`.
  void fold(const char* name, int parent, std::int64_t busy_ns,
            std::uint64_t calls, std::uint64_t items) {
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back(
        Span{name, parent, p.start_ns, p.end_ns, busy_ns, calls, items});
  }

  /// One JSON object per line. Returns false if the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"busy_ns\":%lld,\"calls\":%llu,"
                   "\"items\":%llu}\n",
                   i, s.name, s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.busy_ns),
                   static_cast<unsigned long long>(s.calls),
                   static_cast<unsigned long long>(s.items));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
