// Constructor validation across the whole stack: every class rejects
// degenerate parameters with std::invalid_argument naming the class, via
// the shared common/validate.hpp helpers — and the helpers themselves
// have exact boundary semantics (NaN never passes a range check).
#include "common/validate.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "cache/lrfu_exact.hpp"
#include "cache/lrfu_qmax.hpp"
#include "cache/lrfu_qmax_deamortized.hpp"
#include "qmax/amortized_qmax.hpp"
#include "qmax/exp_decay.hpp"
#include "qmax/qmax.hpp"
#include "qmax/sliding.hpp"
#include "qmax/time_sliding.hpp"
#include "vswitch/multi_pmd.hpp"
#include "vswitch/ring_buffer.hpp"
#include "vswitch/vswitch.hpp"

namespace {

using qmax::AmortizedQMax;
using qmax::ExpDecayQMax;
using qmax::QMax;
using qmax::SlackQMax;
using qmax::TimeSlackQMax;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The thrown message must lead with the class name, so a throw deep in
/// a composed structure (a SlackQMax block factory, say) still says who
/// rejected the parameters.
template <typename Fn>
void expect_throws_naming(const char* who, Fn&& make) {
  try {
    make();
    FAIL() << who << ": expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(std::string(who) + ":", 0), 0u)
        << "message does not name the class: " << e.what();
  }
}

TEST(Validation, HelpersAcceptAndReject) {
  using namespace qmax::common;
  EXPECT_EQ(validate_q(1, "X"), 1u);
  EXPECT_THROW(validate_q(0, "X"), std::invalid_argument);

  EXPECT_EQ(validate_gamma(0.25, "X"), 0.25);
  EXPECT_EQ(validate_gamma(kInf, "X"), kInf);  // positive, however silly
  EXPECT_THROW(validate_gamma(0.0, "X"), std::invalid_argument);
  EXPECT_THROW(validate_gamma(-1.0, "X"), std::invalid_argument);
  EXPECT_THROW(validate_gamma(kNaN, "X"), std::invalid_argument);

  EXPECT_EQ(validate_unit_interval(1.0, "X", "tau"), 1.0);
  EXPECT_EQ(validate_unit_interval(0.001, "X", "tau"), 0.001);
  EXPECT_THROW(validate_unit_interval(0.0, "X", "tau"),
               std::invalid_argument);
  EXPECT_THROW(validate_unit_interval(1.0000001, "X", "tau"),
               std::invalid_argument);
  EXPECT_THROW(validate_unit_interval(kNaN, "X", "tau"),
               std::invalid_argument);

  EXPECT_EQ(validate_nonzero(std::uint64_t{7}, "X", "window"), 7u);
  EXPECT_THROW(validate_nonzero(std::uint64_t{0}, "X", "window"),
               std::invalid_argument);
}

TEST(Validation, QMaxConstructor) {
  expect_throws_naming("QMax", [] { QMax<>(0, 0.25); });
  expect_throws_naming("QMax", [] { QMax<>(10, 0.0); });
  expect_throws_naming("QMax", [] { QMax<>(10, -0.25); });
  expect_throws_naming("QMax", [] { QMax<>(10, kNaN); });
  EXPECT_NO_THROW(QMax<>(1, 1e-9));  // tiny gamma clamps g to 1, validly
}

TEST(Validation, AmortizedQMaxConstructor) {
  expect_throws_naming("AmortizedQMax", [] { AmortizedQMax<>(0, 0.25); });
  expect_throws_naming("AmortizedQMax", [] { AmortizedQMax<>(10, 0.0); });
  expect_throws_naming("AmortizedQMax", [] { AmortizedQMax<>(10, kNaN); });
  EXPECT_NO_THROW(AmortizedQMax<>(1, 1e-9));
}

TEST(Validation, SlackQMaxConstructor) {
  const auto factory = [] { return QMax<>(4, 0.5); };
  expect_throws_naming("SlackQMax",
                       [&] { SlackQMax<QMax<>>(0, 0.1, factory); });
  expect_throws_naming("SlackQMax",
                       [&] { SlackQMax<QMax<>>(100, 0.0, factory); });
  expect_throws_naming("SlackQMax",
                       [&] { SlackQMax<QMax<>>(100, 1.5, factory); });
  expect_throws_naming("SlackQMax",
                       [&] { SlackQMax<QMax<>>(100, kNaN, factory); });
  expect_throws_naming(
      "SlackQMax", [&] { SlackQMax<QMax<>>(100, 0.1, factory, {.levels = 0}); });
  expect_throws_naming("SlackQMax",
                       [&] { SlackQMax<QMax<>>(100, 0.1, nullptr); });
  // A factory that itself rejects must surface the inner class's error.
  expect_throws_naming(
      "QMax", [] { SlackQMax<QMax<>>(100, 0.1, [] { return QMax<>(0, 0.5); }); });
}

TEST(Validation, TimeSlackQMaxConstructor) {
  const auto factory = [] { return QMax<>(4, 0.5); };
  expect_throws_naming("TimeSlackQMax",
                       [&] { TimeSlackQMax<QMax<>>(0, 0.1, factory); });
  expect_throws_naming("TimeSlackQMax",
                       [&] { TimeSlackQMax<QMax<>>(100, 0.0, factory); });
  expect_throws_naming("TimeSlackQMax",
                       [&] { TimeSlackQMax<QMax<>>(100, 2.0, factory); });
  expect_throws_naming("TimeSlackQMax",
                       [&] { TimeSlackQMax<QMax<>>(100, kNaN, factory); });
  expect_throws_naming("TimeSlackQMax",
                       [&] { TimeSlackQMax<QMax<>>(100, 0.1, nullptr); });
}

TEST(Validation, ExpDecayQMaxConstructor) {
  expect_throws_naming("ExpDecayQMax", [] { ExpDecayQMax<>(0, 0.9); });
  expect_throws_naming("ExpDecayQMax", [] { ExpDecayQMax<>(4, 0.0); });
  expect_throws_naming("ExpDecayQMax", [] { ExpDecayQMax<>(4, 1.5); });
  expect_throws_naming("ExpDecayQMax", [] { ExpDecayQMax<>(4, kNaN); });
  expect_throws_naming("ExpDecayQMax", [] { ExpDecayQMax<>(4, 0.9, kNaN); });
  EXPECT_NO_THROW(ExpDecayQMax<>(4, 1.0));  // decay 1 = plain q-MAX, valid
}

TEST(Validation, CacheConstructors) {
  using qmax::cache::LrfuCache;
  using qmax::cache::LrfuQMaxCache;
  using qmax::cache::LrfuQMaxCacheDeamortized;
  expect_throws_naming("LrfuCache", [] { LrfuCache<>(0, 0.5); });
  expect_throws_naming("LrfuCache", [] { LrfuCache<>(8, 0.0); });
  expect_throws_naming("LrfuCache", [] { LrfuCache<>(8, 1.5); });
  expect_throws_naming("LrfuCache", [] { LrfuCache<>(8, kNaN); });
  expect_throws_naming("LrfuQMaxCache", [] { LrfuQMaxCache<>(0, 0.5); });
  expect_throws_naming("LrfuQMaxCache", [] { LrfuQMaxCache<>(8, kNaN); });
  expect_throws_naming("LrfuQMaxCache",
                       [] { LrfuQMaxCache<>(8, 0.5, 0.0); });
  expect_throws_naming("LrfuQMaxCacheDeamortized",
                       [] { LrfuQMaxCacheDeamortized<>(0, 0.5); });
  expect_throws_naming("LrfuQMaxCacheDeamortized",
                       [] { LrfuQMaxCacheDeamortized<>(8, kNaN); });
}

TEST(Validation, SpscRingConstructor) {
  using qmax::vswitch::SpscRing;
  EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
  EXPECT_NO_THROW(SpscRing<int>(1));  // rounds up to the minimum capacity
}

TEST(Validation, VirtualSwitchConstructor) {
  // A zero rx burst would never advance the PMD poll loop.
  using qmax::vswitch::MultiPmdConfig;
  using qmax::vswitch::MultiPmdSwitch;
  using qmax::vswitch::SwitchConfig;
  using qmax::vswitch::VirtualSwitch;
  SwitchConfig cfg;
  cfg.rx_burst = 0;
  expect_throws_naming("VirtualSwitch", [&] { VirtualSwitch sw(cfg); });
  MultiPmdConfig multi;
  multi.per_pmd = cfg;
  expect_throws_naming("VirtualSwitch", [&] { MultiPmdSwitch sw(multi); });
  cfg.rx_burst = 1;
  EXPECT_NO_THROW(VirtualSwitch{cfg});
}

}  // namespace
