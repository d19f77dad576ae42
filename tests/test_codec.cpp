// CRC-64/XZ kernels (common/codec.hpp): the published check value, and
// the PCLMUL folding kernel held bit-for-bit to the bytewise table over
// every short length and alignment plus one multi-megabyte buffer. Both
// kernels are called directly, so both paths are covered on any host
// whatever crc64() itself dispatches to.
#include "common/codec.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace {

namespace codec = qmax::common::codec;
namespace crc_detail = qmax::common::codec::crc_detail;

[[nodiscard]] std::vector<unsigned char> random_bytes(std::size_t n,
                                                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc64, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  constexpr std::uint64_t kExpected = 0x995DC9BBDF1939FAull;
  EXPECT_EQ(codec::crc64(kCheck.data(), kCheck.size()), kExpected);
  EXPECT_EQ(crc_detail::crc64_bytewise(kCheck.data(), kCheck.size()),
            kExpected);
  EXPECT_EQ(codec::crc64(nullptr, 0), 0u);
}

TEST(Crc64, ClmulMatchesBytewiseEveryLengthAndOffset) {
#if QMAX_CRC64_CLMUL
  if (!crc_detail::cpu_has_pclmul()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  const auto buf = random_bytes(1024 + 16, 7);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const unsigned char* p = buf.data() + off;
      ASSERT_EQ(crc_detail::crc64_clmul(p, len),
                crc_detail::crc64_bytewise(p, len))
          << "offset " << off << " length " << len;
    }
  }
#else
  GTEST_SKIP() << "no PCLMUL kernel on this target";
#endif
}

TEST(Crc64, ClmulMatchesBytewiseMultiMegabyte) {
#if QMAX_CRC64_CLMUL
  if (!crc_detail::cpu_has_pclmul()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  // Odd length and offset: 64-byte rounds, 16-byte folds and a byte tail.
  const auto buf = random_bytes((3u << 20) + 77, 11);
  const unsigned char* p = buf.data() + 3;
  const std::size_t len = buf.size() - 3;
  EXPECT_EQ(crc_detail::crc64_clmul(p, len),
            crc_detail::crc64_bytewise(p, len));
  EXPECT_EQ(codec::crc64(p, len), crc_detail::crc64_bytewise(p, len));
#else
  GTEST_SKIP() << "no PCLMUL kernel on this target";
#endif
}

}  // namespace
