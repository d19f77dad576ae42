// Shared binary-codec primitives: fixed-width little-endian field
// encoding and CRC-64, used by both the durability archives
// (durability/format.hpp) and the network wire formats (apps/nwhh_wire.hpp,
// net/protocol.hpp).
//
// Before this header existed the put/get/memcpy helpers and the CRC table
// were duplicated per consumer; the snapshot format and the wire format
// could silently drift. Everything byte-level now lives here once:
//
//   * store_le / load_le   — unaligned fixed-width scalar access. All
//     supported targets are little-endian (x86-64, AArch64 in LE mode),
//     so a memcpy IS the little-endian encoding; the static_assert makes
//     the assumption explicit instead of silent.
//   * append / put_le      — appenders over any byte-element vector
//     (std::uint8_t for wire buffers, std::byte for archives).
//   * Cursor               — a bounds-checked, non-throwing read cursor;
//     consumers layer their own error policy (SnapshotError, protocol
//     drop, ...) over its bool results.
//   * crc64                — CRC-64/XZ (ECMA-182, reflected): PCLMULQDQ
//     folding on x86-64 CPUs that have it, a compile-time byte table
//     otherwise. One polynomial for snapshots and frames alike, so a
//     corruption test written against either format exercises the same
//     arithmetic.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#if defined(__GNUC__) && defined(__x86_64__)
#define QMAX_CRC64_CLMUL 1
#include <immintrin.h>
#else
#define QMAX_CRC64_CLMUL 0
#endif

namespace qmax::common::codec {

static_assert(std::endian::native == std::endian::little,
              "codec assumes a little-endian target; add byte swaps here "
              "before porting to a big-endian platform");

/// Byte-sized element types a buffer may be made of.
template <typename B>
concept ByteLike = sizeof(B) == 1 && std::is_trivially_copyable_v<B>;

/// Scalar types that may travel as raw little-endian bytes.
template <typename T>
concept Scalar = std::is_arithmetic_v<T> && std::is_trivially_copyable_v<T>;

/// Unaligned little-endian store of a fixed-width scalar.
template <Scalar T>
inline void store_le(void* dst, T v) noexcept {
  std::memcpy(dst, &v, sizeof v);
}

/// Unaligned little-endian load of a fixed-width scalar.
template <Scalar T>
[[nodiscard]] inline T load_le(const void* src) noexcept {
  T v;
  std::memcpy(&v, src, sizeof v);
  return v;
}

/// Append `n` raw bytes to a byte vector.
template <ByteLike B>
inline void append(std::vector<B>& out, const void* p, std::size_t n) {
  // resize+memcpy rather than insert(range): GCC 12 raises a spurious
  // -Wstringop-overflow on the range form with constexpr sources. The
  // n == 0 guard keeps memcpy away from a null source (empty payloads).
  if (n == 0) return;
  const std::size_t off = out.size();
  out.resize(off + n);
  std::memcpy(out.data() + off, p, n);
}

/// Append one fixed-width scalar, little-endian.
template <ByteLike B, Scalar T>
inline void put_le(std::vector<B>& out, T v) {
  append(out, &v, sizeof v);
}

/// Append a double as its IEEE-754 bit pattern (NaN payloads and signed
/// zeros round-trip exactly).
template <ByteLike B>
inline void put_f64(std::vector<B>& out, double v) {
  put_le(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked forward read cursor over a byte span. Every take_*
/// returns false on underrun and leaves the output untouched; the cursor
/// itself never throws, so callers choose their own failure policy.
template <ByteLike B>
class Cursor {
 public:
  explicit Cursor(std::span<const B> bytes) noexcept : buf_(bytes) {}

  [[nodiscard]] bool take(void* p, std::size_t n) noexcept {
    if (n > remaining()) return false;
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  template <Scalar T>
  [[nodiscard]] bool take_le(T& v) noexcept {
    return take(&v, sizeof v);
  }

  [[nodiscard]] bool take_f64(double& v) noexcept {
    std::uint64_t bits = 0;
    if (!take_le(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }

  /// Advance without copying (e.g. to skip a payload already validated).
  [[nodiscard]] bool skip(std::size_t n) noexcept {
    if (n > remaining()) return false;
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - pos_;
  }
  [[nodiscard]] bool at_end() const noexcept { return remaining() == 0; }

 private:
  std::span<const B> buf_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// CRC-64/XZ (ECMA-182 polynomial, reflected; init and xorout all-ones).
//
// Two kernels over the same register arithmetic:
//
//   * bytewise — one 256-entry table lookup per byte. Handles every
//     input on every target, and the short inputs and tails of the
//     folding kernel.
//   * clmul    — x86-64 PCLMULQDQ folding. Four 128-bit accumulators
//     each fold 512 bits ahead (64 bytes per round), then collapse into
//     one with 128-bit folds. The surviving 16-byte accumulator is
//     congruent (mod P) to everything consumed so far, so the bytewise
//     kernel finishes it with a zero register, followed by the tail.
//     That replaces the usual Barrett reduction step and its constants.
//
// Bit-reflected arithmetic: a 64-bit register value holds x^63 in bit 0
// and x^0 in bit 63, so multiplying by x is a right shift that folds the
// bit shifted out back in as P. A carry-less product of two reflected
// 64-bit values, read as a reflected 128-bit value, is the true product
// times x — which is why the fold constants below carry a -1 exponent.
// ---------------------------------------------------------------------

/// The ECMA-182 polynomial, bit-reflected, without the implicit x^64.
inline constexpr std::uint64_t kCrc64Poly = 0xC96C5795D7870F42ull;

namespace crc_detail {

/// x^n mod P in the reflected representation.
[[nodiscard]] consteval std::uint64_t xpow_mod(unsigned n) {
  std::uint64_t r = 1ull << 63;  // x^0
  for (unsigned i = 0; i < n; ++i) {
    r = (r & 1) ? (kCrc64Poly ^ (r >> 1)) : (r >> 1);
  }
  return r;
}

inline constexpr auto kTable = [] {
  std::array<std::uint64_t, 256> t{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kCrc64Poly ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}();

/// Advance the raw (pre-inverted) register over `n` bytes, one table
/// lookup per byte.
[[nodiscard]] inline std::uint64_t update_bytewise(
    std::uint64_t crc, const unsigned char* p, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if QMAX_CRC64_CLMUL
/// Folding a 128-bit block D bits forward: its first (higher-degree)
/// qword H becomes H·x^(D+64), its second qword L becomes L·x^D; each
/// constant carries the -1 the reflected product adds back.
struct FoldConstants {
  std::uint64_t first;   // x^(D+63) mod P, multiplies the first qword
  std::uint64_t second;  // x^(D-1) mod P, multiplies the second qword
};
inline constexpr FoldConstants kFold512{xpow_mod(512 + 63),
                                        xpow_mod(512 - 1)};
inline constexpr FoldConstants kFold128{xpow_mod(128 + 63),
                                        xpow_mod(128 - 1)};

/// Cached once per process. The kernel uses PCLMULQDQ plus the SSE2
/// baseline only, so this is the one feature the dispatch needs.
[[nodiscard]] inline bool cpu_has_pclmul() noexcept {
  static const bool has = __builtin_cpu_supports("pclmul") != 0;
  return has;
}

__attribute__((target("pclmul"))) [[nodiscard]] inline __m128i fold(
    __m128i acc, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// Advance the raw register over `n` bytes with carry-less folding.
/// Inputs under 64 bytes go straight to the bytewise kernel.
__attribute__((target("pclmul"))) [[nodiscard]] inline std::uint64_t
update_clmul(std::uint64_t crc, const unsigned char* p,
             std::size_t n) noexcept {
  if (n < 64) return update_bytewise(crc, p, n);
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  // The register joins the message as an XOR into its first 8 bytes.
  __m128i x0 = _mm_xor_si128(load(p),
                             _mm_cvtsi64_si128(static_cast<long long>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kFold512.second),
                                      static_cast<long long>(kFold512.first));
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k512, load(p));
    x1 = fold(x1, k512, load(p + 16));
    x2 = fold(x2, k512, load(p + 32));
    x3 = fold(x3, k512, load(p + 48));
  }
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128.second),
                                      static_cast<long long>(kFold128.first));
  __m128i acc = fold(fold(fold(x0, k128, x1), k128, x2), k128, x3);
  for (; n >= 16; p += 16, n -= 16) acc = fold(acc, k128, load(p));

  alignas(16) unsigned char last[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(last), acc);
  return update_bytewise(update_bytewise(0, last, sizeof last), p, n);
}
#endif

/// Finished CRC through the bytewise kernel only.
[[nodiscard]] inline std::uint64_t crc64_bytewise(const void* data,
                                                  std::size_t len) noexcept {
  return ~update_bytewise(~0ull, static_cast<const unsigned char*>(data),
                          len);
}

#if QMAX_CRC64_CLMUL
/// Finished CRC through the folding kernel (PCLMUL CPUs only).
[[nodiscard]] inline std::uint64_t crc64_clmul(const void* data,
                                               std::size_t len) noexcept {
  return ~update_clmul(~0ull, static_cast<const unsigned char*>(data), len);
}
#endif

}  // namespace crc_detail

/// CRC-64/XZ of `len` bytes: the folding kernel on PCLMUL-capable x86-64
/// CPUs, the bytewise table everywhere else. Both produce identical
/// values; test_codec.cpp holds them to that.
[[nodiscard]] inline std::uint64_t crc64(const void* data,
                                         std::size_t len) noexcept {
#if QMAX_CRC64_CLMUL
  if (crc_detail::cpu_has_pclmul()) return crc_detail::crc64_clmul(data, len);
#endif
  return crc_detail::crc64_bytewise(data, len);
}

}  // namespace qmax::common::codec
