// CRC32 (IEEE 802.3 polynomial, reflected) over arbitrary byte ranges.
//
// The simulator models frame payloads as real bytes, so end-to-end
// integrity can be modeled honestly: the transport stamps each frame with
// the checksum of its payload (rt::Packet::crc32) and the receiver
// recomputes it after fault injection has had its chance to flip bits or
// truncate the frame.  The checksum itself is treated as protocol
// metadata — it occupies no modeled wire bytes, exactly like the
// seq/ack/tag headers — so enabling it never perturbs simulated time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace nscc::util {

namespace detail {

/// Slicing-by-8 tables: t[0] is the classic bytewise table, and t[k][i] is
/// the CRC of byte i followed by k zero bytes, so eight table lookups
/// advance the CRC by eight input bytes at once.
inline const std::array<std::array<std::uint32_t, 256>, 8>&
crc32_tables() noexcept {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFU];
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian 32-bit load from any alignment (one mov on x86).
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// Incremental form: feed `crc32_update` successive chunks starting from
/// crc32_init(), then finalize.  The one-shot crc32() below is the common
/// entry point.
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept {
  return 0xFFFFFFFFU;
}

[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc,
                                                const void* data,
                                                std::size_t len) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = detail::crc32_tables();
  for (; len >= 8; bytes += 8, len -= 8) {
    const std::uint32_t lo = crc ^ detail::load_le32(bytes);
    const std::uint32_t hi = detail::load_le32(bytes + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = t[0][(crc ^ *bytes) & 0xFFU] ^ (crc >> 8);
  }
  return crc;
}

[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t crc) noexcept {
  return crc ^ 0xFFFFFFFFU;
}

/// CRC32 of a contiguous byte range (IEEE; crc32("123456789") == 0xCBF43926).
[[nodiscard]] inline std::uint32_t crc32(const void* data,
                                         std::size_t len) noexcept {
  return crc32_final(crc32_update(crc32_init(), data, len));
}

}  // namespace nscc::util
