#pragma once
/// \file crc32.hpp
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). It checks
/// host<->device transfers under DeviceConfig::checksum_transfers and seals
/// core::Checkpoint images. Header-only, table-driven; the table is
/// built once at first use.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ttsim {

namespace detail {
inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}
}  // namespace detail

/// CRC-32 of `data`, optionally continuing from a previous value (pass the
/// prior return value to checksum a buffer in chunks).
inline std::uint32_t crc32(std::span<const std::byte> data,
                           std::uint32_t crc = 0) {
  const auto& table = detail::crc32_table();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c = table[(c ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ttsim
