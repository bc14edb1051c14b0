#ifndef XORATOR_COMMON_CRC32_H_
#define XORATOR_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace xorator {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed
/// slicing-by-8: eight bytes per step through eight 256-entry tables, then
/// a byte-at-a-time tail. Any length and alignment; the same value on any
/// host byte order, and the same values the on-disk formats have always
/// stored.
///
/// Used to checksum storage pages and WAL records. `seed` allows chaining:
/// Crc32(b, nb, Crc32(a, na)) == Crc32(concat(a, b)).
uint32_t Crc32(const void* data, size_t length, uint32_t seed = 0);

}  // namespace xorator

#endif  // XORATOR_COMMON_CRC32_H_
