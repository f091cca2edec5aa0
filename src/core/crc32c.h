// CRC32C (Castagnoli polynomial, the checksum of iSCSI/ext4/RocksDB):
// software table-driven implementation used to protect every section of the
// on-disk formats (core/binary_format.h, docs/PERSISTENCE.md). No hardware
// intrinsics so the format is verifiable on any build target.
#ifndef WEAVESS_CORE_CRC32C_H_
#define WEAVESS_CORE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace weavess {

/// Extends `crc` (the running checksum of prior bytes, 0 to start) with
/// `n` more bytes. Final values are already post-conditioned; chain calls
/// by passing the previous return value back in.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// One-shot CRC32C of a buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace weavess

#endif  // WEAVESS_CORE_CRC32C_H_
