// Binary framing shared by every on-disk format (docs/PERSISTENCE.md): the
// graph format, shard manifests, replica-set manifests, SQ8 codes, and the
// write-ahead log with its generation manifest. This module owns the
// framing decision; each format module only declares its schema — field
// order plus the checks only it needs.
//
//   * Fields are explicit little-endian u8/u32/u64/f32; strings are a u32
//     length followed by the bytes. Files are byte-defined, not
//     struct-defined, so they round-trip across architectures.
//   * A file opens with a fixed prologue: magic, u32 version, the format's
//     fixed fields, and a u32 CRC32C of all of them.
//   * Every later section is followed by the u32 CRC32C of its bytes.
//   * Readers never abort on bad bytes: damage is kCorruption naming the
//     byte offset, an unknown version is kNotSupported.
#ifndef WEAVESS_CORE_BINARY_FORMAT_H_
#define WEAVESS_CORE_BINARY_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"

namespace weavess {

/// Unchecked little-endian reads of the field at `offset`. Only for offsets
/// the caller has already proved in bounds (a checked prologue, a layout
/// matched against the file size); everything else goes through ByteCursor.
uint32_t GetU32(std::string_view bytes, size_t offset);
uint64_t GetU64(std::string_view bytes, size_t offset);
float GetF32(std::string_view bytes, size_t offset);

/// `v` as "0x%08x", the spelling of CRCs in diagnostics.
std::string Hex(uint32_t v);

/// kCorruption whose message ends "at byte offset `byte_offset`".
Status CorruptionAt(uint64_t byte_offset, const std::string& what);

/// True when `bytes` begins with `magic`.
bool HasMagic(std::string_view bytes, std::string_view magic);

/// Builds a file front to back. EndSection seals the section: it appends
/// the CRC32C of every byte put since the previous EndSection (or since the
/// start, for the prologue).
class SectionWriter {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutF32(float v);
  /// u32 length, then the bytes.
  void PutString(std::string_view s);
  void PutBytes(std::string_view bytes);
  void EndSection();

  void Reserve(size_t n) { out_.reserve(n); }
  const std::string& bytes() const { return out_; }
  std::string Take() && { return std::move(out_); }

 private:
  std::string out_;
  size_t section_begin_ = 0;
};

/// Bounds-checked reads over one region of a file. Every overrun is
/// kCorruption naming the absolute file offset where the region ran out.
class ByteCursor {
 public:
  /// `bytes` starts at absolute file offset `base`; `context` names the
  /// region in diagnostics (e.g. "shard manifest body").
  ByteCursor(std::string_view bytes, uint64_t base, std::string_view context)
      : bytes_(bytes), base_(base), context_(context) {}

  Status ReadU8(std::string_view what, uint8_t* out);
  Status ReadU32(std::string_view what, uint32_t* out);
  Status ReadU64(std::string_view what, uint64_t* out);
  Status ReadF32(std::string_view what, float* out);
  /// A u32 length, then that many bytes.
  Status ReadString(std::string_view what, std::string* out);
  /// The next `n` bytes, as a view into the region.
  Status ReadBytes(size_t n, std::string_view what, std::string_view* out);

  /// Rejects `count` items of at least `min_bytes_each` (> 0) encoded bytes
  /// when they cannot fit in what remains. Run it before sizing anything from a
  /// count read off the disk, so a forged count is kCorruption rather than
  /// a huge allocation.
  Status CheckCount(uint64_t count, uint64_t min_bytes_each,
                    std::string_view what) const;
  /// kCorruption unless every byte of the region was read.
  Status ExpectEnd() const;

  size_t remaining() const { return bytes_.size() - pos_; }
  /// Absolute file offset of the next unread byte.
  uint64_t offset() const { return base_ + pos_; }

 private:
  Status Need(size_t n, std::string_view what) const;

  std::string_view bytes_;
  uint64_t base_;
  std::string_view context_;
  size_t pos_ = 0;
};

/// A format's fixed prologue: magic, u32 version at offset magic.size(),
/// the format's own fixed fields, and a u32 CRC32C of everything before it.
struct Prologue {
  std::string_view magic;
  /// What the file is, for diagnostics ("graph file", "shard manifest").
  const char* name;
  /// Prologue length including its trailing CRC.
  size_t bytes;
  uint32_t min_version;
  uint32_t max_version;
  /// Appended to the bad-magic diagnostic, e.g. a hint about legacy files.
  std::string_view magic_note = {};
};

/// One CRC-protected section as `weavess_cli verify` reports it.
struct SectionReport {
  std::string name;     // "header", then the format's section names
  uint64_t offset = 0;  // byte offset of the section's first byte
  uint64_t length = 0;  // section bytes, excluding the trailing CRC
  uint32_t stored_crc = 0;
  uint32_t computed_crc = 0;
  bool ok = false;
};

/// Checks the prologue in order: length, magic, header CRC, then the
/// version range (kNotSupported outside it). Returns the version. When
/// `report` is non-null and the magic matched, the header is recorded as
/// section "header". On success bytes[0, prologue.bytes) is safe to read
/// with GetU32/GetU64.
StatusOr<uint32_t> CheckPrologue(std::string_view bytes,
                                 const Prologue& prologue,
                                 std::vector<SectionReport>* report = nullptr);

/// A section after the prologue, as its header declares it.
struct Section {
  const char* name;
  uint64_t length;  // bytes, excluding the trailing CRC
};

/// Checks that `sections`, each followed by its u32 CRC32C, exactly fill
/// bytes[begin, end), then checks every CRC. With `report`, records each
/// section and keeps checking after a mismatch, so a verifier can print
/// the whole file's damage; the first failure is returned either way.
/// The caller bounds each length first, so neither a length nor their sum
/// can wrap.
Status CheckSections(std::string_view bytes, uint64_t begin,
                     std::initializer_list<Section> sections,
                     std::vector<SectionReport>* report = nullptr);

}  // namespace weavess

#endif  // WEAVESS_CORE_BINARY_FORMAT_H_
