#include "core/binary_format.h"

#include <bit>
#include <cstdio>

#include "core/crc32c.h"

namespace weavess {

uint32_t GetU32(std::string_view bytes, size_t offset) {
  const auto* p = reinterpret_cast<const uint8_t*>(bytes.data() + offset);
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(std::string_view bytes, size_t offset) {
  return static_cast<uint64_t>(GetU32(bytes, offset)) |
         static_cast<uint64_t>(GetU32(bytes, offset + 4)) << 32;
}

float GetF32(std::string_view bytes, size_t offset) {
  return std::bit_cast<float>(GetU32(bytes, offset));
}

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

Status CorruptionAt(uint64_t byte_offset, const std::string& what) {
  return Status::Corruption(what + " at byte offset " +
                            std::to_string(byte_offset));
}

bool HasMagic(std::string_view bytes, std::string_view magic) {
  return bytes.substr(0, magic.size()) == magic;
}

// ------------------------------------------------------------ SectionWriter

void SectionWriter::PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

void SectionWriter::PutU32(uint32_t v) {
  const char bytes[4] = {static_cast<char>(v & 0xFF),
                         static_cast<char>((v >> 8) & 0xFF),
                         static_cast<char>((v >> 16) & 0xFF),
                         static_cast<char>((v >> 24) & 0xFF)};
  out_.append(bytes, 4);
}

void SectionWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void SectionWriter::PutF32(float v) { PutU32(std::bit_cast<uint32_t>(v)); }

void SectionWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s);
}

void SectionWriter::PutBytes(std::string_view bytes) { out_.append(bytes); }

void SectionWriter::EndSection() {
  PutU32(Crc32c(out_.data() + section_begin_, out_.size() - section_begin_));
  section_begin_ = out_.size();
}

// --------------------------------------------------------------- ByteCursor

Status ByteCursor::Need(size_t n, std::string_view what) const {
  if (remaining() < n) {
    return CorruptionAt(offset(), std::string(context_) +
                                      " truncated reading " +
                                      std::string(what));
  }
  return Status::OK();
}

Status ByteCursor::ReadU8(std::string_view what, uint8_t* out) {
  WEAVESS_RETURN_IF_ERROR(Need(1, what));
  *out = static_cast<uint8_t>(bytes_[pos_]);
  pos_ += 1;
  return Status::OK();
}

Status ByteCursor::ReadU32(std::string_view what, uint32_t* out) {
  WEAVESS_RETURN_IF_ERROR(Need(4, what));
  *out = GetU32(bytes_, pos_);
  pos_ += 4;
  return Status::OK();
}

Status ByteCursor::ReadU64(std::string_view what, uint64_t* out) {
  WEAVESS_RETURN_IF_ERROR(Need(8, what));
  *out = GetU64(bytes_, pos_);
  pos_ += 8;
  return Status::OK();
}

Status ByteCursor::ReadF32(std::string_view what, float* out) {
  WEAVESS_RETURN_IF_ERROR(Need(4, what));
  *out = GetF32(bytes_, pos_);
  pos_ += 4;
  return Status::OK();
}

Status ByteCursor::ReadString(std::string_view what, std::string* out) {
  uint32_t len = 0;
  WEAVESS_RETURN_IF_ERROR(ReadU32(what, &len));
  std::string_view view;
  WEAVESS_RETURN_IF_ERROR(ReadBytes(len, what, &view));
  out->assign(view);
  return Status::OK();
}

Status ByteCursor::ReadBytes(size_t n, std::string_view what,
                             std::string_view* out) {
  WEAVESS_RETURN_IF_ERROR(Need(n, what));
  *out = bytes_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteCursor::CheckCount(uint64_t count, uint64_t min_bytes_each,
                              std::string_view what) const {
  if (count > remaining() / min_bytes_each) {
    return CorruptionAt(
        offset(), std::string(what) + " count " + std::to_string(count) +
                      " needs at least " + std::to_string(min_bytes_each) +
                      " bytes each, but the " + std::string(context_) +
                      " has only " + std::to_string(remaining()) +
                      " bytes left");
  }
  return Status::OK();
}

Status ByteCursor::ExpectEnd() const {
  if (remaining() != 0) {
    return CorruptionAt(offset(), std::to_string(remaining()) +
                                      " unread trailing bytes in the " +
                                      std::string(context_));
  }
  return Status::OK();
}

// -------------------------------------------------------- prologue/sections

StatusOr<uint32_t> CheckPrologue(std::string_view bytes,
                                 const Prologue& prologue,
                                 std::vector<SectionReport>* report) {
  if (bytes.size() < prologue.bytes) {
    return Status::Corruption(
        "file too small: " + std::to_string(bytes.size()) + " bytes, a " +
        prologue.name + " needs at least " + std::to_string(prologue.bytes));
  }
  if (!HasMagic(bytes, prologue.magic)) {
    return CorruptionAt(0, std::string("bad magic (not a weavess ") +
                               prologue.name +
                               std::string(prologue.magic_note) + ")");
  }
  const size_t crc_at = prologue.bytes - 4;
  const uint32_t stored_crc = GetU32(bytes, crc_at);
  const uint32_t computed_crc = Crc32c(bytes.data(), crc_at);
  if (report != nullptr) {
    report->push_back({"header", 0, crc_at, stored_crc, computed_crc,
                       stored_crc == computed_crc});
  }
  if (stored_crc != computed_crc) {
    return CorruptionAt(crc_at, "header CRC mismatch: stored " +
                                    Hex(stored_crc) + ", computed " +
                                    Hex(computed_crc));
  }
  const uint32_t version = GetU32(bytes, prologue.magic.size());
  if (version < prologue.min_version || version > prologue.max_version) {
    std::string readable = std::to_string(prologue.min_version);
    if (prologue.max_version != prologue.min_version) {
      readable += ".." + std::to_string(prologue.max_version);
    }
    return Status::NotSupported(std::string(prologue.name) +
                                " format version " + std::to_string(version) +
                                "; this build reads version " + readable);
  }
  return version;
}

Status CheckSections(std::string_view bytes, uint64_t begin,
                     std::initializer_list<Section> sections,
                     std::vector<SectionReport>* report) {
  uint64_t expected = begin;
  for (const Section& section : sections) expected += section.length + 4;
  if (expected != bytes.size()) {
    return Status::Corruption("file size mismatch: header promises " +
                              std::to_string(expected) + " bytes, file has " +
                              std::to_string(bytes.size()));
  }
  Status first;
  uint64_t at = begin;
  for (const Section& section : sections) {
    const uint32_t stored_crc = GetU32(bytes, at + section.length);
    const uint32_t computed_crc = Crc32c(bytes.data() + at, section.length);
    const bool ok = stored_crc == computed_crc;
    if (report != nullptr) {
      report->push_back({section.name, at, section.length, stored_crc,
                         computed_crc, ok});
    }
    if (!ok && first.ok()) {
      first = CorruptionAt(at + section.length,
                           std::string(section.name) +
                               " section CRC mismatch: stored " +
                               Hex(stored_crc) + ", computed " +
                               Hex(computed_crc));
      if (report == nullptr) return first;
    }
    at += section.length + 4;
  }
  return first;
}

}  // namespace weavess
