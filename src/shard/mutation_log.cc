#include "shard/mutation_log.h"

#include <cstdio>
#include <cstring>

#include "core/binary_format.h"
#include "core/check.h"
#include "core/crc32c.h"
#include "core/file_io.h"

namespace weavess {

namespace {

constexpr Prologue kWalPrologue{
    .magic = {kWalMagic, sizeof(kWalMagic)},
    .name = "mutation log",
    .bytes = kWalHeaderBytes,
    .min_version = kWalFormatVersion,
    .max_version = kWalFormatVersion};

// The whole generation manifest is its prologue: one CRC covers it all.
constexpr Prologue kGenPrologue{
    .magic = {kGenManifestMagic, sizeof(kGenManifestMagic)},
    .name = "generation manifest",
    .bytes = kGenManifestBytes,
    .min_version = kGenManifestVersion,
    .max_version = kGenManifestVersion};

/// Parses one frame payload into `record`. Any error (unknown kind, size
/// mismatch) is treated exactly like a CRC failure: the log ends here.
Status ParsePayload(std::string_view payload, uint32_t dim,
                    MutationRecord* record) {
  ByteCursor cursor(payload, 0, "mutation record");
  uint8_t kind = 0;
  WEAVESS_RETURN_IF_ERROR(cursor.ReadU8("kind", &kind));
  record->kind = static_cast<MutationKind>(kind);
  switch (record->kind) {
    case MutationKind::kAdd: {
      WEAVESS_RETURN_IF_ERROR(cursor.ReadU32("id", &record->id));
      std::string_view vector;
      WEAVESS_RETURN_IF_ERROR(
          cursor.ReadBytes(size_t{dim} * 4, "vector", &vector));
      record->vector.resize(dim);
      std::memcpy(record->vector.data(), vector.data(), vector.size());
      break;
    }
    case MutationKind::kRemove:
    case MutationKind::kCompact:
      WEAVESS_RETURN_IF_ERROR(cursor.ReadU32("id", &record->id));
      break;
    case MutationKind::kCommit:
      WEAVESS_RETURN_IF_ERROR(
          cursor.ReadU64("generation", &record->generation));
      WEAVESS_RETURN_IF_ERROR(cursor.ReadU32("next id", &record->next_id));
      break;
    default:
      return Status::Corruption("unknown mutation kind " +
                                std::to_string(kind));
  }
  return cursor.ExpectEnd();
}

}  // namespace

std::string SerializeWalHeader(uint32_t dim) {
  SectionWriter out;
  out.PutBytes(kWalPrologue.magic);
  out.PutU32(kWalFormatVersion);
  out.PutU32(dim);
  out.EndSection();
  return std::move(out).Take();
}

std::string SerializeWalRecord(const MutationRecord& record) {
  SectionWriter payload;
  payload.PutU8(static_cast<uint8_t>(record.kind));
  switch (record.kind) {
    case MutationKind::kAdd:
      payload.PutU32(record.id);
      for (float v : record.vector) payload.PutF32(v);
      break;
    case MutationKind::kRemove:
    case MutationKind::kCompact:
      payload.PutU32(record.id);
      break;
    case MutationKind::kCommit:
      payload.PutU64(record.generation);
      payload.PutU32(record.next_id);
      break;
  }
  const std::string& bytes = payload.bytes();
  WEAVESS_CHECK(bytes.size() <= kMaxWalPayloadBytes);
  SectionWriter frame;
  frame.Reserve(kWalFrameBytes + bytes.size());
  frame.PutU32(static_cast<uint32_t>(bytes.size()));
  frame.PutU32(Crc32c(bytes.data(), bytes.size()));
  frame.PutBytes(bytes);
  return std::move(frame).Take();
}

StatusOr<WalReplay> ReplayMutationLog(std::string_view bytes, uint32_t dim) {
  WalReplay replay;
  // A short or torn header means nothing was ever committed: recover to
  // the empty state (the caller rewrites a fresh header). Only a readable
  // header of another version is an error.
  const StatusOr<uint32_t> version = CheckPrologue(bytes, kWalPrologue);
  if (!version.ok()) {
    if (version.status().IsNotSupported()) return version.status();
    replay.truncated_tail = !bytes.empty();
    return replay;
  }
  const uint32_t stored_dim = GetU32(bytes, 12);
  if (stored_dim != dim) {
    return Status::InvalidArgument(
        "mutation log is over " + std::to_string(stored_dim) +
        "-dimensional vectors, index expects " + std::to_string(dim));
  }

  std::vector<MutationRecord> records;
  size_t pos = kWalHeaderBytes;
  size_t committed_records = 0;
  replay.committed_bytes = pos;  // empty log commits nothing past the header
  replay.valid_bytes = pos;
  while (true) {
    if (bytes.size() - pos < kWalFrameBytes) break;
    const uint32_t payload_len = GetU32(bytes, pos);
    if (payload_len > kMaxWalPayloadBytes) break;
    if (bytes.size() - pos - kWalFrameBytes < payload_len) break;
    const std::string_view payload =
        bytes.substr(pos + kWalFrameBytes, payload_len);
    if (GetU32(bytes, pos + 4) != Crc32c(payload.data(), payload.size())) {
      break;
    }
    MutationRecord record;
    if (!ParsePayload(payload, dim, &record).ok()) break;
    pos += kWalFrameBytes + payload_len;
    replay.valid_bytes = pos;
    const bool is_commit = record.kind == MutationKind::kCommit;
    if (is_commit) {
      replay.generation = record.generation;
      replay.next_id = record.next_id;
    }
    records.push_back(std::move(record));
    if (is_commit) {
      committed_records = records.size();
      replay.committed_bytes = pos;
    }
  }
  replay.truncated_tail = replay.valid_bytes != bytes.size();
  replay.rolled_back_records = records.size() - committed_records;
  records.resize(committed_records);
  replay.records = std::move(records);
  return replay;
}

// ------------------------------------------------- generation manifest

std::string SerializeGenerationManifest(const GenerationManifest& manifest) {
  SectionWriter out;
  out.PutBytes(kGenPrologue.magic);
  out.PutU32(kGenManifestVersion);
  out.PutU32(manifest.dim);
  out.PutU32(manifest.num_shards);
  out.PutU64(manifest.generation);
  out.PutU32(manifest.next_id);
  out.PutU64(manifest.seed);
  out.EndSection();
  return std::move(out).Take();
}

StatusOr<GenerationManifest> DeserializeGenerationManifest(
    std::string_view bytes) {
  WEAVESS_RETURN_IF_ERROR(CheckPrologue(bytes, kGenPrologue).status());
  if (bytes.size() != kGenManifestBytes) {
    return CorruptionAt(kGenManifestBytes,
                        std::to_string(bytes.size() - kGenManifestBytes) +
                            " trailing bytes after the generation manifest");
  }
  GenerationManifest manifest;
  manifest.dim = GetU32(bytes, 12);
  manifest.num_shards = GetU32(bytes, 16);
  manifest.generation = GetU64(bytes, 20);
  manifest.next_id = GetU32(bytes, 28);
  manifest.seed = GetU64(bytes, 32);
  return manifest;
}

Status SaveGenerationManifest(const GenerationManifest& manifest,
                              const std::string& path) {
  const std::string tmp = path + ".tmp";
  WEAVESS_RETURN_IF_ERROR(
      WriteStringToFile(SerializeGenerationManifest(manifest), tmp));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return Status::OK();
}

StatusOr<GenerationManifest> LoadGenerationManifest(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeGenerationManifest(bytes);
}

}  // namespace weavess
