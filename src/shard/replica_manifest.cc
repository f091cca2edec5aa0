#include "shard/replica_manifest.h"

#include "core/binary_format.h"
#include "core/check.h"
#include "core/crc32c.h"
#include "core/file_io.h"

namespace weavess {

namespace {

constexpr Prologue kPrologue{
    .magic = {kReplicaManifestMagic, sizeof(kReplicaManifestMagic)},
    .name = "replica-set manifest",
    .bytes = kReplicaManifestHeaderBytes,
    .min_version = kReplicaManifestFormatVersion,
    .max_version = kReplicaManifestFormatVersion};

// Smallest encoded replica entry: u8 kind, u32 path length, a one-byte path
// (empty paths are rejected), u32 file CRC.
constexpr uint64_t kMinReplicaEntryBytes = 1 + 4 + 1 + 4;

}  // namespace

bool IsReplicaManifestBytes(std::string_view bytes) {
  return HasMagic(bytes, kPrologue.magic);
}

StatusOr<uint32_t> FileCrc32c(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return Crc32c(bytes.data(), bytes.size());
}

std::string SerializeReplicaManifest(const ReplicaManifest& manifest) {
  WEAVESS_CHECK(manifest.replicas.size() <= 0xFFFFFFFFu);

  SectionWriter body;
  for (const ReplicaManifest::Entry& entry : manifest.replicas) {
    body.PutU8(static_cast<uint8_t>(entry.kind));
    body.PutString(entry.path);
    body.PutU32(entry.file_crc32c);
  }
  WEAVESS_CHECK(body.bytes().size() <= kMaxReplicaManifestBodyBytes);

  SectionWriter out;
  out.Reserve(kReplicaManifestHeaderBytes + body.bytes().size() + 4);
  out.PutBytes(kPrologue.magic);
  out.PutU32(kReplicaManifestFormatVersion);
  out.PutU32(static_cast<uint32_t>(manifest.replicas.size()));
  out.PutU32(static_cast<uint32_t>(body.bytes().size()));
  out.EndSection();
  out.PutBytes(body.bytes());
  out.EndSection();
  return std::move(out).Take();
}

StatusOr<ReplicaManifest> DeserializeReplicaManifest(std::string_view bytes) {
  WEAVESS_RETURN_IF_ERROR(CheckPrologue(bytes, kPrologue).status());
  const uint32_t num_replicas = GetU32(bytes, 13);
  const uint32_t body_len = GetU32(bytes, 17);
  if (body_len > kMaxReplicaManifestBodyBytes) {
    return CorruptionAt(17, "body length " + std::to_string(body_len) +
                                " exceeds the " +
                                std::to_string(kMaxReplicaManifestBodyBytes) +
                                "-byte cap");
  }
  WEAVESS_RETURN_IF_ERROR(
      CheckSections(bytes, kReplicaManifestHeaderBytes, {{"body", body_len}}));

  ByteCursor cursor(bytes.substr(kReplicaManifestHeaderBytes, body_len),
                    kReplicaManifestHeaderBytes, "replica-set manifest body");
  WEAVESS_RETURN_IF_ERROR(
      cursor.CheckCount(num_replicas, kMinReplicaEntryBytes, "replica entry"));
  ReplicaManifest manifest;
  manifest.replicas.resize(num_replicas);
  for (uint32_t r = 0; r < num_replicas; ++r) {
    ReplicaManifest::Entry& entry = manifest.replicas[r];
    const std::string what = "replica " + std::to_string(r) + " entry";
    uint8_t kind = 0;
    WEAVESS_RETURN_IF_ERROR(cursor.ReadU8(what, &kind));
    if (kind > static_cast<uint8_t>(ReplicaManifest::Kind::kShardManifest)) {
      return CorruptionAt(cursor.offset() - 1,
                          "replica " + std::to_string(r) +
                              " has unknown source kind " +
                              std::to_string(kind));
    }
    entry.kind = static_cast<ReplicaManifest::Kind>(kind);
    WEAVESS_RETURN_IF_ERROR(cursor.ReadString(what, &entry.path));
    if (entry.path.empty()) {
      return CorruptionAt(cursor.offset(), "replica " + std::to_string(r) +
                                               " has an empty path");
    }
    WEAVESS_RETURN_IF_ERROR(cursor.ReadU32(what, &entry.file_crc32c));
  }
  WEAVESS_RETURN_IF_ERROR(cursor.ExpectEnd());
  return manifest;
}

Status SaveReplicaManifest(const ReplicaManifest& manifest,
                           const std::string& path) {
  return WriteStringToFile(SerializeReplicaManifest(manifest), path);
}

StatusOr<ReplicaManifest> LoadReplicaManifest(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeReplicaManifest(bytes);
}

}  // namespace weavess
