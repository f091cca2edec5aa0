#include "shard/manifest.h"

#include "core/binary_format.h"
#include "core/check.h"
#include "core/file_io.h"

namespace weavess {

namespace {

constexpr Prologue kPrologue{
    .magic = {kManifestMagic, sizeof(kManifestMagic)},
    .name = "shard manifest",
    .bytes = kManifestHeaderBytes,
    .min_version = kMinManifestFormatVersion,
    .max_version = kManifestFormatVersion};

// Smallest encoded shard entry: u32 path length, a one-byte path (empty
// paths are rejected), u32 id count.
constexpr uint64_t kMinShardEntryBytes = 4 + 1 + 4;

}  // namespace

bool IsManifestBytes(std::string_view bytes) {
  return HasMagic(bytes, kPrologue.magic);
}

std::string ResolveShardPath(const std::string& manifest_path,
                             const std::string& entry_path) {
  if (!entry_path.empty() && entry_path.front() == '/') return entry_path;
  const size_t slash = manifest_path.find_last_of('/');
  if (slash == std::string::npos) return entry_path;
  return manifest_path.substr(0, slash + 1) + entry_path;
}

std::string SerializeManifest(const ShardManifest& manifest) {
  WEAVESS_CHECK(manifest.shards.size() <= 0xFFFFFFFFu);

  SectionWriter body;
  body.PutString(manifest.algorithm);
  body.PutString(manifest.partitioner);
  body.PutU64(manifest.generation);  // v2 field
  body.PutU64(manifest.options.seed);
  body.PutU32(manifest.options.knng_degree);
  body.PutU32(manifest.options.max_degree);
  body.PutU32(manifest.options.build_pool);
  body.PutU32(manifest.options.nn_descent_iters);
  body.PutU32(manifest.options.num_trees);
  body.PutU32(manifest.options.num_seeds);
  body.PutF32(manifest.options.alpha);
  body.PutF32(manifest.options.angle_degrees);
  for (const ShardManifest::Entry& entry : manifest.shards) {
    body.PutString(entry.path);
    body.PutU32(static_cast<uint32_t>(entry.ids.size()));
    for (uint32_t id : entry.ids) body.PutU32(id);
  }
  WEAVESS_CHECK(body.bytes().size() <= kMaxManifestBodyBytes);

  SectionWriter out;
  out.Reserve(kManifestHeaderBytes + body.bytes().size() + 4);
  out.PutBytes(kPrologue.magic);
  out.PutU32(kManifestFormatVersion);
  out.PutU32(static_cast<uint32_t>(manifest.shards.size()));
  out.PutU32(manifest.total_vertices);
  out.PutU32(static_cast<uint32_t>(body.bytes().size()));
  out.EndSection();
  out.PutBytes(body.bytes());
  out.EndSection();
  return std::move(out).Take();
}

StatusOr<ShardManifest> DeserializeManifest(std::string_view bytes) {
  WEAVESS_ASSIGN_OR_RETURN(const uint32_t version,
                           CheckPrologue(bytes, kPrologue));
  const uint32_t num_shards = GetU32(bytes, 12);
  const uint32_t total_vertices = GetU32(bytes, 16);
  const uint32_t body_len = GetU32(bytes, 20);
  if (body_len > kMaxManifestBodyBytes) {
    return CorruptionAt(20, "body length " + std::to_string(body_len) +
                                " exceeds the " +
                                std::to_string(kMaxManifestBodyBytes) +
                                "-byte cap");
  }
  WEAVESS_RETURN_IF_ERROR(
      CheckSections(bytes, kManifestHeaderBytes, {{"body", body_len}}));

  ShardManifest manifest;
  manifest.total_vertices = total_vertices;
  ByteCursor cursor(bytes.substr(kManifestHeaderBytes, body_len),
                    kManifestHeaderBytes, "shard manifest body");
  // Every row is listed once as a u32 id, so the row count is bounded by
  // the body before the coverage bitmap below is sized from it.
  WEAVESS_RETURN_IF_ERROR(cursor.CheckCount(total_vertices, 4, "row"));
  WEAVESS_RETURN_IF_ERROR(cursor.ReadString("algorithm", &manifest.algorithm));
  WEAVESS_RETURN_IF_ERROR(
      cursor.ReadString("partitioner", &manifest.partitioner));
  if (version >= 2) {
    WEAVESS_RETURN_IF_ERROR(
        cursor.ReadU64("generation", &manifest.generation));
  }
  AlgorithmOptions& options = manifest.options;
  WEAVESS_RETURN_IF_ERROR(cursor.ReadU64("seed", &options.seed));
  WEAVESS_RETURN_IF_ERROR(cursor.ReadU32("knng_degree", &options.knng_degree));
  WEAVESS_RETURN_IF_ERROR(cursor.ReadU32("max_degree", &options.max_degree));
  WEAVESS_RETURN_IF_ERROR(cursor.ReadU32("build_pool", &options.build_pool));
  WEAVESS_RETURN_IF_ERROR(
      cursor.ReadU32("nn_descent_iters", &options.nn_descent_iters));
  WEAVESS_RETURN_IF_ERROR(cursor.ReadU32("num_trees", &options.num_trees));
  WEAVESS_RETURN_IF_ERROR(cursor.ReadU32("num_seeds", &options.num_seeds));
  WEAVESS_RETURN_IF_ERROR(cursor.ReadF32("alpha", &options.alpha));
  WEAVESS_RETURN_IF_ERROR(
      cursor.ReadF32("angle_degrees", &options.angle_degrees));
  options.num_shards = num_shards;
  options.partitioner = manifest.partitioner;

  // Disjoint-cover check across all shard id lists: every row of
  // [0, total_vertices) appears exactly once.
  WEAVESS_RETURN_IF_ERROR(
      cursor.CheckCount(num_shards, kMinShardEntryBytes, "shard entry"));
  std::vector<bool> seen(total_vertices, false);
  uint64_t covered = 0;
  manifest.shards.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardManifest::Entry& entry = manifest.shards[s];
    const std::string what = "shard " + std::to_string(s) + " entry";
    WEAVESS_RETURN_IF_ERROR(cursor.ReadString(what, &entry.path));
    if (entry.path.empty()) {
      return CorruptionAt(cursor.offset(),
                          "shard " + std::to_string(s) + " has an empty path");
    }
    uint32_t num_ids = 0;
    WEAVESS_RETURN_IF_ERROR(cursor.ReadU32(what, &num_ids));
    WEAVESS_RETURN_IF_ERROR(cursor.CheckCount(num_ids, 4, what + " id"));
    entry.ids.resize(num_ids);
    for (uint32_t i = 0; i < num_ids; ++i) {
      uint32_t id = 0;
      WEAVESS_RETURN_IF_ERROR(cursor.ReadU32(what, &id));
      if (id >= total_vertices) {
        return CorruptionAt(cursor.offset() - 4,
                            "shard " + std::to_string(s) + " id " +
                                std::to_string(id) + " out of range for " +
                                std::to_string(total_vertices) + " rows");
      }
      if (seen[id]) {
        return CorruptionAt(cursor.offset() - 4,
                            "row " + std::to_string(id) +
                                " assigned to more than one shard");
      }
      seen[id] = true;
      ++covered;
      entry.ids[i] = id;
    }
  }
  WEAVESS_RETURN_IF_ERROR(cursor.ExpectEnd());
  if (covered != total_vertices) {
    return Status::Corruption(
        "shard id lists cover " + std::to_string(covered) + " of " +
        std::to_string(total_vertices) + " rows");
  }
  return manifest;
}

Status SaveManifest(const ShardManifest& manifest, const std::string& path) {
  return WriteStringToFile(SerializeManifest(manifest), path);
}

StatusOr<ShardManifest> LoadManifest(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeManifest(bytes);
}

}  // namespace weavess
