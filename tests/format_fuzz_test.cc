// Seeded mutation fuzzer over every on-disk format (docs/PERSISTENCE.md).
// From a few valid files per format it derives a fixed number of mutants —
// flipped bytes, splices of two valid files, forged length and count
// fields — and re-stamps every CRC in half of them, so those get past the
// checksums into structural validation. The contract under test:
//
//   * No input crashes, reads out of bounds, or allocates from an
//     unchecked count (the asan preset runs this suite).
//   * A deserializer returns kCorruption or kNotSupported — or OK, and
//     then only for a canonical file that holds the format's invariants:
//     what it parsed serializes back to exactly the input bytes, neighbor
//     ids are in range, shard id lists partition the rows, SQ8 scales are
//     finite. No damage is ever silently accepted.
//   * WAL replay never fails on damage: it returns a committed prefix
//     that re-serializes to exactly the leading bytes of the log.
//
// The seed and the iteration count are fixed, so every run checks the
// same inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/binary_format.h"
#include "core/crc32c.h"
#include "core/graph.h"
#include "core/graph_io.h"
#include "core/rng.h"
#include "core/status.h"
#include "fault_injection.h"
#include "quant/quant_io.h"
#include "quant/sq8.h"
#include "shard/manifest.h"
#include "shard/mutation_log.h"
#include "shard/replica_manifest.h"

namespace weavess {
namespace {

using ::weavess::testing::PatchU32;
using ::weavess::testing::ResealCrc;

constexpr int kMutantsPerFormat = 20000;
constexpr uint32_t kWalDim = 3;

struct Target {
  std::vector<std::string> seeds;
  /// Offsets of the u32 length and count fields of the first seed.
  std::vector<size_t> fields;
  /// Section lengths the (possibly forged) prologue declares, in order.
  std::function<std::vector<uint64_t>(const std::string&)> sections;
  size_t header_bytes = 0;
  /// Asserts the outcome contract for one mutant.
  std::function<void(const std::string&)> check;
};

// Re-stamps the header CRC and the trailing CRC of every declared section
// that still fits in the file.
void ResealSections(const Target& target, std::string* bytes) {
  if (bytes->size() < target.header_bytes) return;
  ResealCrc(bytes, 0, target.header_bytes - 4);
  uint64_t at = target.header_bytes;
  for (uint64_t length : target.sections(*bytes)) {
    if (length > bytes->size() || at + length + 4 > bytes->size()) return;
    ResealCrc(bytes, at, at + length);
    at += length + 4;
  }
}

// WAL frames carry their CRC before the payload.
void ResealWalFrames(std::string* bytes) {
  if (bytes->size() < kWalHeaderBytes) return;
  ResealCrc(bytes, 0, kWalHeaderBytes - 4);
  for (size_t pos = kWalHeaderBytes; bytes->size() - pos >= kWalFrameBytes;) {
    const uint32_t length = GetU32(*bytes, pos);
    if (bytes->size() - pos - kWalFrameBytes < length) return;
    PatchU32(bytes, pos + 4,
             Crc32c(bytes->data() + pos + kWalFrameBytes, length));
    pos += kWalFrameBytes + length;
  }
}

std::string Mutate(const std::vector<std::string>& seeds,
                   const std::vector<size_t>& fields, Rng& rng) {
  std::string bytes = seeds[rng.NextBounded(seeds.size())];
  switch (rng.NextBounded(3)) {
    case 0: {  // flip a few bytes
      const uint64_t flips = 1 + rng.NextBounded(4);
      for (uint64_t i = 0; i < flips && !bytes.empty(); ++i) {
        bytes[rng.NextBounded(bytes.size())] ^=
            static_cast<char>(1 + rng.NextBounded(255));
      }
      break;
    }
    case 1: {  // splice: a prefix of one valid file, a suffix of another
      const std::string& other = seeds[rng.NextBounded(seeds.size())];
      bytes = bytes.substr(0, rng.NextBounded(bytes.size() + 1)) +
              other.substr(rng.NextBounded(other.size() + 1));
      break;
    }
    default: {  // forge a length or count field
      if (bytes.size() < 4) break;
      const size_t at = rng.NextBounded(2) == 0 && !fields.empty()
                            ? fields[rng.NextBounded(fields.size())]
                            : rng.NextBounded(bytes.size() - 3);
      if (at + 4 > bytes.size()) break;
      const uint32_t old = GetU32(bytes, at);
      const uint32_t forged[] = {0u,
                                 1u,
                                 old + 1,
                                 old - 1,
                                 old * 2,
                                 static_cast<uint32_t>(bytes.size()),
                                 0x7FFFFFFFu,
                                 0xFFFFFFFFu,
                                 static_cast<uint32_t>(rng.NextU64())};
      PatchU32(&bytes, at, forged[rng.NextBounded(std::size(forged))]);
      break;
    }
  }
  return bytes;
}

void Fuzz(const char* name, const Target& target,
          const std::function<void(std::string*)>& reseal) {
  Rng rng(Crc32c(name, std::char_traits<char>::length(name)));
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    std::string bytes = Mutate(target.seeds, target.fields, rng);
    if (i % 2 == 1) reseal(&bytes);
    SCOPED_TRACE("mutant " + std::to_string(i));
    target.check(bytes);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// kCorruption / kNotSupported, or OK for a canonical file only.
template <typename T>
void ExpectRejectedOrCanonical(
    const StatusOr<T>& parsed, const std::string& bytes,
    const std::function<std::string(const T&)>& serialize) {
  if (!parsed.ok()) {
    ASSERT_TRUE(parsed.status().IsCorruption() ||
                parsed.status().IsNotSupported())
        << parsed.status().ToString();
    return;
  }
  ASSERT_EQ(serialize(*parsed), bytes) << "accepted a non-canonical file";
}

// ----------------------------------------------------------- the formats

Graph SeedGraph(uint32_t n, uint32_t stride) {
  Graph graph(n);
  for (uint32_t v = 0; v < n; ++v) {
    graph.AddEdge(v, (v + stride) % n);
    if (v % 2 == 0) graph.AddEdge(v, (v + 1) % n);
  }
  return graph;
}

TEST(FormatFuzzTest, GraphFile) {
  Target target;
  target.seeds = {SerializeGraph(SeedGraph(6, 2), "meta"),
                  SerializeGraph(SeedGraph(9, 4)), SerializeGraph(Graph(0))};
  target.fields = {12, 16, 20, 24};
  target.header_bytes = kGraphHeaderBytes;
  target.sections = [](const std::string& b) -> std::vector<uint64_t> {
    const uint64_t n = GetU32(b, 12), e = GetU64(b, 16);
    if (e > b.size()) return {(n + 1) * 8};
    return {(n + 1) * 8, e * 4, GetU32(b, 24)};
  };
  target.check = [](const std::string& bytes) {
    std::string metadata;
    const StatusOr<Graph> parsed = DeserializeGraph(bytes, &metadata);
    ExpectRejectedOrCanonical<Graph>(
        parsed, bytes,
        [&](const Graph& g) { return SerializeGraph(g, metadata); });
    if (!parsed.ok()) return;
    for (uint32_t v = 0; v < parsed->size(); ++v) {
      for (uint32_t id : parsed->Neighbors(v)) ASSERT_LT(id, parsed->size());
    }
  };
  Fuzz("graph", target,
       [&](std::string* b) { ResealSections(target, b); });
}

TEST(FormatFuzzTest, ShardManifest) {
  ShardManifest a;
  a.algorithm = "HNSW";
  a.partitioner = "random";
  a.generation = 3;
  a.total_vertices = 6;
  a.options.num_shards = 2;
  a.shards = {{"a.shard0.wvs", {0, 2, 4}}, {"a.shard1.wvs", {1, 3, 5}}};
  ShardManifest b = a;
  b.algorithm = "NSG";
  b.total_vertices = 4;
  b.shards = {{"b0", {3, 1}}, {"b1", {}}, {"b2", {0, 2}}};
  Target target;
  target.seeds = {SerializeManifest(a), SerializeManifest(b)};
  // num_shards, total_vertices, body length, the two string lengths.
  target.fields = {12, 16, 20, 28, 36};
  target.header_bytes = kManifestHeaderBytes;
  target.sections = [](const std::string& b) -> std::vector<uint64_t> {
    return {GetU32(b, 20)};
  };
  target.check = [](const std::string& bytes) {
    const StatusOr<ShardManifest> parsed = DeserializeManifest(bytes);
    // A forged version 1 reads without the generation field; re-saving
    // writes version 2, so only v2 inputs can be compared byte for byte.
    if (!parsed.ok() || GetU32(bytes, 8) == 2) {
      ExpectRejectedOrCanonical<ShardManifest>(parsed, bytes,
                                               SerializeManifest);
    }
    if (!parsed.ok()) return;
    // The shard id lists partition [0, total_vertices).
    std::vector<int> owners(parsed->total_vertices, 0);
    for (const ShardManifest::Entry& entry : parsed->shards) {
      for (uint32_t id : entry.ids) {
        ASSERT_LT(id, parsed->total_vertices);
        ASSERT_EQ(owners[id]++, 0) << "row " << id << " owned twice";
      }
    }
    for (int count : owners) ASSERT_EQ(count, 1);
  };
  Fuzz("shard_manifest", target,
       [&](std::string* b) { ResealSections(target, b); });
}

TEST(FormatFuzzTest, ReplicaManifest) {
  ReplicaManifest a;
  a.replicas = {{"r0.wvs", ReplicaManifest::Kind::kGraph, 1},
                {"r1.manifest", ReplicaManifest::Kind::kShardManifest, 2}};
  ReplicaManifest b;
  b.replicas = {{"x", ReplicaManifest::Kind::kGraph, 0xFFFFFFFFu}};
  Target target;
  target.seeds = {SerializeReplicaManifest(a), SerializeReplicaManifest(b),
                  SerializeReplicaManifest(ReplicaManifest())};
  // num_replicas, body length, the first path length.
  target.fields = {13, 17, 26};
  target.header_bytes = kReplicaManifestHeaderBytes;
  target.sections = [](const std::string& b) -> std::vector<uint64_t> {
    return {GetU32(b, 17)};
  };
  target.check = [](const std::string& bytes) {
    ExpectRejectedOrCanonical<ReplicaManifest>(
        DeserializeReplicaManifest(bytes), bytes, SerializeReplicaManifest);
  };
  Fuzz("replica_manifest", target,
       [&](std::string* b) { ResealSections(target, b); });
}

QuantizedDataset SeedCodes(uint32_t num, uint32_t dim, uint64_t seed) {
  std::vector<float> flat;
  Rng rng(seed);
  for (uint32_t i = 0; i < num * dim; ++i) {
    flat.push_back(static_cast<float>(rng.NextGaussian()));
  }
  const Dataset data(num, dim, flat);
  return SQ8Codec::Train(data).Encode(data);
}

TEST(FormatFuzzTest, QuantizedCodes) {
  Target target;
  target.seeds = {SerializeQuantized(SeedCodes(3, 5, 1)),
                  SerializeQuantized(SeedCodes(2, 70, 2))};
  target.fields = {12, 16, 20};
  target.header_bytes = kQuantizedHeaderBytes;
  target.sections = [](const std::string& b) -> std::vector<uint64_t> {
    const uint64_t num = GetU32(b, 12), dim = GetU32(b, 16);
    return {dim * 4, dim * 4, num * GetU32(b, 20)};
  };
  target.check = [](const std::string& bytes) {
    const StatusOr<QuantizedDataset> parsed = DeserializeQuantized(bytes);
    ExpectRejectedOrCanonical<QuantizedDataset>(parsed, bytes,
                                                SerializeQuantized);
    if (!parsed.ok()) return;
    for (uint32_t d = 0; d < parsed->dim(); ++d) {
      ASSERT_TRUE(std::isfinite(parsed->scales()[d]) &&
                  parsed->scales()[d] >= 0.0f);
      ASSERT_FALSE(std::isnan(parsed->mins()[d]));
    }
  };
  Fuzz("sq8_codes", target,
       [&](std::string* b) { ResealSections(target, b); });
}

TEST(FormatFuzzTest, GenerationManifest) {
  GenerationManifest a{12, 3, 41, 907, 0xDEADBEEFCAFEull};
  GenerationManifest b{4, 1, 0, 0, 7};
  Target target;
  target.seeds = {SerializeGenerationManifest(a),
                  SerializeGenerationManifest(b)};
  target.fields = {8, 12, 16, 20, 28, 32};
  target.header_bytes = kGenManifestBytes;
  target.sections = [](const std::string&) { return std::vector<uint64_t>{}; };
  target.check = [](const std::string& bytes) {
    ExpectRejectedOrCanonical<GenerationManifest>(
        DeserializeGenerationManifest(bytes), bytes,
        SerializeGenerationManifest);
  };
  Fuzz("generation_manifest", target,
       [&](std::string* b) { ResealSections(target, b); });
}

std::string WalImage(const std::vector<MutationRecord>& records) {
  std::string log = SerializeWalHeader(kWalDim);
  for (const MutationRecord& record : records) {
    log += SerializeWalRecord(record);
  }
  return log;
}

TEST(FormatFuzzTest, WriteAheadLog) {
  Target target;
  target.seeds = {
      WalImage({{MutationKind::kAdd, 0, 0, 0, {1.0f, 2.0f, 3.0f}},
                {MutationKind::kRemove, 0, 0, 0, {}},
                {MutationKind::kCommit, 0, 1, 1, {}},
                {MutationKind::kAdd, 1, 0, 0, {-1.0f, 0.5f, 8.0f}}}),
      WalImage({{MutationKind::kCompact, 2, 0, 0, {}},
                {MutationKind::kCommit, 0, 5, 9, {}},
                {MutationKind::kAdd, 9, 0, 0, {0.0f, 0.0f, 0.0f}},
                {MutationKind::kCommit, 0, 6, 10, {}}})};
  // dim, then the first frame's payload length.
  target.fields = {12, kWalHeaderBytes};
  target.check = [](const std::string& bytes) {
    const StatusOr<WalReplay> replayed = ReplayMutationLog(bytes, kWalDim);
    if (!replayed.ok()) {
      // Only a valid header of another version or dimension is an error.
      ASSERT_TRUE(replayed.status().IsNotSupported() ||
                  replayed.status().IsInvalidArgument())
          << replayed.status().ToString();
      return;
    }
    const WalReplay& replay = *replayed;
    ASSERT_LE(replay.committed_bytes, replay.valid_bytes);
    ASSERT_LE(replay.valid_bytes, bytes.size());
    ASSERT_EQ(replay.truncated_tail, replay.valid_bytes != bytes.size());
    if (replay.committed_bytes == 0) {
      ASSERT_TRUE(replay.records.empty());
      return;
    }
    // The committed prefix is exactly the leading bytes of the log, and it
    // ends at the commit whose watermark the replay reports.
    ASSERT_EQ(WalImage(replay.records),
              bytes.substr(0, replay.committed_bytes));
    if (!replay.records.empty()) {
      const MutationRecord& last = replay.records.back();
      ASSERT_EQ(last.kind, MutationKind::kCommit);
      ASSERT_EQ(last.generation, replay.generation);
      ASSERT_EQ(last.next_id, replay.next_id);
    }
  };
  Fuzz("wal", target, ResealWalFrames);
}

}  // namespace
}  // namespace weavess
