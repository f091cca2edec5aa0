// Golden-byte pins for every on-disk format: for fixed deterministic inputs,
// the length and CRC32C of each serializer's output. The formats are
// byte-defined, so any change to these numbers is a format change — files
// written by older builds would stop loading — and must come with a version
// bump, not a silent re-pin. Also reads a hand-built version-1 shard
// manifest (no generation field), the one backward-compatible reader path.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/aligned.h"
#include "core/crc32c.h"
#include "core/graph.h"
#include "core/graph_io.h"
#include "fault_injection.h"
#include "quant/quant_io.h"
#include "quant/sq8.h"
#include "shard/manifest.h"
#include "shard/mutation_log.h"
#include "shard/replica_manifest.h"

namespace weavess {
namespace {

using ::weavess::testing::PatchU32;

struct Fingerprint {
  size_t length;
  uint32_t crc;
  bool operator==(const Fingerprint&) const = default;
};

void PrintTo(const Fingerprint& f, std::ostream* os) {
  *os << "{" << f.length << ", 0x" << std::hex << f.crc << std::dec << "}";
}

// The CRC runs over a fixed prefix and then the output: a CRC32C taken over
// bytes that end in their own CRC32C (the WAL header, the generation
// manifest) is the constant residue 0x48674bc7 whatever the content, and
// would pin nothing.
Fingerprint Of(const std::string& bytes) {
  return {bytes.size(),
          Crc32cExtend(Crc32c("golden", 6), bytes.data(), bytes.size())};
}

Graph GoldenGraph() {
  Graph graph(6);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 3);
  graph.AddEdge(2, 4);
  graph.AddEdge(3, 5);
  graph.AddEdge(4, 0);
  graph.AddEdge(5, 1);
  return graph;
}

ShardManifest GoldenManifest() {
  ShardManifest manifest;
  manifest.algorithm = "HNSW";
  manifest.partitioner = "kmeans";
  manifest.generation = 7;
  manifest.options.seed = 77;
  manifest.options.knng_degree = 10;
  manifest.options.max_degree = 12;
  manifest.options.build_pool = 40;
  manifest.options.nn_descent_iters = 3;
  manifest.options.num_trees = 4;
  manifest.options.num_seeds = 5;
  manifest.options.alpha = 1.25f;
  manifest.options.angle_degrees = 60.0f;
  manifest.options.num_shards = 2;
  manifest.options.partitioner = "kmeans";
  manifest.total_vertices = 6;
  manifest.shards = {{"a.shard0.wvs", {0, 2, 4}}, {"a.shard1.wvs", {1, 3, 5}}};
  return manifest;
}

QuantizedDataset GoldenCodes() {
  constexpr uint32_t kNum = 3, kDim = 5;
  const uint32_t stride = QuantizedDataset::PaddedStride(kDim);
  AlignedByteVector codes(kNum * stride, 0);
  for (uint32_t i = 0; i < kNum; ++i) {
    for (uint32_t d = 0; d < kDim; ++d) {
      codes[i * stride + d] = static_cast<uint8_t>(i * 16 + d * 3);
    }
  }
  AlignedFloatVector mins = {-1.5f, 0.0f, 0.25f, 2.0f, -3.0f};
  AlignedFloatVector scales = {0.5f, 0.125f, 0.0625f, 1.0f, 0.75f};
  return QuantizedDataset(kNum, kDim, std::move(codes), std::move(mins),
                          std::move(scales));
}

TEST(FormatGoldenTest, GraphBytesArePinned) {
  EXPECT_EQ(Of(SerializeGraph(GoldenGraph(), "HNSW max_degree=30")),
            (Fingerprint{146, 0x78889a3b}));
  EXPECT_EQ(Of(SerializeGraph(GoldenGraph())), (Fingerprint{128, 0x30cc90c7}));
  EXPECT_EQ(Of(SerializeGraph(Graph(0))), (Fingerprint{52, 0x5cd5ea67}));
}

TEST(FormatGoldenTest, ShardManifestBytesArePinned) {
  EXPECT_EQ(Of(SerializeManifest(GoldenManifest())),
            (Fingerprint{162, 0x1424c08f}));
}

TEST(FormatGoldenTest, ReplicaManifestBytesArePinned) {
  ReplicaManifest manifest;
  manifest.replicas = {
      {"graphs/r0.wvs", ReplicaManifest::Kind::kGraph, 0xdeadbeefu},
      {"shards/r1.manifest", ReplicaManifest::Kind::kShardManifest, 42u}};
  EXPECT_EQ(Of(SerializeReplicaManifest(manifest)),
            (Fingerprint{78, 0xec1a8219}));
}

TEST(FormatGoldenTest, QuantizedBytesArePinned) {
  EXPECT_EQ(Of(SerializeQuantized(GoldenCodes())),
            (Fingerprint{272, 0xaa5ee8cf}));
}

TEST(FormatGoldenTest, WalBytesArePinned) {
  EXPECT_EQ(Of(SerializeWalHeader(4)), (Fingerprint{20, 0xd4a01381}));
  EXPECT_EQ(Of(SerializeWalRecord(
                {MutationKind::kAdd, 9, 0, 0, {0.5f, -1.0f, 2.25f, 3.0f}})),
            (Fingerprint{29, 0x08eff401}));
  EXPECT_EQ(Of(SerializeWalRecord({MutationKind::kRemove, 3, 0, 0, {}})),
            (Fingerprint{13, 0xc8b0f233}));
  EXPECT_EQ(Of(SerializeWalRecord({MutationKind::kCompact, 1, 0, 0, {}})),
            (Fingerprint{13, 0x7a659b92}));
  EXPECT_EQ(Of(SerializeWalRecord({MutationKind::kCommit, 0, 12, 10, {}})),
            (Fingerprint{21, 0x59e9bf14}));
}

TEST(FormatGoldenTest, GenerationManifestBytesArePinned) {
  GenerationManifest manifest;
  manifest.dim = 12;
  manifest.num_shards = 3;
  manifest.generation = 41;
  manifest.next_id = 907;
  manifest.seed = 0xDEADBEEFCAFEull;
  EXPECT_EQ(Of(SerializeGenerationManifest(manifest)),
            (Fingerprint{44, 0x77d6ffc9}));
}

TEST(FormatGoldenTest, VersionOneShardManifestStillLoads) {
  // A v1 manifest is the v2 one without the u64 generation that follows
  // the algorithm and partitioner strings. Build it by hand from the v2
  // bytes: drop those 8 body bytes, then fix version, body length and
  // both CRCs.
  ShardManifest expected = GoldenManifest();
  expected.generation = 0;
  const std::string v2 = SerializeManifest(expected);
  const size_t header = kManifestHeaderBytes;
  const size_t generation_at = header + 4 + expected.algorithm.size() + 4 +
                               expected.partitioner.size();
  std::string v1 = v2.substr(0, generation_at) +
                   v2.substr(generation_at + 8, v2.size() - 4 -
                                                    (generation_at + 8));
  const uint32_t body_len = static_cast<uint32_t>(v1.size() - header);
  PatchU32(&v1, 8, 1);
  PatchU32(&v1, 20, body_len);
  PatchU32(&v1, header - 4, Crc32c(v1.data(), header - 4));
  v1.resize(v1.size() + 4);
  PatchU32(&v1, header + body_len, Crc32c(v1.data() + header, body_len));

  StatusOr<ShardManifest> loaded = DeserializeManifest(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 0u);
  EXPECT_EQ(loaded->algorithm, "HNSW");
  EXPECT_EQ(loaded->partitioner, "kmeans");
  EXPECT_EQ(loaded->options.seed, 77u);
  EXPECT_EQ(loaded->options.alpha, 1.25f);
  ASSERT_EQ(loaded->shards.size(), 2u);
  EXPECT_EQ(loaded->shards[1].ids, (std::vector<uint32_t>{1, 3, 5}));
  // Every v1 field lands where v2 keeps it: re-saving writes the v2 file.
  EXPECT_EQ(SerializeManifest(*loaded), v2);
}

}  // namespace
}  // namespace weavess
