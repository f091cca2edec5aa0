// Round-trip, diagnostic and structural tests for the versioned on-disk
// formats (WVSGRPH1 graphs, shard manifests, WVSSQNT1 quantized codes).
// The damage matrix every format shares — bit flips, truncation, appended
// garbage, future versions, short reads, failed writes — lives in
// format_corruption_test.cc.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "core/file_io.h"
#include "core/graph.h"
#include "core/graph_io.h"
#include "core/status.h"
#include "core/rng.h"
#include "fault_injection.h"
#include "quant/quant_io.h"
#include "quant/sq8.h"
#include "search/router.h"
#include "shard/manifest.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::FlipBit;
using ::weavess::testing::MakeTestWorkload;

Graph MakeSmallGraph() {
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

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(PersistenceTest, SerializeDeserializeRoundTripWithMetadata) {
  const Graph graph = MakeSmallGraph();
  const std::string bytes = SerializeGraph(graph, "HNSW max_degree=30");
  std::string metadata;
  StatusOr<Graph> loaded = DeserializeGraph(bytes, &metadata);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(metadata, "HNSW max_degree=30");
  ASSERT_EQ(loaded->size(), graph.size());
  for (uint32_t v = 0; v < graph.size(); ++v) {
    EXPECT_EQ(loaded->Neighbors(v), graph.Neighbors(v));
  }
  // Re-serialization must be bit-identical: the format is canonical.
  EXPECT_EQ(SerializeGraph(*loaded, metadata), bytes);
}

TEST(PersistenceTest, EmptyGraphRoundTrips) {
  const Graph graph(0);
  StatusOr<Graph> loaded = DeserializeGraph(SerializeGraph(graph));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(PersistenceTest, LegacyFormatFileIsCorruption) {
  // The seed-era format began with a raw u32 vertex count — no magic. Any
  // such file must be rejected as corruption, with a hint, never parsed.
  const Graph graph = MakeSmallGraph();
  std::string legacy;
  const uint32_t n = graph.size();
  legacy.append(reinterpret_cast<const char*>(&n), 4);
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t deg = static_cast<uint32_t>(graph.Neighbors(v).size());
    legacy.append(reinterpret_cast<const char*>(&deg), 4);
    legacy.append(reinterpret_cast<const char*>(graph.Neighbors(v).data()),
                  deg * 4);
  }
  StatusOr<Graph> loaded = DeserializeGraph(legacy);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("legacy"), std::string::npos)
      << loaded.status().ToString();

  const GraphFileReport report = VerifyGraphBytes(legacy);
  EXPECT_TRUE(report.status.IsCorruption());
}

TEST(PersistenceTest, CorruptionDiagnosticsCarryByteOffsets) {
  const std::string bytes = SerializeGraph(MakeSmallGraph(), "m");
  // Flip a byte in the adjacency payload (after header + offsets + CRC).
  const size_t payload_start = kGraphHeaderBytes + (6 + 1) * 8 + 4;
  StatusOr<Graph> loaded = DeserializeGraph(FlipBit(bytes, payload_start * 8));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("byte offset"), std::string::npos)
      << loaded.status().ToString();
}

TEST(PersistenceTest, VerifyReportsEverySectionOnCleanFile) {
  const Graph graph = MakeSmallGraph();
  const GraphFileReport report =
      VerifyGraphBytes(SerializeGraph(graph, "algo=NSG"));
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.version, kGraphFormatVersion);
  EXPECT_EQ(report.num_vertices, 6u);
  EXPECT_EQ(report.num_edges, 7u);
  EXPECT_EQ(report.metadata, "algo=NSG");
  ASSERT_EQ(report.sections.size(), 4u);
  for (const SectionReport& section : report.sections) {
    EXPECT_TRUE(section.ok) << section.name;
    EXPECT_EQ(section.stored_crc, section.computed_crc) << section.name;
  }
}

TEST(PersistenceTest, VerifyPinpointsTheBadSection) {
  const std::string bytes = SerializeGraph(MakeSmallGraph(), "meta");
  // Corrupt one metadata byte: the metadata section is the last 4 + 4
  // bytes (payload "meta" + CRC) of the file.
  const size_t metadata_offset = bytes.size() - 8;
  const GraphFileReport report =
      VerifyGraphBytes(FlipBit(bytes, metadata_offset * 8));
  ASSERT_FALSE(report.status.ok());
  EXPECT_TRUE(report.status.IsCorruption());
  ASSERT_EQ(report.sections.size(), 4u);
  EXPECT_TRUE(report.sections[0].ok);   // header
  EXPECT_TRUE(report.sections[1].ok);   // offsets
  EXPECT_TRUE(report.sections[2].ok);   // payload
  EXPECT_FALSE(report.sections[3].ok);  // metadata
}

TEST(PersistenceTest, EveryRegistryAlgorithmRoundTrips) {
  // Save → Load over the graph of every algorithm in the survey: adjacency
  // must be bit-identical and search on the reloaded graph must return
  // exactly the results of the in-memory one.
  const auto tw = MakeTestWorkload(300, 8, 5, 3);
  AlgorithmOptions options;
  options.knng_degree = 10;
  options.max_degree = 10;
  options.build_pool = 30;
  options.nn_descent_iters = 3;
  for (const std::string& name : AlgorithmNames()) {
    SCOPED_TRACE(name);
    auto index = CreateAlgorithm(name, options);
    index->Build(tw.workload.base);
    const Graph& original = index->graph();

    const std::string path = TempPath("roundtrip.wvs");
    ASSERT_TRUE(original.Save(path, name).ok());
    std::string metadata;
    StatusOr<Graph> loaded = Graph::Load(path, &metadata);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(metadata, name);
    std::remove(path.c_str());

    // Bit-identical adjacency.
    ASSERT_EQ(loaded->size(), original.size());
    for (uint32_t v = 0; v < original.size(); ++v) {
      ASSERT_EQ(loaded->Neighbors(v), original.Neighbors(v)) << "vertex " << v;
    }
    EXPECT_EQ(SerializeGraph(*loaded, name), SerializeGraph(original, name));

    // Search over the reloaded graph (same seeds, same routing) must be
    // identical to search over the in-memory graph.
    SearchContext ctx(original.size());
    const std::vector<uint32_t> seeds = {0, 7, 42};
    for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
      const float* query = tw.workload.queries.Row(q);
      std::vector<std::vector<uint32_t>> results;
      const Graph* const graphs[] = {&original, &*loaded};
      for (const Graph* graph : graphs) {
        DistanceCounter counter;
        DistanceOracle oracle(tw.workload.base, &counter);
        ctx.BeginQuery();
        CandidatePool pool(30);
        SeedPool(seeds, query, oracle, ctx, pool);
        BestFirstSearch(*graph, query, oracle, ctx, pool);
        results.push_back(ExtractTopK(pool, 10));
      }
      EXPECT_EQ(results[0], results[1]) << "query " << q;
    }
  }
}

TEST(PersistenceTest, SaveToUnwritablePathIsIOError) {
  const Graph graph = MakeSmallGraph();
  const Status status = graph.Save("/nonexistent-dir/graph.wvs");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(PersistenceTest, LoadMissingFileIsIOError) {
  StatusOr<Graph> loaded = Graph::Load(TempPath("no-such-graph.wvs"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

// ------------------------------------------------- shard manifests

ShardManifest MakeSmallManifest() {
  ShardManifest manifest;
  manifest.algorithm = "HNSW";
  manifest.partitioner = "random";
  manifest.options.seed = 77;
  // Deserialization fills these two from the header/body, so the round
  // trip is canonical only when the input agrees with itself.
  manifest.options.num_shards = 2;
  manifest.options.partitioner = "random";
  manifest.total_vertices = 6;
  manifest.shards.resize(2);
  manifest.shards[0].path = "a.shard0.wvs";
  manifest.shards[0].ids = {0, 2, 4};
  manifest.shards[1].path = "a.shard1.wvs";
  manifest.shards[1].ids = {1, 3, 5};
  return manifest;
}

TEST(PersistenceTest, ShardManifestRoundTripIsCanonical) {
  const ShardManifest manifest = MakeSmallManifest();
  const std::string bytes = SerializeManifest(manifest);
  EXPECT_TRUE(IsManifestBytes(bytes));
  StatusOr<ShardManifest> loaded = DeserializeManifest(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->algorithm, "HNSW");
  EXPECT_EQ(loaded->partitioner, "random");
  EXPECT_EQ(loaded->options.seed, 77u);
  EXPECT_EQ(loaded->total_vertices, 6u);
  ASSERT_EQ(loaded->shards.size(), 2u);
  EXPECT_EQ(loaded->shards[0].path, "a.shard0.wvs");
  EXPECT_EQ(loaded->shards[1].ids, (std::vector<uint32_t>{1, 3, 5}));
  // Re-serialization must be bit-identical: the format is canonical.
  EXPECT_EQ(SerializeManifest(*loaded), bytes);
}

TEST(PersistenceTest, ShardManifestRejectsBrokenShardMaps) {
  // Structurally valid CRCs around semantically broken id maps: every case
  // must be named corruption, not accepted.
  {
    ShardManifest overlap = MakeSmallManifest();
    overlap.shards[1].ids = {1, 3, 4};  // 4 is owned by shard 0
    StatusOr<ShardManifest> loaded =
        DeserializeManifest(SerializeManifest(overlap));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  {
    ShardManifest gap = MakeSmallManifest();
    gap.shards[1].ids = {1, 3};  // row 5 unassigned
    StatusOr<ShardManifest> loaded =
        DeserializeManifest(SerializeManifest(gap));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  {
    ShardManifest range = MakeSmallManifest();
    range.shards[1].ids = {1, 3, 9};  // 9 is out of [0, 6)
    StatusOr<ShardManifest> loaded =
        DeserializeManifest(SerializeManifest(range));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
}

TEST(PersistenceTest, CorruptingEachShardFileDegradesOnlyThatShard) {
  // The per-shard corruption matrix over a real saved index: for every
  // shard in turn, flipping a bit in that shard's file must degrade exactly
  // that shard — named by id and path in its status — while the others keep
  // serving graph search (docs/SHARDING.md failure isolation).
  const auto tw = MakeTestWorkload(400, 8, 8);
  AlgorithmOptions options;
  options.knng_degree = 8;
  options.max_degree = 10;
  options.build_pool = 30;
  options.nn_descent_iters = 2;
  options.num_shards = 3;
  auto built = CreateAlgorithm("Sharded:HNSW", options);
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("shard_matrix");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());

  for (uint32_t victim = 0; victim < 3; ++victim) {
    SCOPED_TRACE("victim shard " + std::to_string(victim));
    const std::string path =
        prefix + ".shard" + std::to_string(victim) + ".wvs";
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
    ASSERT_TRUE(WriteStringToFile(FlipBit(bytes, 123), path).ok());

    auto loaded_or =
        ShardedIndex::Load(prefix + ".manifest", tw.workload.base);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    const ShardedIndex& loaded = **loaded_or;
    EXPECT_EQ(loaded.num_degraded_shards(), 1u);
    for (uint32_t s = 0; s < 3; ++s) {
      if (s == victim) {
        const Status& status = loaded.shard_status(s);
        ASSERT_FALSE(status.ok());
        EXPECT_TRUE(status.IsCorruption()) << status.ToString();
        EXPECT_NE(status.message().find("shard " + std::to_string(victim)),
                  std::string::npos)
            << status.ToString();
        EXPECT_NE(status.message().find(path), std::string::npos)
            << status.ToString();
      } else {
        EXPECT_TRUE(loaded.shard_status(s).ok()) << "shard " << s;
      }
    }
    // Restore the file for the next victim.
    ASSERT_TRUE(WriteStringToFile(bytes, path).ok());
  }
}

// ------------------------------------------ WVSSQNT1 quantized codes --

QuantizedDataset MakeSmallCodes() {
  std::vector<float> flat;
  Rng rng(77);
  for (uint32_t i = 0; i < 5 * 6; ++i) {
    flat.push_back(static_cast<float>(rng.NextGaussian()) * 3.0f);
  }
  Dataset data(5, 6, flat);
  return SQ8Codec::Train(data).Encode(data);
}

TEST(QuantPersistenceTest, SerializeDeserializeRoundTrips) {
  const QuantizedDataset codes = MakeSmallCodes();
  const std::string bytes = SerializeQuantized(codes);
  ASSERT_TRUE(IsQuantizedBytes(bytes));
  StatusOr<QuantizedDataset> loaded = DeserializeQuantized(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), codes.size());
  EXPECT_EQ(loaded->dim(), codes.dim());
  EXPECT_EQ(loaded->code_stride(), codes.code_stride());
  for (uint32_t i = 0; i < codes.size(); ++i) {
    for (uint32_t d = 0; d < codes.dim(); ++d) {
      ASSERT_EQ(loaded->Code(i)[d], codes.Code(i)[d]);
      ASSERT_EQ(loaded->Dequantize(i, d), codes.Dequantize(i, d));
    }
  }
  // Canonical bytes: re-serializing the loaded codes is bit-identical.
  EXPECT_EQ(SerializeQuantized(*loaded), bytes);
}

TEST(QuantPersistenceTest, VerifyReportsEverySectionAndPinpointsTheBad) {
  const std::string bytes = SerializeQuantized(MakeSmallCodes());
  const QuantFileReport clean = VerifyQuantizedBytes(bytes);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  ASSERT_EQ(clean.sections.size(), 4u);
  const char* expected[] = {"header", "mins", "scales", "codes"};
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(clean.sections[s].name, expected[s]);
    EXPECT_TRUE(clean.sections[s].ok);
    EXPECT_EQ(clean.sections[s].stored_crc, clean.sections[s].computed_crc);
  }
  // Corrupt one byte inside the scales payload: verify must keep checking
  // and report exactly that section as bad.
  const size_t scales_byte =
      kQuantizedHeaderBytes + 6 * sizeof(float) + sizeof(uint32_t) + 3;
  const QuantFileReport bad = VerifyQuantizedBytes(FlipBit(bytes,
                                                           scales_byte * 8));
  ASSERT_FALSE(bad.status.ok());
  ASSERT_EQ(bad.sections.size(), 4u);
  EXPECT_TRUE(bad.sections[0].ok);
  EXPECT_TRUE(bad.sections[1].ok);
  EXPECT_FALSE(bad.sections[2].ok);
  EXPECT_TRUE(bad.sections[3].ok);
}

}  // namespace
}  // namespace weavess
