// One corruption suite over every checksummed on-disk format
// (docs/PERSISTENCE.md): graph files, shard manifests, replica-set
// manifests, SQ8 codes and generation manifests. Each format gives a small
// valid file and its parser; the suite damages the file every way a disk
// can — each bit flipped, each truncation, appended garbage, a future
// version — and requires the typed Status: kCorruption for damage,
// kNotSupported for a version this build does not read. Formats with
// Reader/Writer entry points also face short reads, a read failure, and
// a write failure at every capacity. The write-ahead log is not here: a bad
// frame ends replay instead of failing it (mutation_test.cc).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/file_io.h"
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

using ::weavess::testing::FailingReader;
using ::weavess::testing::FaultyWriter;
using ::weavess::testing::FlipBit;
using ::weavess::testing::PatchU32;
using ::weavess::testing::ResealCrc;
using ::weavess::testing::ShortReadReader;
using ::weavess::testing::TruncateAt;

struct Format {
  std::string name;
  /// A small valid file.
  std::string bytes;
  /// Runs the format's deserializer.
  std::function<Status(std::string_view)> parse;
  /// Prologue length including its CRC, and where the u32 version sits.
  size_t header_bytes = 0;
  size_t version_offset = 8;
  /// The first version this build does not read.
  uint32_t unsupported_version = 0;
  /// Reader/Writer entry points, set only for the formats that have them:
  /// `load` returns the loaded value serialized again, `save` writes it.
  std::function<StatusOr<std::string>(Reader&)> load;
  std::function<Status(Writer&)> save;
};

void PrintTo(const Format& format, std::ostream* os) { *os << format.name; }

template <typename T>
Status StatusOf(const StatusOr<T>& result) {
  return result.ok() ? Status::OK() : result.status();
}

Graph SmallGraph() {
  Graph graph(6);
  for (auto [from, to] : {std::pair{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 5},
                          {4, 0}, {5, 1}}) {
    graph.AddEdge(from, to);
  }
  return graph;
}

// Tiny on purpose: the every-bit-flip sweep is O(bytes * parse), and a 5x6
// code block still crosses every section boundary.
QuantizedDataset SmallCodes() {
  std::vector<float> flat;
  Rng rng(77);
  for (uint32_t i = 0; i < 5 * 6; ++i) {
    flat.push_back(static_cast<float>(rng.NextGaussian()) * 3.0f);
  }
  Dataset data(5, 6, flat);
  return SQ8Codec::Train(data).Encode(data);
}

ShardManifest SmallManifest() {
  ShardManifest manifest;
  manifest.algorithm = "HNSW";
  manifest.partitioner = "random";
  manifest.options.seed = 77;
  manifest.total_vertices = 6;
  manifest.shards = {{"a.shard0.wvs", {0, 2, 4}}, {"a.shard1.wvs", {1, 3, 5}}};
  return manifest;
}

ReplicaManifest SmallReplicaManifest() {
  ReplicaManifest manifest;
  manifest.replicas = {{"r0.wvs", ReplicaManifest::Kind::kGraph, 1},
                       {"r1.manifest", ReplicaManifest::Kind::kShardManifest,
                        2}};
  return manifest;
}

Format GraphFormat() {
  Format f;
  f.name = "graph";
  f.bytes = SerializeGraph(SmallGraph(), "meta");
  f.parse = [](std::string_view b) { return StatusOf(DeserializeGraph(b)); };
  f.header_bytes = kGraphHeaderBytes;
  f.unsupported_version = kGraphFormatVersion + 1;
  f.load = [](Reader& reader) -> StatusOr<std::string> {
    std::string metadata;
    WEAVESS_ASSIGN_OR_RETURN(Graph graph,
                             LoadGraphFromReader(reader, &metadata));
    return SerializeGraph(graph, metadata);
  };
  f.save = [](Writer& writer) {
    return SaveGraphToWriter(SmallGraph(), "meta", writer);
  };
  return f;
}

Format ShardManifestFormat() {
  Format f;
  f.name = "shard_manifest";
  f.bytes = SerializeManifest(SmallManifest());
  f.parse = [](std::string_view b) {
    return StatusOf(DeserializeManifest(b));
  };
  f.header_bytes = kManifestHeaderBytes;
  f.unsupported_version = kManifestFormatVersion + 1;
  return f;
}

Format ReplicaManifestFormat() {
  Format f;
  f.name = "replica_manifest";
  f.bytes = SerializeReplicaManifest(SmallReplicaManifest());
  f.parse = [](std::string_view b) {
    return StatusOf(DeserializeReplicaManifest(b));
  };
  f.header_bytes = kReplicaManifestHeaderBytes;
  f.version_offset = 9;
  f.unsupported_version = kReplicaManifestFormatVersion + 1;
  return f;
}

Format QuantizedFormat() {
  Format f;
  f.name = "sq8_codes";
  f.bytes = SerializeQuantized(SmallCodes());
  f.parse = [](std::string_view b) {
    return StatusOf(DeserializeQuantized(b));
  };
  f.header_bytes = kQuantizedHeaderBytes;
  f.unsupported_version = kQuantizedFormatVersion + 1;
  f.load = [](Reader& reader) -> StatusOr<std::string> {
    WEAVESS_ASSIGN_OR_RETURN(QuantizedDataset codes,
                             LoadQuantizedFromReader(reader));
    return SerializeQuantized(codes);
  };
  f.save = [](Writer& writer) {
    return SaveQuantizedToWriter(SmallCodes(), writer);
  };
  return f;
}

Format GenerationManifestFormat() {
  GenerationManifest manifest;
  manifest.dim = 12;
  manifest.num_shards = 3;
  manifest.generation = 41;
  manifest.next_id = 907;
  manifest.seed = 0xDEADBEEFCAFEull;
  Format f;
  f.name = "generation_manifest";
  f.bytes = SerializeGenerationManifest(manifest);
  f.parse = [](std::string_view b) {
    return StatusOf(DeserializeGenerationManifest(b));
  };
  f.header_bytes = kGenManifestBytes;
  f.unsupported_version = kGenManifestVersion + 1;
  return f;
}

std::string FormatName(const ::testing::TestParamInfo<Format>& info) {
  return info.param.name;
}

class FormatCorruptionTest : public ::testing::TestWithParam<Format> {};

TEST_P(FormatCorruptionTest, ValidFileParses) {
  const Status status = GetParam().parse(GetParam().bytes);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_P(FormatCorruptionTest, EveryBitFlipIsCorruption) {
  // CRC coverage is total: a flip anywhere — magic, version, counts, CRCs
  // themselves, payload — is caught before anything is trusted.
  const Format& format = GetParam();
  for (size_t bit = 0; bit < format.bytes.size() * 8; ++bit) {
    const Status status = format.parse(FlipBit(format.bytes, bit));
    ASSERT_TRUE(status.IsCorruption())
        << "bit " << bit << ": " << status.ToString();
  }
}

TEST_P(FormatCorruptionTest, TruncationAtEveryLengthIsCorruption) {
  // Every proper prefix fails, which covers every section boundary.
  const Format& format = GetParam();
  for (size_t length = 0; length < format.bytes.size(); ++length) {
    const Status status = format.parse(TruncateAt(format.bytes, length));
    ASSERT_TRUE(status.IsCorruption())
        << "prefix of " << length << " bytes: " << status.ToString();
  }
}

TEST_P(FormatCorruptionTest, AppendedGarbageIsCorruption) {
  for (const std::string& garbage :
       {std::string(1, '\0'), std::string("trailing garbage")}) {
    const Status status = GetParam().parse(GetParam().bytes + garbage);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  }
}

TEST_P(FormatCorruptionTest, UnsupportedVersionIsNotSupported) {
  // Forge the next version and re-stamp the header CRC, so the version
  // check itself is what objects.
  const Format& format = GetParam();
  std::string bytes = format.bytes;
  PatchU32(&bytes, format.version_offset, format.unsupported_version);
  ResealCrc(&bytes, 0, format.header_bytes - 4);
  const Status status = format.parse(bytes);
  EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(AllFormats, FormatCorruptionTest,
                         ::testing::Values(GraphFormat(),
                                           ShardManifestFormat(),
                                           ReplicaManifestFormat(),
                                           QuantizedFormat(),
                                           GenerationManifestFormat()),
                         FormatName);

// The formats with Reader/Writer entry points (fault-injectable streams).
class StreamedFormatTest : public ::testing::TestWithParam<Format> {};

TEST_P(StreamedFormatTest, ShortReadsLoadTheSameBytes) {
  const Format& format = GetParam();
  for (size_t chunk : {1ul, 3ul, 7ul, 64ul}) {
    ShortReadReader reader(format.bytes, chunk);
    StatusOr<std::string> loaded = format.load(reader);
    ASSERT_TRUE(loaded.ok()) << "chunk " << chunk << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(*loaded, format.bytes) << "chunk " << chunk;
  }
}

TEST_P(StreamedFormatTest, MidStreamReadFailureIsIOError) {
  const Format& format = GetParam();
  FailingReader reader(format.bytes, format.bytes.size() / 2);
  const Status status = StatusOf(format.load(reader));
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST_P(StreamedFormatTest, FailedWriteIsIOErrorAtEveryCapacity) {
  // A deterministic ENOSPC at every byte capacity: Save reports kIOError,
  // and a writer with room for the file holds exactly the file.
  const Format& format = GetParam();
  for (size_t capacity = 0; capacity < format.bytes.size(); ++capacity) {
    FaultyWriter writer(capacity);
    const Status status = format.save(writer);
    ASSERT_TRUE(status.IsIOError())
        << "capacity " << capacity << ": " << status.ToString();
  }
  FaultyWriter writer(format.bytes.size());
  ASSERT_TRUE(format.save(writer).ok());
  EXPECT_EQ(writer.bytes(), format.bytes);
}

INSTANTIATE_TEST_SUITE_P(StreamedFormats, StreamedFormatTest,
                         ::testing::Values(GraphFormat(), QuantizedFormat()),
                         FormatName);

// ------------------------------------- counts that drive allocations

// A header count is read before the body that must hold its entries. With
// the CRCs re-stamped, a forged count gets past every checksum, so only
// the count's own bound stands between it and a multi-gigabyte resize.
TEST(FormatCountTest, ForgedReplicaCountIsCorruption) {
  std::string bytes = SerializeReplicaManifest(SmallReplicaManifest());
  for (uint32_t count : {3u, 1000u, 0xFFFFFFFFu}) {
    PatchU32(&bytes, 13, count);
    ResealCrc(&bytes, 0, kReplicaManifestHeaderBytes - 4);
    const Status status = StatusOf(DeserializeReplicaManifest(bytes));
    EXPECT_TRUE(status.IsCorruption()) << count << ": " << status.ToString();
  }
}

TEST(FormatCountTest, ForgedShardAndRowCountsAreCorruption) {
  const std::string valid = SerializeManifest(SmallManifest());
  for (size_t field : {12u, 16u}) {  // num_shards, total_vertices
    for (uint32_t count : {7u, 1000u, 0xFFFFFFFFu}) {
      std::string bytes = valid;
      PatchU32(&bytes, field, count);
      ResealCrc(&bytes, 0, kManifestHeaderBytes - 4);
      const Status status = StatusOf(DeserializeManifest(bytes));
      EXPECT_TRUE(status.IsCorruption())
          << "field " << field << " = " << count << ": "
          << status.ToString();
    }
  }
}

}  // namespace
}  // namespace weavess
