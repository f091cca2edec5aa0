#include "core/graph_io.h"

#include "core/check.h"

namespace weavess {

namespace {

constexpr Prologue kPrologue{
    .magic = {kGraphMagic, sizeof(kGraphMagic)},
    .name = "graph file",
    .bytes = kGraphHeaderBytes,
    .min_version = kGraphFormatVersion,
    .max_version = kGraphFormatVersion,
    .magic_note = ", or a pre-versioning legacy file"};

// Shared by DeserializeGraph and VerifyGraphBytes: structural validation of
// the whole byte buffer into `info`. With `verify`, every section lands in
// info->sections; with `graph_out`, the adjacency lists are materialized.
Status ParseGraph(std::string_view bytes, bool verify, GraphFileReport* info,
                  Graph* graph_out) {
  WEAVESS_ASSIGN_OR_RETURN(
      info->version,
      CheckPrologue(bytes, kPrologue, verify ? &info->sections : nullptr));
  const uint32_t n = info->num_vertices = GetU32(bytes, 12);
  const uint64_t e = info->num_edges = GetU64(bytes, 16);
  const uint32_t metadata_len = GetU32(bytes, 24);
  if (metadata_len > kMaxGraphMetadataBytes) {
    return CorruptionAt(24, "metadata length " +
                                std::to_string(metadata_len) +
                                " exceeds the " +
                                std::to_string(kMaxGraphMetadataBytes) +
                                "-byte cap");
  }
  // A hostile u64 edge count must not wrap e * 4 into a plausible size.
  if (e > bytes.size() / 4) {
    return CorruptionAt(16, "edge count " + std::to_string(e) +
                                " cannot fit in a " +
                                std::to_string(bytes.size()) + "-byte file");
  }
  const uint64_t offsets_begin = kGraphHeaderBytes;
  const uint64_t payload_begin = offsets_begin + (uint64_t{n} + 1) * 8 + 4;
  const uint64_t metadata_begin = payload_begin + e * 4 + 4;
  WEAVESS_RETURN_IF_ERROR(CheckSections(
      bytes, offsets_begin,
      {{"offsets", (uint64_t{n} + 1) * 8},
       {"payload", e * 4},
       {"metadata", metadata_len}},
      verify ? &info->sections : nullptr));

  // Offset table: offsets[0] == 0, non-decreasing, offsets[n] == num_edges.
  uint64_t prev = GetU64(bytes, offsets_begin);
  if (prev != 0) {
    return CorruptionAt(offsets_begin,
                        "adjacency offsets must start at 0, found " +
                            std::to_string(prev));
  }
  for (uint64_t v = 1; v <= n; ++v) {
    const uint64_t pos = offsets_begin + v * 8;
    const uint64_t cur = GetU64(bytes, pos);
    if (cur < prev) {
      return CorruptionAt(pos, "adjacency offsets decrease (" +
                                   std::to_string(cur) + " after " +
                                   std::to_string(prev) + ")");
    }
    prev = cur;
  }
  if (prev != e) {
    return CorruptionAt(offsets_begin + uint64_t{n} * 8,
                        "adjacency offsets end at " + std::to_string(prev) +
                            " but the header promises " + std::to_string(e) +
                            " edges");
  }

  // Payload: every neighbor id must be a valid vertex.
  for (uint64_t i = 0; i < e; ++i) {
    const uint64_t pos = payload_begin + i * 4;
    const uint32_t id = GetU32(bytes, pos);
    if (id >= n) {
      return CorruptionAt(pos, "neighbor id " + std::to_string(id) +
                                   " out of range for " + std::to_string(n) +
                                   " vertices");
    }
  }

  info->metadata.assign(bytes.data() + metadata_begin, metadata_len);

  if (graph_out != nullptr) {
    Graph graph(n);
    for (uint32_t v = 0; v < n; ++v) {
      const uint64_t begin = GetU64(bytes, offsets_begin + v * 8);
      const uint64_t end = GetU64(bytes, offsets_begin + (v + 1) * 8);
      auto& list = graph.MutableNeighbors(v);
      list.reserve(end - begin);
      for (uint64_t i = begin; i < end; ++i) {
        list.push_back(GetU32(bytes, payload_begin + i * 4));
      }
    }
    *graph_out = std::move(graph);
  }
  return Status::OK();
}

}  // namespace

std::string SerializeGraph(const Graph& graph, std::string_view metadata) {
  WEAVESS_CHECK(metadata.size() <= kMaxGraphMetadataBytes);
  const uint32_t n = graph.size();
  const uint64_t e = graph.NumEdges();

  SectionWriter out;
  out.Reserve(kGraphHeaderBytes + (uint64_t{n} + 1) * 8 + e * 4 +
              metadata.size() + 12);
  out.PutBytes(kPrologue.magic);
  out.PutU32(kGraphFormatVersion);
  out.PutU32(n);
  out.PutU64(e);
  out.PutU32(static_cast<uint32_t>(metadata.size()));
  out.EndSection();

  uint64_t running = 0;
  out.PutU64(running);
  for (uint32_t v = 0; v < n; ++v) {
    running += graph.Neighbors(v).size();
    out.PutU64(running);
  }
  out.EndSection();

  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t id : graph.Neighbors(v)) out.PutU32(id);
  }
  out.EndSection();

  out.PutBytes(metadata);
  out.EndSection();
  return std::move(out).Take();
}

StatusOr<Graph> DeserializeGraph(std::string_view bytes,
                                 std::string* metadata) {
  GraphFileReport info;
  Graph graph;
  WEAVESS_RETURN_IF_ERROR(ParseGraph(bytes, false, &info, &graph));
  if (metadata != nullptr) *metadata = std::move(info.metadata);
  return graph;
}

Status SaveGraphToWriter(const Graph& graph, std::string_view metadata,
                         Writer& writer) {
  const std::string bytes = SerializeGraph(graph, metadata);
  WEAVESS_RETURN_IF_ERROR(writer.Append(bytes.data(), bytes.size()));
  return writer.Close();
}

StatusOr<Graph> LoadGraphFromReader(Reader& reader, std::string* metadata) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadAll(reader, &bytes));
  return DeserializeGraph(bytes, metadata);
}

Status SaveGraph(const Graph& graph, const std::string& path,
                 std::string_view metadata) {
  StdioWriter writer;
  WEAVESS_RETURN_IF_ERROR(writer.Open(path));
  return SaveGraphToWriter(graph, metadata, writer);
}

StatusOr<Graph> LoadGraph(const std::string& path, std::string* metadata) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeGraph(bytes, metadata);
}

GraphFileReport VerifyGraphBytes(std::string_view bytes) {
  GraphFileReport report;
  report.status = ParseGraph(bytes, true, &report, nullptr);
  return report;
}

GraphFileReport VerifyGraphFile(const std::string& path) {
  std::string bytes;
  const Status read = ReadFileToString(path, &bytes);
  if (!read.ok()) {
    GraphFileReport report;
    report.status = read;
    return report;
  }
  return VerifyGraphBytes(bytes);
}

}  // namespace weavess
