#include "quant/quant_io.h"

#include <cstring>

#include "core/check.h"

namespace weavess {

namespace {

constexpr Prologue kPrologue{
    .magic = {kQuantizedMagic, sizeof(kQuantizedMagic)},
    .name = "quantized-codes file",
    .bytes = kQuantizedHeaderBytes,
    .min_version = kQuantizedFormatVersion,
    .max_version = kQuantizedFormatVersion};

// Shared by DeserializeQuantized and VerifyQuantizedBytes: structural
// validation of the whole byte buffer into `info`. With `verify`, every
// section lands in info->sections; with `codes_out`, the codes are
// materialized.
Status ParseQuantized(std::string_view bytes, bool verify,
                      QuantFileReport* info, QuantizedDataset* codes_out) {
  WEAVESS_ASSIGN_OR_RETURN(
      info->version,
      CheckPrologue(bytes, kPrologue, verify ? &info->sections : nullptr));
  const uint32_t num = info->num = GetU32(bytes, 12);
  const uint32_t dim = info->dim = GetU32(bytes, 16);
  const uint32_t stride = info->code_stride = GetU32(bytes, 20);
  if (dim == 0 || dim > kMaxQuantizedDim) {
    return CorruptionAt(16, "dimension " + std::to_string(dim) +
                                " outside [1, " +
                                std::to_string(kMaxQuantizedDim) + "]");
  }
  if (stride != QuantizedDataset::PaddedStride(dim)) {
    return CorruptionAt(
        20, "code stride " + std::to_string(stride) + " does not match " +
                std::to_string(QuantizedDataset::PaddedStride(dim)) +
                " (dim " + std::to_string(dim) + " padded to alignment)");
  }
  // The code matrix must fit in the file before num * stride is trusted
  // (stride >= 64 once validated, so the division is safe).
  if (num > bytes.size() / stride) {
    return CorruptionAt(12, "code count " + std::to_string(num) +
                                " cannot fit in a " +
                                std::to_string(bytes.size()) + "-byte file");
  }
  const uint64_t floats_len = uint64_t{dim} * 4;
  const uint64_t codes_len = uint64_t{num} * stride;
  const uint64_t mins_begin = kQuantizedHeaderBytes;
  const uint64_t scales_begin = mins_begin + floats_len + 4;
  const uint64_t codes_begin = scales_begin + floats_len + 4;
  WEAVESS_RETURN_IF_ERROR(CheckSections(
      bytes, mins_begin,
      {{"mins", floats_len}, {"scales", floats_len}, {"codes", codes_len}},
      verify ? &info->sections : nullptr));

  // Scales must be non-negative finite reals — a negative or NaN scale
  // would silently invert or poison every distance.
  AlignedFloatVector mins(dim), scales(dim);
  for (uint32_t d = 0; d < dim; ++d) {
    const uint64_t scale_pos = scales_begin + uint64_t{d} * 4;
    scales[d] = GetF32(bytes, scale_pos);
    if (!(scales[d] >= 0.0f) || scales[d] > 3.0e38f) {
      return CorruptionAt(scale_pos,
                          "scale for dimension " + std::to_string(d) +
                              " is not a non-negative finite float");
    }
    const uint64_t min_pos = mins_begin + uint64_t{d} * 4;
    mins[d] = GetF32(bytes, min_pos);
    if (mins[d] != mins[d]) {
      return CorruptionAt(min_pos,
                          "min for dimension " + std::to_string(d) + " is NaN");
    }
  }

  if (codes_out != nullptr) {
    AlignedByteVector code_bytes(codes_len);
    std::memcpy(code_bytes.data(), bytes.data() + codes_begin, codes_len);
    *codes_out = QuantizedDataset(num, dim, std::move(code_bytes),
                                  std::move(mins), std::move(scales));
  }
  return Status::OK();
}

}  // namespace

bool IsQuantizedBytes(std::string_view bytes) {
  return HasMagic(bytes, kPrologue.magic);
}

std::string SerializeQuantized(const QuantizedDataset& codes) {
  WEAVESS_CHECK(codes.dim() >= 1 && codes.dim() <= kMaxQuantizedDim &&
                "only non-degenerate code matrices serialize");
  SectionWriter out;
  out.Reserve(kQuantizedHeaderBytes + uint64_t{codes.dim()} * 8 +
              codes.raw().size() + 12);
  out.PutBytes(kPrologue.magic);
  out.PutU32(kQuantizedFormatVersion);
  out.PutU32(codes.size());
  out.PutU32(codes.dim());
  out.PutU32(codes.code_stride());
  out.EndSection();

  for (uint32_t d = 0; d < codes.dim(); ++d) out.PutF32(codes.mins()[d]);
  out.EndSection();

  for (uint32_t d = 0; d < codes.dim(); ++d) out.PutF32(codes.scales()[d]);
  out.EndSection();

  // Padding included — the stride is part of the format.
  out.PutBytes({reinterpret_cast<const char*>(codes.CodeBase()),
                codes.raw().size()});
  out.EndSection();
  return std::move(out).Take();
}

StatusOr<QuantizedDataset> DeserializeQuantized(std::string_view bytes) {
  QuantFileReport info;
  QuantizedDataset codes;
  WEAVESS_RETURN_IF_ERROR(ParseQuantized(bytes, false, &info, &codes));
  return codes;
}

Status SaveQuantizedToWriter(const QuantizedDataset& codes, Writer& writer) {
  const std::string bytes = SerializeQuantized(codes);
  WEAVESS_RETURN_IF_ERROR(writer.Append(bytes.data(), bytes.size()));
  return writer.Close();
}

StatusOr<QuantizedDataset> LoadQuantizedFromReader(Reader& reader) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadAll(reader, &bytes));
  return DeserializeQuantized(bytes);
}

Status SaveQuantized(const QuantizedDataset& codes, const std::string& path) {
  StdioWriter writer;
  WEAVESS_RETURN_IF_ERROR(writer.Open(path));
  return SaveQuantizedToWriter(codes, writer);
}

StatusOr<QuantizedDataset> LoadQuantized(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeQuantized(bytes);
}

QuantFileReport VerifyQuantizedBytes(std::string_view bytes) {
  QuantFileReport report;
  report.status = ParseQuantized(bytes, true, &report, nullptr);
  return report;
}

}  // namespace weavess
