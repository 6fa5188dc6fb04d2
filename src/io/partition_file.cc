#include "io/partition_file.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/hash.h"
#include "common/serialize.h"
#include "runtime/simd.h"

namespace ps3::io {

namespace {

constexpr uint32_t kPartitionMagic = 0x50335350;  // "PS3P"
constexpr uint32_t kPartitionVersion = 2;

constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4;
constexpr size_t kFooterEntryBytes = 1 + 1 + 1 + 8 + 8 + 8 + 8;
constexpr size_t kTrailerBytes = 8 + 4;

struct SegmentMeta {
  uint8_t type = 0;  // 0 = numeric, 1 = categorical
  SegmentEncoding encoding = SegmentEncoding::kRaw;
  uint8_t bit_width = 0;  // bitpack / for_delta packed width (1..32)
  uint64_t offset = 0;
  uint64_t byte_len = 0;  // encoded payload length
  uint64_t checksum = 0;  // over the encoded payload
  int64_t base = 0;       // for_delta frame-of-reference base
};

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Seek-based reader: unlike BinaryReader::FromFile (which slurps the
/// whole file), this touches only the ranges asked for — the point of
/// column pruning is that unrequested segments never leave the disk.
class SeekingFile {
 public:
  ~SeekingFile() {
    if (f_ != nullptr) std::fclose(f_);
  }

  Status Open(const std::string& path) {
    f_ = std::fopen(path.c_str(), "rb");
    if (f_ == nullptr) {
      return Status::NotFound("cannot open '" + path + "'");
    }
    if (std::fseek(f_, 0, SEEK_END) != 0) {
      return Status::Internal("cannot seek '" + path + "'");
    }
    long size = std::ftell(f_);
    if (size < 0) return Status::Internal("cannot size '" + path + "'");
    size_ = static_cast<size_t>(size);
    return Status::OK();
  }

  size_t size() const { return size_; }
  size_t bytes_read() const { return bytes_read_; }

  /// Reads exactly [offset, offset+len) into `out`; fails on any short
  /// read or out-of-bounds range.
  Status ReadAt(uint64_t offset, size_t len, uint8_t* out) {
    if (offset > size_ || len > size_ - offset) {
      return Status::Internal("read range out of bounds");
    }
    if (std::fseek(f_, static_cast<long>(offset), SEEK_SET) != 0) {
      return Status::Internal("seek failed");
    }
    if (len != 0 && std::fread(out, 1, len, f_) != len) {
      return Status::Internal("short read");
    }
    bytes_read_ += len;
    return Status::OK();
  }

 private:
  std::FILE* f_ = nullptr;
  size_t size_ = 0;
  size_t bytes_read_ = 0;
};

/// The spill-time picker's plan for one categorical code segment.
struct EncodingPlan {
  SegmentEncoding encoding = SegmentEncoding::kRaw;
  unsigned width = 0;
  int32_t base = 0;
};

/// Chooses the cheapest representable payload under `mode`. Stats are
/// one exact pass over the segment (max code, max zigzag delta) — spill
/// happens once per table, so sampling would save nothing worth the
/// mis-pick risk. Negative codes (never produced by storage, but the
/// writer takes any table) disqualify everything but raw.
EncodingPlan PickEncoding(const int32_t* v, size_t n, EncodingMode mode) {
  EncodingPlan plan;
  if (n == 0 || mode == EncodingMode::kRaw) return plan;
  uint32_t max_code = 0;
  uint32_t max_zz = 0;
  bool non_negative = v[0] >= 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] < 0) non_negative = false;
    if (non_negative && static_cast<uint32_t>(v[i]) > max_code) {
      max_code = static_cast<uint32_t>(v[i]);
    }
    if (i > 0) {
      // Codes fit int32, so the delta fits int64 and zigzag fits u32.
      const int64_t d = static_cast<int64_t>(v[i]) - v[i - 1];
      const uint32_t zz = runtime::ZigzagEncode32(static_cast<int32_t>(d));
      if (zz > max_zz) max_zz = zz;
    }
  }
  if (!non_negative && mode != EncodingMode::kForDelta) return plan;
  const unsigned wb = runtime::BitWidthForU32(max_code);
  const unsigned wd = runtime::BitWidthForU32(max_zz);
  const size_t cost_raw = n * 4;
  const size_t cost_bp = runtime::BitPackedBytes(n, wb);
  const size_t cost_fd = runtime::BitPackedBytes(n, wd);
  switch (mode) {
    case EncodingMode::kBitpack:
      plan = {SegmentEncoding::kBitpack, wb, 0};
      return plan;
    case EncodingMode::kForDelta:
      plan = {SegmentEncoding::kForDelta, wd, v[0]};
      return plan;
    case EncodingMode::kAuto:
    default:
      // Ties prefer bitpack over for_delta (no reconstruct pass) and
      // raw over either (memcpy decode): encode only when it pays.
      if (non_negative && cost_bp < cost_raw && cost_bp <= cost_fd) {
        plan = {SegmentEncoding::kBitpack, wb, 0};
      } else if (cost_fd < cost_raw) {
        plan = {SegmentEncoding::kForDelta, wd, v[0]};
      }
      return plan;
  }
}

/// Bit-packs `values` and appends the padded payload as 64-bit words —
/// byte-for-byte the runtime::BitPackScalar layout, since PutU64 writes
/// little-endian.
void AppendPacked(BinaryWriter* w, const std::vector<uint32_t>& values,
                  unsigned width) {
  const size_t nwords = runtime::BitPackedBytes(values.size(), width) / 8;
  std::vector<uint64_t> words(nwords, 0);
  runtime::BitPackScalar(values.data(), values.size(), width,
                         reinterpret_cast<uint8_t*>(words.data()));
  for (uint64_t word : words) w->PutU64(word);
}

}  // namespace

const char* EncodingModeName(EncodingMode mode) {
  switch (mode) {
    case EncodingMode::kAuto:
      return "auto";
    case EncodingMode::kRaw:
      return "raw";
    case EncodingMode::kBitpack:
      return "bitpack";
    case EncodingMode::kForDelta:
      return "for_delta";
  }
  return "auto";
}

Result<EncodingMode> ParseEncodingMode(const std::string& name) {
  if (name == "auto") return EncodingMode::kAuto;
  if (name == "raw") return EncodingMode::kRaw;
  if (name == "bitpack") return EncodingMode::kBitpack;
  if (name == "for_delta") return EncodingMode::kForDelta;
  return Status::InvalidArgument("unknown encoding mode '" + name + "'");
}

Result<PartitionFileInfo> WritePartitionFile(const storage::Table& table,
                                             size_t begin_row, size_t end_row,
                                             const std::string& path,
                                             EncodingMode mode) {
  if (begin_row > end_row || end_row > table.num_rows()) {
    return Status::InvalidArgument("partition row range out of bounds");
  }
  const size_t n = end_row - begin_row;
  const size_t n_cols = table.num_columns();

  BinaryWriter w;
  w.PutU32(kPartitionMagic);
  w.PutU32(kPartitionVersion);
  w.PutU64(n);
  w.PutU32(static_cast<uint32_t>(n_cols));

  std::vector<SegmentMeta> segs(n_cols);
  std::vector<uint32_t> scratch;
  for (size_t c = 0; c < n_cols; ++c) {
    const storage::Column& col = table.column(c);
    SegmentMeta& seg = segs[c];
    seg.offset = w.buffer().size();
    if (col.is_numeric()) {
      // Doubles spill raw under every mode: dictionary-width and delta
      // structure are code-segment properties.
      seg.type = 0;
      const double* v = col.NumericSpan(begin_row);
      for (size_t r = 0; r < n; ++r) w.PutDouble(v[r]);
    } else {
      seg.type = 1;
      const int32_t* v = col.CodeSpan(begin_row);
      const EncodingPlan plan = PickEncoding(v, n, mode);
      seg.encoding = plan.encoding;
      seg.bit_width = static_cast<uint8_t>(plan.width);
      seg.base = plan.base;
      switch (plan.encoding) {
        case SegmentEncoding::kRaw:
          for (size_t r = 0; r < n; ++r) w.PutI32(v[r]);
          break;
        case SegmentEncoding::kBitpack:
          scratch.resize(n);
          for (size_t r = 0; r < n; ++r) {
            scratch[r] = static_cast<uint32_t>(v[r]);
          }
          AppendPacked(&w, scratch, plan.width);
          break;
        case SegmentEncoding::kForDelta:
          scratch.resize(n);
          if (n != 0) scratch[0] = 0;  // base is the first value
          for (size_t r = 1; r < n; ++r) {
            const int64_t d = static_cast<int64_t>(v[r]) - v[r - 1];
            scratch[r] = runtime::ZigzagEncode32(static_cast<int32_t>(d));
          }
          AppendPacked(&w, scratch, plan.width);
          break;
      }
    }
    seg.byte_len = w.buffer().size() - seg.offset;
    seg.checksum = Fnv1a64(w.buffer().data() + seg.offset, seg.byte_len);
  }

  const uint64_t footer_off = w.buffer().size();
  for (const SegmentMeta& seg : segs) {
    w.PutU8(seg.type);
    w.PutU8(static_cast<uint8_t>(seg.encoding));
    w.PutU8(seg.bit_width);
    w.PutU64(seg.offset);
    w.PutU64(seg.byte_len);
    w.PutU64(seg.checksum);
    w.PutU64(static_cast<uint64_t>(seg.base));
  }
  w.PutU64(footer_off);
  w.PutU32(kPartitionMagic);

  PS3_RETURN_IF_ERROR(w.WriteFile(path));
  PartitionFileInfo info;
  info.file_bytes = w.buffer().size();
  info.column_bytes.reserve(n_cols);
  info.encodings.reserve(n_cols);
  for (const SegmentMeta& seg : segs) {
    info.column_bytes.push_back(static_cast<size_t>(seg.byte_len));
    info.encodings.push_back(seg.encoding);
  }
  return info;
}

Result<storage::Table> ReadPartitionColumns(
    const std::string& path, const storage::Schema& schema,
    const std::vector<std::shared_ptr<storage::Dictionary>>& dicts,
    const storage::ColumnSet& columns, size_t* bytes_read) {
  return ReadPartitionColumns(path, schema, dicts, columns, SegmentTamper(),
                              bytes_read);
}

Result<storage::Table> ReadPartitionColumns(
    const std::string& path, const storage::Schema& schema,
    const std::vector<std::shared_ptr<storage::Dictionary>>& dicts,
    const storage::ColumnSet& columns, const SegmentTamper& tamper,
    size_t* bytes_read) {
  SeekingFile file;
  PS3_RETURN_IF_ERROR(file.Open(path));

  auto corrupt = [&path](const std::string& what) {
    return Status::Internal("partition file '" + path + "': " + what);
  };

  // Trailer first: it anchors the footer without trusting anything else.
  if (file.size() < kHeaderBytes + kTrailerBytes) {
    return corrupt("shorter than header + trailer");
  }
  uint8_t trailer[kTrailerBytes];
  PS3_RETURN_IF_ERROR(
      file.ReadAt(file.size() - kTrailerBytes, kTrailerBytes, trailer));
  const uint64_t footer_off = ReadU64(trailer);
  if (ReadU32(trailer + 8) != kPartitionMagic) {
    return corrupt("bad trailer magic");
  }

  uint8_t header[kHeaderBytes];
  PS3_RETURN_IF_ERROR(file.ReadAt(0, kHeaderBytes, header));
  if (ReadU32(header) != kPartitionMagic) return corrupt("bad magic");
  const uint32_t version = ReadU32(header + 4);
  if (version != kPartitionVersion) return corrupt("unsupported version");
  const uint64_t num_rows = ReadU64(header + 8);
  const uint32_t num_cols = ReadU32(header + 16);
  if (num_cols != schema.num_columns() ||
      dicts.size() != schema.num_columns()) {
    return corrupt("column count does not match schema");
  }
  // The header is not itself checksummed, so bound num_rows before it
  // feeds any allocation or length arithmetic: every row costs >= 1 bit
  // per column segment (bitpack widths are clamped >= 1), so a plausible
  // count can never exceed 8x the byte size. This also keeps the
  // expected-length arithmetic below from overflowing uint64.
  if (num_rows > static_cast<uint64_t>(file.size()) * 8) {
    return corrupt("row count exceeds file size");
  }
  const size_t n = static_cast<size_t>(num_rows);

  const size_t footer_len = static_cast<size_t>(num_cols) * kFooterEntryBytes;
  if (footer_off > file.size() || footer_len > file.size() - footer_off) {
    return corrupt("footer out of bounds");
  }
  std::vector<uint8_t> footer(footer_len);
  PS3_RETURN_IF_ERROR(file.ReadAt(footer_off, footer_len, footer.data()));
  std::vector<SegmentMeta> segs(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    const uint8_t* e = footer.data() + c * kFooterEntryBytes;
    if (e[1] > static_cast<uint8_t>(SegmentEncoding::kForDelta)) {
      return corrupt("unknown segment encoding");
    }
    segs[c] = SegmentMeta{e[0],
                          static_cast<SegmentEncoding>(e[1]),
                          e[2],
                          ReadU64(e + 3),
                          ReadU64(e + 11),
                          ReadU64(e + 19),
                          static_cast<int64_t>(ReadU64(e + 27))};
  }

  std::vector<storage::Column> out_columns;
  out_columns.reserve(num_cols);
  std::vector<uint8_t> seg_buf;
  std::vector<uint32_t> packed_scratch;
  for (size_t c = 0; c < num_cols; ++c) {
    const SegmentMeta& seg = segs[c];
    const bool numeric = schema.IsNumeric(c);
    if ((seg.type == 0) != numeric) return corrupt("segment type mismatch");
    if (!numeric && dicts[c] == nullptr) return corrupt("missing dictionary");
    if (!columns.Contains(c)) {
      // Pruned: an empty, correctly typed column (categoricals keep the
      // shared dictionary so group-by metadata stays intact).
      out_columns.push_back(numeric ? storage::Column::MakeNumeric()
                                    : storage::Column::MakeCategorical(
                                          dicts[c]));
      continue;
    }
    // Per-encoding expected payload length; anything else is corruption
    // (a flipped width or truncated payload never reaches the decoder).
    uint64_t expect_len = 0;
    const unsigned width = seg.bit_width;
    switch (seg.encoding) {
      case SegmentEncoding::kRaw:
        expect_len = static_cast<uint64_t>(n) * (numeric ? 8 : 4);
        break;
      case SegmentEncoding::kBitpack:
      case SegmentEncoding::kForDelta:
        if (numeric) return corrupt("encoded numeric segment");
        if (width < 1 || width > 32) return corrupt("bad segment bit width");
        expect_len = runtime::BitPackedBytes(n, width);
        break;
    }
    if (seg.encoding == SegmentEncoding::kForDelta &&
        (seg.base < std::numeric_limits<int32_t>::min() ||
         seg.base > std::numeric_limits<int32_t>::max())) {
      return corrupt("for_delta base out of range");
    }
    if (seg.byte_len != expect_len || seg.offset > file.size() ||
        seg.byte_len > file.size() - seg.offset) {
      return corrupt("segment bounds out of range");
    }
    // Slack past the payload lets the AVX2 unpack's 64-bit gathers read
    // through the final values' bytes; the garbage bits are masked.
    seg_buf.resize(static_cast<size_t>(seg.byte_len) +
                   runtime::kBitUnpackSlackBytes);
    PS3_RETURN_IF_ERROR(
        file.ReadAt(seg.offset, static_cast<size_t>(seg.byte_len),
                    seg_buf.data()));
    // Tamper seam: injected corruption lands on the encoded bytes here,
    // upstream of the checksum, so it is caught by the same verification
    // real corruption would hit.
    if (tamper) {
      tamper(c, seg_buf.data(), static_cast<size_t>(seg.byte_len));
    }
    // Checksum over the *encoded* bytes: corruption is caught before any
    // decode arithmetic touches the payload.
    if (Fnv1a64(seg_buf.data(), static_cast<size_t>(seg.byte_len)) !=
        seg.checksum) {
      return corrupt("segment checksum mismatch");
    }
    // Decode into the same typed column buffers every encoding shares —
    // everything above the reader sees identical rehydrated columns.
    // Raw segments memcpy (little-endian fixed-width, format declared
    // non-portable); packed segments go through the runtime unpack
    // kernels (AVX2 when available, scalar reference otherwise —
    // bit-identical by the kernels' contract).
    if (numeric) {
      storage::Column col = storage::Column::MakeNumeric();
      std::vector<double> buf(n);
      if (n != 0) std::memcpy(buf.data(), seg_buf.data(), seg.byte_len);
      col.AppendNumerics(buf.data(), n);
      out_columns.push_back(std::move(col));
    } else {
      const int64_t dict_size = static_cast<int64_t>(dicts[c]->size());
      storage::Column col = storage::Column::MakeCategorical(dicts[c]);
      std::vector<int32_t> buf(n);
      switch (seg.encoding) {
        case SegmentEncoding::kRaw:
          if (n != 0) std::memcpy(buf.data(), seg_buf.data(), seg.byte_len);
          break;
        case SegmentEncoding::kBitpack: {
          uint32_t* out = reinterpret_cast<uint32_t*>(buf.data());
#if defined(__x86_64__) || defined(__i386__)
          if (runtime::Avx2Available()) {
            runtime::BitUnpackAvx2(seg_buf.data(), n, width, out);
          } else
#endif
          {
            runtime::BitUnpackScalar(seg_buf.data(), n, width, out);
          }
          break;
        }
        case SegmentEncoding::kForDelta: {
          packed_scratch.resize(n);
          const uint32_t base =
              static_cast<uint32_t>(static_cast<int32_t>(seg.base));
#if defined(__x86_64__) || defined(__i386__)
          if (runtime::Avx2Available()) {
            runtime::BitUnpackAvx2(seg_buf.data(), n, width,
                                   packed_scratch.data());
            runtime::ForDeltaReconstructAvx2(packed_scratch.data(), n, base,
                                             buf.data());
          } else
#endif
          {
            runtime::BitUnpackScalar(seg_buf.data(), n, width,
                                     packed_scratch.data());
            runtime::ForDeltaReconstructScalar(packed_scratch.data(), n,
                                               base, buf.data());
          }
          break;
        }
      }
      // Dictionary validation runs on the *decoded* codes whatever the
      // encoding, so a bit flip that survives into plausible values
      // still can't reach the dense group-id path out of range.
      for (size_t i = 0; i < n; ++i) {
        if (buf[i] < 0 || buf[i] >= dict_size) {
          return corrupt("dictionary code out of range");
        }
      }
      col.AppendCodes(buf.data(), n);
      out_columns.push_back(std::move(col));
    }
  }
  if (bytes_read != nullptr) *bytes_read = file.bytes_read();
  return storage::Table::FromPrunedColumns(schema, std::move(out_columns), n);
}

Result<storage::Table> ReadPartitionFile(
    const std::string& path, const storage::Schema& schema,
    const std::vector<std::shared_ptr<storage::Dictionary>>& dicts) {
  return ReadPartitionColumns(path, schema, dicts, storage::ColumnSet::All());
}

}  // namespace ps3::io
