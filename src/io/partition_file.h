// Columnar on-disk format for one partition, on top of
// common/serialize's BinaryWriter/Reader.
//
// Layout (little-endian, like every ps3 on-disk artifact):
//
//   header   u32 magic 'PS3P' · u32 version · u64 num_rows · u32 num_cols
//   segments one per column, back to back, encoded per the footer
//   footer   per column: u8 type · u8 encoding · u8 bit_width ·
//            u64 offset · u64 byte_len (encoded) ·
//            u64 fnv1a64 checksum of the *encoded* segment bytes ·
//            u64 frame-of-reference base (for_delta only, else 0)
//
// Readers accept version 2 only; any other version, including the
// raw-only v1 format no writer has produced since the encodings landed,
// fails with "unsupported version".
//   trailer  u64 footer offset · u32 magic
//
// Per-column segment encodings, chosen at spill time by the picker:
//
//   raw       numeric: 8-byte IEEE doubles; categorical: 4-byte codes.
//             The universal fallback — numeric columns always spill raw.
//   bitpack   categorical codes packed at bit_width =
//             ceil(log2(max code + 1)) bits, LSB-first into little-
//             endian 64-bit words (runtime::BitPackScalar layout).
//   for_delta frame-of-reference + delta: base = first code, then
//             zigzag-encoded successive deltas bit-packed at the width
//             of the largest zigzag delta. Wins on sorted/clustered
//             code layouts where deltas are tiny.
//
// The picker computes each categorical segment's max code and max
// zigzag delta and takes the cheapest payload (raw / bitpack /
// for_delta); forced modes override it for benchmarking. Decoding
// dispatches through runtime::BitUnpack*/ForDeltaReconstruct* (AVX2
// with scalar reference fallback — bit-identical either way).
//
// The footer carries everything a reader needs to seek straight to a
// column segment and verify it, which is what makes column-pruned reads
// possible: ReadPartitionColumns seeks only the requested segments
// (header + footer + those segments are the only bytes that touch the
// disk) and leaves the rest of the columns empty. Readers verify magic,
// version, arity against the schema, segment bounds, encoding/width
// sanity, and the checksum of every *encoded* segment they decode
// before a single value is used; corruption surfaces as a Status error,
// never as a wrong answer. `bytes_read` counts encoded (on-disk) bytes.
#ifndef PS3_IO_PARTITION_FILE_H_
#define PS3_IO_PARTITION_FILE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_set.h"
#include "storage/table.h"

namespace ps3::io {

/// On-disk segment encoding tags (footer `encoding` byte).
enum class SegmentEncoding : uint8_t {
  kRaw = 0,       ///< fixed-width values, memcpy decode
  kBitpack = 1,   ///< codes bit-packed at footer bit_width
  kForDelta = 2,  ///< frame-of-reference base + zigzag deltas, bit-packed
};

/// Spill-time encoding policy. kAuto lets the picker choose the
/// cheapest payload per segment; the forced modes exist for the bench's
/// encoding sweep and apply only where representable (numeric columns
/// are always raw; kBitpack falls back to raw on negative codes).
enum class EncodingMode {
  kAuto,
  kRaw,
  kBitpack,
  kForDelta,
};

const char* EncodingModeName(EncodingMode mode);
/// Parses "auto" / "raw" / "bitpack" / "for_delta".
Result<EncodingMode> ParseEncodingMode(const std::string& name);

/// What WritePartitionFile produced: the file's total byte size plus
/// the *encoded* payload size and chosen encoding of every column
/// segment — the store records these in its manifest so disk-byte
/// accounting (bytes_read expectations, bandwidth model, read-ahead
/// budget) can stay in encoded units while cache budgeting stays in
/// decoded units.
struct PartitionFileInfo {
  size_t file_bytes = 0;
  std::vector<size_t> column_bytes;
  std::vector<SegmentEncoding> encodings;
};

/// Writes rows [begin_row, end_row) of `table` as one partition file,
/// choosing a per-column segment encoding under `mode`.
Result<PartitionFileInfo> WritePartitionFile(
    const storage::Table& table, size_t begin_row, size_t end_row,
    const std::string& path, EncodingMode mode = EncodingMode::kAuto);

/// Reads and verifies the requested column segments of a partition file,
/// rehydrating them as a standalone *pruned* table: requested columns
/// hold exactly the spilled rows bit-identically, unrequested columns
/// are empty (storage::Table::FromPrunedColumns), and the table's row
/// count is the file's row count either way. `schema` is the table
/// schema the file was written under; `dicts[c]` must be the shared
/// dictionary for each categorical column c (null for numeric columns).
/// Every decoded code is validated against its dictionary, so a verified
/// table is safe for the dense group-id path. Only the header, footer,
/// trailer, and requested segments are read from disk; `bytes_read`
/// (optional) reports exactly that *encoded* byte count. Checksums are
/// verified over the encoded bytes of every segment actually read — an
/// unrequested corrupt segment is not detected here, but it is also
/// never decoded, and a later read that requests it surfaces the
/// corruption as a Status.
Result<storage::Table> ReadPartitionColumns(
    const std::string& path, const storage::Schema& schema,
    const std::vector<std::shared_ptr<storage::Dictionary>>& dicts,
    const storage::ColumnSet& columns, size_t* bytes_read = nullptr);

/// Test seam for the fault injector: called on each requested column's
/// *encoded* segment bytes after the read and before checksum
/// verification, so an injected bit flip exercises the real corruption
/// detection path (checksum mismatch → Status, never a wrong answer)
/// rather than bypassing it. `col` is the column index; mutate
/// `data[0, len)` in place (or not) per the fault plan.
using SegmentTamper = std::function<void(size_t col, uint8_t* data,
                                         size_t len)>;

/// ReadPartitionColumns with a tamper hook applied to every requested
/// segment's encoded bytes before its checksum is verified. A null
/// tamper is identical to the overload above.
Result<storage::Table> ReadPartitionColumns(
    const std::string& path, const storage::Schema& schema,
    const std::vector<std::shared_ptr<storage::Dictionary>>& dicts,
    const storage::ColumnSet& columns, const SegmentTamper& tamper,
    size_t* bytes_read);

/// Reads and verifies every column (ReadPartitionColumns with All).
Result<storage::Table> ReadPartitionFile(
    const std::string& path, const storage::Schema& schema,
    const std::vector<std::shared_ptr<storage::Dictionary>>& dicts);

/// *Decoded* byte length of one column's segment for a partition of
/// `rows` rows — the column-granular cache-budget accounting unit (a
/// cached column costs its rehydrated size regardless of how small it
/// was on disk). Encoded (on-disk) sizes vary per segment and live in
/// the store's manifest (PartitionStore::encoded_column_bytes).
inline size_t ColumnSegmentBytes(const storage::Schema& schema, size_t col,
                                 size_t rows) {
  return rows * (schema.IsNumeric(col) ? 8 : 4);
}

}  // namespace ps3::io

#endif  // PS3_IO_PARTITION_FILE_H_
