#include "srs/storage/snapshot_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "srs/common/crc32c.h"
#include "srs/matrix/csr_matrix.h"
#include "srs/matrix/ops.h"
#include "srs/storage/file_util.h"

namespace srs {

namespace {

using storage::Fd;
using storage::FsyncDirOf;
using storage::WriteAll;

constexpr uint64_t kMagic = 0x31'50'41'4E'53'53'52'53ULL;  // "SRSSNAP1"
// Version 2 added the 32-bit row-pointer sections (id + 100); a v2 file
// with no compressed matrices is byte-compatible with v1, and the reader
// accepts both versions.
constexpr uint32_t kFormatVersion = 2;
constexpr uint32_t kMinFormatVersion = 1;
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr size_t kAlignment = 64;

/// Fixed file header. Trivially-copyable structs with explicit padding are
/// written/read as raw bytes; the endian marker rejects a byte-swapped
/// reader instead of serving garbage.
struct FileHeader {
  uint64_t magic = kMagic;
  uint32_t format_version = kFormatVersion;
  uint32_t endian_marker = kEndianMarker;
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
  uint64_t base_fingerprint = 0;
  uint64_t version = 0;
  uint64_t version_fingerprint = 0;
  uint64_t parent_fingerprint = 0;
  uint32_t num_sections = 0;
  uint32_t header_crc = 0;  ///< CRC-32C of the header with this field = 0
};
static_assert(sizeof(FileHeader) == 72);

struct SectionEntry {
  uint32_t id = 0;
  uint32_t crc = 0;      ///< CRC-32C of the payload bytes
  uint64_t offset = 0;   ///< absolute file offset, 64-byte aligned
  uint64_t size = 0;     ///< payload bytes (excluding padding)
};
static_assert(sizeof(SectionEntry) == 24);

/// One section per array. The reader looks sections up by id, so the set
/// can grow in later format versions without renumbering.
enum SectionId : uint32_t {
  kSecOutPtr = 1,
  kSecOutAdj = 2,
  kSecInPtr = 3,
  kSecInAdj = 4,
  kSecLabels = 5,
  kSecQRowPtr = 10,
  kSecQColIdx = 11,
  kSecQValues = 12,
  kSecQtRowPtr = 13,
  kSecQtColIdx = 14,
  kSecQtValues = 15,
  kSecWRowPtr = 16,
  kSecWColIdx = 17,
  kSecWValues = 18,
  kSecWtRowPtr = 19,
  kSecWtColIdx = 20,
  kSecWtValues = 21,
  kSecRowSumsQ = 30,
  kSecRowSumsQt = 31,
  kSecRowSumsWt = 32,
};

/// A matrix whose row offsets are stored compressed (uint32; see
/// CsrMatrix::narrow_offsets) writes its row-pointer section under
/// `row_ptr_id + kNarrowRowPtrIdOffset` instead of `row_ptr_id`. The
/// reader probes the 64-bit id first, then the narrow one, so files mixing
/// both widths — or written before compression existed — all load.
constexpr uint32_t kNarrowRowPtrIdOffset = 100;

size_t AlignUp(size_t v) { return (v + kAlignment - 1) & ~(kAlignment - 1); }

uint32_t HeaderCrc(FileHeader h) {
  h.header_crc = 0;
  return Crc32c(&h, sizeof(h));
}

/// Length-prefixed label blob: u64 count, then per label u32 length +
/// bytes. Written only when the graph carries labels.
std::vector<char> EncodeLabels(const std::vector<std::string>& labels) {
  std::vector<char> blob;
  const uint64_t count = labels.size();
  blob.resize(sizeof(count));
  std::memcpy(blob.data(), &count, sizeof(count));
  for (const std::string& label : labels) {
    const uint32_t len = static_cast<uint32_t>(label.size());
    const size_t at = blob.size();
    blob.resize(at + sizeof(len) + label.size());
    std::memcpy(blob.data() + at, &len, sizeof(len));
    std::memcpy(blob.data() + at + sizeof(len), label.data(), label.size());
  }
  return blob;
}

Result<std::vector<std::string>> DecodeLabels(const char* data, size_t size,
                                              int64_t num_nodes) {
  size_t at = 0;
  auto need = [&](size_t n) { return at + n <= size; };
  uint64_t count = 0;
  if (!need(sizeof(count))) return Status::IoError("labels section truncated");
  std::memcpy(&count, data + at, sizeof(count));
  at += sizeof(count);
  if (count != static_cast<uint64_t>(num_nodes)) {
    return Status::IoError("labels section count mismatch");
  }
  std::vector<std::string> labels;
  labels.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!need(sizeof(len))) return Status::IoError("labels section truncated");
    std::memcpy(&len, data + at, sizeof(len));
    at += sizeof(len);
    if (!need(len)) return Status::IoError("labels section truncated");
    labels.emplace_back(data + at, len);
    at += len;
  }
  if (at != size) return Status::IoError("labels section trailing bytes");
  return labels;
}

struct PendingSection {
  uint32_t id;
  const void* data;
  size_t size;
};

/// Per-row |value| sums of one matrix — the same gather loop the
/// snapshot's gammas fold, so the section holds exactly their inputs.
std::vector<double> AbsRowSums(const CsrOverlay& m) {
  std::vector<double> sums(static_cast<size_t>(m.rows()));
  m.ForEachRow([&](int64_t r, const CsrRowSpan& row) {
    sums[static_cast<size_t>(r)] = RowAbsSum(row);
  });
  return sums;
}

RowSumMax MaxOf(const std::vector<double>& sums) {
  RowSumMax max;
  for (double s : sums) max.Offer(s);
  return max;
}

/// Bytes of a vector<T>'s payload.
template <typename T>
size_t ByteLen(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

/// Copies a raw section into a vector<T>; the element count must divide
/// evenly and (if `expect` >= 0) match exactly. Range-constructed so the
/// bytes are written once — vector(count) + memcpy would zero-fill tens of
/// megabytes only to overwrite them.
template <typename T>
Result<std::vector<T>> LoadArray(const char* data, size_t size,
                                 int64_t expect, const char* what) {
  if (size % sizeof(T) != 0) {
    return Status::IoError(std::string(what) + " section has partial element");
  }
  const size_t count = size / sizeof(T);
  if (expect >= 0 && count != static_cast<size_t>(expect)) {
    return Status::IoError(std::string(what) + " section has " +
                           std::to_string(count) + " elements, want " +
                           std::to_string(expect));
  }
  // Section payloads are 64-byte aligned in the file and the mapping is
  // page-aligned, so the element pointer is properly aligned for T.
  const T* first = reinterpret_cast<const T*>(data);
  return std::vector<T>(first, first + count);
}

}  // namespace

Status WriteSnapshotFile(const std::string& path, const Graph& graph,
                         const GraphSnapshot& snapshot) {
  if (graph.NumNodes() != snapshot.num_nodes) {
    return Status::InvalidArgument(
        "snapshot/graph node counts disagree: " +
        std::to_string(snapshot.num_nodes) + " vs " +
        std::to_string(graph.NumNodes()));
  }
  // The file stores plain CSR. Compact() materializes a patched overlay
  // bit-for-bit, so derived snapshots round-trip exactly; patch-free
  // overlays are written straight from their base.
  auto materialize = [](const CsrOverlay& m) -> std::shared_ptr<const CsrMatrix> {
    if (m.HasPatches()) return std::make_shared<const CsrMatrix>(m.Compact());
    return m.base();
  };
  const auto q = materialize(snapshot.q);
  const auto qt = materialize(snapshot.qt);
  const auto w = materialize(snapshot.w);
  const auto wt = materialize(snapshot.wt);
  // Snapshots keep only the gammas; the file keeps the per-row sums behind
  // them, so a reader recovers each gamma without an O(nnz) pass.
  const std::vector<double> sums_q = AbsRowSums(snapshot.q);
  const std::vector<double> sums_qt = AbsRowSums(snapshot.qt);
  const std::vector<double> sums_wt = AbsRowSums(snapshot.wt);

  const std::vector<char> labels_blob =
      graph.labels().empty() ? std::vector<char>()
                             : EncodeLabels(graph.labels());

  std::vector<PendingSection> sections;
  auto add = [&sections](uint32_t id, const void* data, size_t size) {
    sections.push_back(PendingSection{id, data, size});
  };
  add(kSecOutPtr, graph.OutPtr().data(), graph.OutPtr().size_bytes());
  add(kSecOutAdj, graph.OutAdj().data(), graph.OutAdj().size_bytes());
  add(kSecInPtr, graph.InPtr().data(), graph.InPtr().size_bytes());
  add(kSecInAdj, graph.InAdj().data(), graph.InAdj().size_bytes());
  if (!labels_blob.empty()) {
    add(kSecLabels, labels_blob.data(), labels_blob.size());
  }
  auto add_matrix = [&](uint32_t row_ptr_id, const CsrMatrix& m) {
    if (m.narrow_offsets()) {
      add(row_ptr_id + kNarrowRowPtrIdOffset, m.row_ptr32().data(),
          ByteLen(m.row_ptr32()));
    } else {
      add(row_ptr_id, m.row_ptr64().data(), ByteLen(m.row_ptr64()));
    }
    add(row_ptr_id + 1, m.col_idx().data(), ByteLen(m.col_idx()));
    add(row_ptr_id + 2, m.values().data(), ByteLen(m.values()));
  };
  add_matrix(kSecQRowPtr, *q);
  add_matrix(kSecQtRowPtr, *qt);
  add_matrix(kSecWRowPtr, *w);
  add_matrix(kSecWtRowPtr, *wt);
  add(kSecRowSumsQ, sums_q.data(), ByteLen(sums_q));
  add(kSecRowSumsQt, sums_qt.data(), ByteLen(sums_qt));
  add(kSecRowSumsWt, sums_wt.data(), ByteLen(sums_wt));

  FileHeader header;
  header.num_nodes = graph.NumNodes();
  header.num_edges = graph.NumEdges();
  header.base_fingerprint = snapshot.fingerprint;
  header.version = snapshot.version;
  header.version_fingerprint = snapshot.version_fingerprint;
  header.parent_fingerprint = snapshot.parent_fingerprint;
  header.num_sections = static_cast<uint32_t>(sections.size());
  header.header_crc = HeaderCrc(header);

  std::vector<SectionEntry> table(sections.size());
  size_t offset =
      AlignUp(sizeof(FileHeader) + sections.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i].id = sections[i].id;
    table[i].crc = Crc32c(sections[i].data, sections[i].size);
    table[i].offset = offset;
    table[i].size = sections[i].size;
    offset = AlignUp(offset + sections[i].size);
  }

  const std::string tmp = path + ".tmp";
  const int raw_fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (raw_fd < 0) {
    return Status::IoError("open " + tmp + ": " + std::strerror(errno));
  }
  {
    Fd fd(raw_fd);
    SRS_RETURN_NOT_OK(WriteAll(fd.get(), &header, sizeof(header)));
    SRS_RETURN_NOT_OK(
        WriteAll(fd.get(), table.data(), table.size() * sizeof(SectionEntry)));
    size_t written = sizeof(FileHeader) + table.size() * sizeof(SectionEntry);
    const char zeros[kAlignment] = {};
    for (size_t i = 0; i < sections.size(); ++i) {
      SRS_CHECK(written <= table[i].offset);
      SRS_RETURN_NOT_OK(WriteAll(fd.get(), zeros, table[i].offset - written));
      SRS_RETURN_NOT_OK(
          WriteAll(fd.get(), sections[i].data, sections[i].size));
      written = table[i].offset + sections[i].size;
    }
    if (::fsync(fd.get()) != 0) {
      return Status::IoError("fsync " + tmp + ": " + std::strerror(errno));
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + path + ": " +
                           std::strerror(errno));
  }
  // The rename must itself be durable before callers truncate the WAL.
  return FsyncDirOf(path);
}

Result<SnapshotFileData> ReadSnapshotFile(const std::string& path) {
  const int raw_fd = ::open(path.c_str(), O_RDONLY);
  if (raw_fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  Fd fd(raw_fd);
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) {
    return Status::IoError("stat " + path + ": " + std::strerror(errno));
  }
  const size_t file_size = static_cast<size_t>(st.st_size);
  if (file_size < sizeof(FileHeader)) {
    return Status::IoError(path + ": truncated header");
  }
  // MAP_POPULATE prefaults the whole file in one batch instead of taking a
  // soft fault per 4 KiB page during the checksum pass; the flag is a hint,
  // so retry plain on kernels that reject it.
  void* map = ::mmap(nullptr, file_size, PROT_READ,
                     MAP_PRIVATE | MAP_POPULATE, fd.get(), 0);
  if (map == MAP_FAILED) {
    map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd.get(), 0);
  }
  if (map == MAP_FAILED) {
    return Status::IoError("mmap " + path + ": " + std::strerror(errno));
  }
  struct Unmapper {
    void* map;
    size_t size;
    ~Unmapper() { ::munmap(map, size); }
  } unmapper{map, file_size};
  const char* base = static_cast<const char*>(map);

  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (header.magic != kMagic) return Status::IoError(path + ": bad magic");
  if (header.endian_marker != kEndianMarker) {
    return Status::IoError(path + ": endianness mismatch");
  }
  if (header.format_version < kMinFormatVersion ||
      header.format_version > kFormatVersion) {
    return Status::IoError(path + ": unsupported format version " +
                           std::to_string(header.format_version));
  }
  if (header.header_crc != HeaderCrc(header)) {
    return Status::IoError(path + ": header checksum mismatch");
  }
  const size_t table_end =
      sizeof(FileHeader) + header.num_sections * sizeof(SectionEntry);
  if (table_end > file_size) {
    return Status::IoError(path + ": truncated section table");
  }
  std::vector<SectionEntry> table(header.num_sections);
  std::memcpy(table.data(), base + sizeof(FileHeader),
              header.num_sections * sizeof(SectionEntry));

  // Verify every checksum up front: a snapshot either loads whole or not
  // at all.
  for (const SectionEntry& entry : table) {
    if (entry.offset > file_size || entry.size > file_size - entry.offset) {
      return Status::IoError(path + ": section " + std::to_string(entry.id) +
                             " out of file bounds");
    }
    if (Crc32c(base + entry.offset, entry.size) != entry.crc) {
      return Status::IoError(path + ": section " + std::to_string(entry.id) +
                             " checksum mismatch");
    }
  }
  auto find = [&table](uint32_t id) -> const SectionEntry* {
    for (const SectionEntry& entry : table) {
      if (entry.id == id) return &entry;
    }
    return nullptr;
  };
  auto require = [&](uint32_t id) -> Result<const SectionEntry*> {
    const SectionEntry* entry = find(id);
    if (entry == nullptr) {
      return Status::IoError(path + ": missing section " +
                             std::to_string(id));
    }
    return entry;
  };

  const int64_t n = header.num_nodes;
  const int64_t m = header.num_edges;
  if (n < 0 || m < 0) return Status::IoError(path + ": negative shape");

  auto load = [&]<typename T>(uint32_t id, int64_t expect, const char* what,
                              T) -> Result<std::vector<T>> {
    SRS_ASSIGN_OR_RETURN(const SectionEntry* entry, require(id));
    return LoadArray<T>(base + entry->offset, entry->size, expect, what);
  };

  SRS_ASSIGN_OR_RETURN(std::vector<int64_t> out_ptr,
                       load(kSecOutPtr, n + 1, "out_ptr", int64_t{}));
  SRS_ASSIGN_OR_RETURN(std::vector<NodeId> out_adj,
                       load(kSecOutAdj, m, "out_adj", NodeId{}));
  SRS_ASSIGN_OR_RETURN(std::vector<int64_t> in_ptr,
                       load(kSecInPtr, n + 1, "in_ptr", int64_t{}));
  SRS_ASSIGN_OR_RETURN(std::vector<NodeId> in_adj,
                       load(kSecInAdj, m, "in_adj", NodeId{}));
  std::vector<std::string> labels;
  if (const SectionEntry* entry = find(kSecLabels)) {
    SRS_ASSIGN_OR_RETURN(
        labels, DecodeLabels(base + entry->offset, entry->size, n));
  }
  // Trusted constructors: the per-section CRC pass above has verified the
  // arrays are bit-for-bit what a validated Graph/CsrMatrix serialized, so
  // the O(m)/O(nnz) element rescans are skipped (a mismatch past the CRC
  // would be a writer logic error, not disk corruption). Structural O(n)
  // checks still run.
  SRS_ASSIGN_OR_RETURN(
      Graph graph,
      Graph::FromCsrTrusted(n, std::move(out_ptr), std::move(out_adj),
                            std::move(in_ptr), std::move(in_adj),
                            std::move(labels)));

  auto load_matrix =
      [&](uint32_t row_ptr_id,
          const char* what) -> Result<std::shared_ptr<const CsrMatrix>> {
    // Row offsets live under the 64-bit id or the narrow (uint32) one,
    // depending on the width the writer's matrix stored.
    const bool narrow = find(row_ptr_id) == nullptr;
    std::vector<int64_t> row_ptr64;
    std::vector<uint32_t> row_ptr32;
    if (narrow) {
      SRS_ASSIGN_OR_RETURN(row_ptr32, load(row_ptr_id + kNarrowRowPtrIdOffset,
                                           n + 1, what, uint32_t{}));
    } else {
      SRS_ASSIGN_OR_RETURN(row_ptr64, load(row_ptr_id, n + 1, what, int64_t{}));
    }
    const int64_t nnz = narrow
                            ? (row_ptr32.empty()
                                   ? 0
                                   : static_cast<int64_t>(row_ptr32.back()))
                            : (row_ptr64.empty() ? 0 : row_ptr64.back());
    SRS_ASSIGN_OR_RETURN(std::vector<int32_t> col_idx,
                         load(row_ptr_id + 1, nnz, what, int32_t{}));
    SRS_ASSIGN_OR_RETURN(std::vector<double> values,
                         load(row_ptr_id + 2, nnz, what, double{}));
    // Trusted shape-only assembly — see the Graph::FromCsrTrusted comment.
    if (narrow) {
      return std::make_shared<const CsrMatrix>(
          CsrMatrix::FromSortedRowsTrusted(n, n, std::move(row_ptr32),
                                           std::move(col_idx),
                                           std::move(values)));
    }
    return std::make_shared<const CsrMatrix>(
        CsrMatrix::FromSortedRowsTrusted(n, n, std::move(row_ptr64),
                                         std::move(col_idx),
                                         std::move(values)));
  };
  SRS_ASSIGN_OR_RETURN(auto q, load_matrix(kSecQRowPtr, "q"));
  SRS_ASSIGN_OR_RETURN(auto qt, load_matrix(kSecQtRowPtr, "qt"));
  SRS_ASSIGN_OR_RETURN(auto w, load_matrix(kSecWRowPtr, "w"));
  SRS_ASSIGN_OR_RETURN(auto wt, load_matrix(kSecWtRowPtr, "wt"));

  SRS_ASSIGN_OR_RETURN(const std::vector<double> sums_q,
                       load(kSecRowSumsQ, n, "row_sums_q", double{}));
  SRS_ASSIGN_OR_RETURN(const std::vector<double> sums_qt,
                       load(kSecRowSumsQt, n, "row_sums_qt", double{}));
  SRS_ASSIGN_OR_RETURN(const std::vector<double> sums_wt,
                       load(kSecRowSumsWt, n, "row_sums_wt", double{}));

  auto snapshot = std::make_shared<GraphSnapshot>();
  snapshot->fingerprint = header.base_fingerprint;
  snapshot->version_fingerprint = header.version_fingerprint;
  snapshot->parent_fingerprint = header.parent_fingerprint;
  snapshot->version = header.version;
  snapshot->num_nodes = n;
  snapshot->q = CsrOverlay(std::move(q));
  snapshot->qt = CsrOverlay(std::move(qt));
  snapshot->w = CsrOverlay(std::move(w));
  snapshot->wt = CsrOverlay(std::move(wt));
  snapshot->SetGammas(MaxOf(sums_q), MaxOf(sums_qt), MaxOf(sums_wt));

  SnapshotFileData data;
  data.base_fingerprint = header.base_fingerprint;
  data.version = header.version;
  data.version_fingerprint = header.version_fingerprint;
  data.parent_fingerprint = header.parent_fingerprint;
  data.graph = std::move(graph);
  data.snapshot = std::move(snapshot);
  return data;
}

}  // namespace srs
