// Tests for the persistence layer (src/storage/): CRC-32C known answers,
// snapshot-file round-trips that must be bit-exact, per-section corruption
// detection, WAL framing with a torn-tail sweep over every truncation
// offset, and the DurableStore crash-consistency protocol between the two
// files (obsolete-record skip, mid-Reset WAL recreation, chain-identity
// rejection).

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "srs/common/crc32c.h"
#include "srs/engine/snapshot.h"
#include "srs/graph/delta.h"
#include "srs/graph/fixtures.h"
#include "srs/graph/generators.h"
#include "srs/graph/versioned_graph.h"
#include "srs/storage/data_dir.h"
#include "srs/storage/snapshot_file.h"
#include "srs/storage/wal.h"

namespace srs {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  // Paths are name-keyed, not unique — scrub leftovers from a previous run
  // so every test starts from a genuinely absent file/directory.
  std::filesystem::remove_all(path);
  return path;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes,
                    size_t limit) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(),
            static_cast<std::streamsize>(std::min(limit, bytes.size())));
  ASSERT_TRUE(out.good()) << path;
}

EdgeDelta MakeDelta(int64_t num_nodes,
                    std::vector<std::pair<NodeId, NodeId>> inserts,
                    std::vector<std::pair<NodeId, NodeId>> removes = {}) {
  EdgeDelta::Builder builder;
  for (const auto& [u, v] : inserts) builder.Insert(u, v);
  for (const auto& [u, v] : removes) builder.Remove(u, v);
  return builder.Build(num_nodes).MoveValueOrDie();
}

// ---------------------------------------------------------------------------
// CRC-32C

TEST(Crc32cTest, KnownAnswerAndSeedChaining) {
  // The canonical CRC-32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Chaining through a seed must equal the one-shot CRC of the whole
  // buffer — the WAL reader depends on this to frame records.
  const char buf[] = "the quick brown fox jumps over the lazy dog";
  const size_t len = sizeof(buf) - 1;
  for (size_t split : {size_t{1}, size_t{7}, size_t{8}, len - 1}) {
    EXPECT_EQ(Crc32c(buf + split, len - split, Crc32c(buf, split)),
              Crc32c(buf, len))
        << "split at " << split;
  }
}

/// Bit-at-a-time reference CRC-32C: too slow to ship, trivially correct.
uint32_t ReferenceCrc32c(const unsigned char* p, size_t len) {
  uint32_t crc = ~0u;
  while (len-- > 0) {
    crc ^= *p++;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, MatchesTheBitwiseReferenceAtEveryLengthAndAlignment) {
  // Crc32c dispatches to a hardware instruction when the CPU has one and a
  // table walk otherwise; whichever path this machine takes must agree
  // with the polynomial definition for short, unaligned, and word-spanning
  // buffers alike.
  std::vector<unsigned char> buf(521);
  uint32_t state = 0x12345678u;
  for (auto& b : buf) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(state >> 24);
  }
  for (size_t align = 0; align < 9; ++align) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{8},
                       size_t{9}, size_t{15}, size_t{16}, size_t{17},
                       size_t{63}, size_t{64}, size_t{255}, size_t{512}}) {
      ASSERT_EQ(Crc32c(buf.data() + align, len),
                ReferenceCrc32c(buf.data() + align, len))
          << "align " << align << " len " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot files

/// Bitwise comparison of two double vectors (EXPECT_EQ on doubles admits
/// -0.0 == +0.0; the recovery contract is representation equality).
void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_TRUE(got.empty() ||
              std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)) == 0)
      << what << " drifted bitwise";
}

void ExpectMatrixBitEqual(const CsrOverlay& got, const CsrOverlay& want,
                          const char* what) {
  const CsrMatrix a = got.HasPatches() ? got.Compact() : *got.base();
  const CsrMatrix b = want.HasPatches() ? want.Compact() : *want.base();
  ASSERT_EQ(a.rows(), b.rows()) << what;
  EXPECT_EQ(a.narrow_offsets(), b.narrow_offsets()) << what;
  for (int64_t r = 0; r <= a.rows(); ++r) {
    ASSERT_EQ(a.RowBegin(r), b.RowBegin(r)) << what << " row " << r;
  }
  EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
  ExpectBitEqual(a.values(), b.values(), what);
}

TEST(SnapshotFileTest, RoundTripIsBitExactWithLabels) {
  const Graph g = Fig1CitationGraph();
  VersionedGraph vg((Graph(g)));
  SnapshotCache cache(4);
  const std::shared_ptr<const GraphSnapshot> snapshot =
      cache.Get(vg, 0).ValueOrDie();

  const std::string path = TempPath("snapshot_roundtrip.srs");
  ASSERT_TRUE(WriteSnapshotFile(path, g, *snapshot).ok());
  const SnapshotFileData loaded = ReadSnapshotFile(path).MoveValueOrDie();

  EXPECT_EQ(loaded.base_fingerprint, snapshot->fingerprint);
  EXPECT_EQ(loaded.version, 0u);
  EXPECT_EQ(loaded.version_fingerprint, snapshot->version_fingerprint);
  ASSERT_EQ(loaded.graph.NumNodes(), g.NumNodes());
  ASSERT_EQ(loaded.graph.NumEdges(), g.NumEdges());
  EXPECT_EQ(loaded.graph.labels(), g.labels());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto got = loaded.graph.OutNeighbors(u);
    const auto want = g.OutNeighbors(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "out-neighbors of " << u;
  }

  ExpectMatrixBitEqual(loaded.snapshot->q, snapshot->q, "q");
  ExpectMatrixBitEqual(loaded.snapshot->qt, snapshot->qt, "qt");
  ExpectMatrixBitEqual(loaded.snapshot->w, snapshot->w, "w");
  ExpectMatrixBitEqual(loaded.snapshot->wt, snapshot->wt, "wt");
  // Snapshots keep no row-sum vectors; the file's row-sum sections must
  // re-max to the same gammas and the same counts of rows at the max.
  EXPECT_EQ(loaded.snapshot->gamma_q, snapshot->gamma_q);
  EXPECT_EQ(loaded.snapshot->gamma_qt, snapshot->gamma_qt);
  EXPECT_EQ(loaded.snapshot->gamma_wt, snapshot->gamma_wt);
  EXPECT_EQ(loaded.snapshot->gamma_q_rows, snapshot->gamma_q_rows);
  EXPECT_EQ(loaded.snapshot->gamma_qt_rows, snapshot->gamma_qt_rows);
  EXPECT_EQ(loaded.snapshot->gamma_wt_rows, snapshot->gamma_wt_rows);
}

TEST(SnapshotFileTest, RoundTripsDerivedVersionsWithChainIdentity) {
  const Graph g = Rmat(64, 256, 5).ValueOrDie();
  VersionedGraph vg((Graph(g)));
  ASSERT_TRUE(vg.Apply(MakeDelta(64, {{0, 9}, {3, 14}}, {{1, 2}})).ok());
  SnapshotCache cache(4);
  const std::shared_ptr<const GraphSnapshot> snapshot =
      cache.Get(vg, 1).ValueOrDie();
  const Graph materialized = vg.Materialize(1).MoveValueOrDie();

  const std::string path = TempPath("snapshot_derived.srs");
  ASSERT_TRUE(WriteSnapshotFile(path, materialized, *snapshot).ok());
  const SnapshotFileData loaded = ReadSnapshotFile(path).MoveValueOrDie();
  EXPECT_EQ(loaded.version, 1u);
  EXPECT_EQ(loaded.version_fingerprint, vg.VersionFingerprint(1));
  EXPECT_EQ(loaded.parent_fingerprint, vg.VersionFingerprint(0));
  EXPECT_EQ(loaded.base_fingerprint, vg.BaseFingerprint());
  EXPECT_EQ(loaded.graph.NumEdges(), materialized.NumEdges());
  ExpectMatrixBitEqual(loaded.snapshot->q, snapshot->q, "derived q");
  EXPECT_EQ(loaded.snapshot->gamma_qt, snapshot->gamma_qt);
  EXPECT_EQ(loaded.snapshot->gamma_qt_rows, snapshot->gamma_qt_rows);
}

TEST(SnapshotFileTest, DetectsCorruptionInEverySection) {
  const Graph g = Fig1CitationGraph();
  VersionedGraph vg((Graph(g)));
  SnapshotCache cache(4);
  const std::shared_ptr<const GraphSnapshot> snapshot =
      cache.Get(vg, 0).ValueOrDie();
  const std::string path = TempPath("snapshot_corrupt.srs");
  ASSERT_TRUE(WriteSnapshotFile(path, g, *snapshot).ok());
  const std::vector<char> pristine = ReadFileBytes(path);

  // Walk the section table through the documented layout: a 72-byte
  // header (num_sections as u32 at offset 64) followed by 24-byte entries
  // {u32 id, u32 crc, u64 offset, u64 size}. Flipping the first payload
  // byte of every section must fail the load with a checksum error.
  uint32_t num_sections = 0;
  std::memcpy(&num_sections, pristine.data() + 64, sizeof(num_sections));
  ASSERT_GE(num_sections, 16u);  // 4 CSR arrays + labels + 12 matrix + 3 sums
  for (uint32_t i = 0; i < num_sections; ++i) {
    const char* entry = pristine.data() + 72 + i * 24;
    uint32_t id = 0;
    uint64_t offset = 0, size = 0;
    std::memcpy(&id, entry, sizeof(id));
    std::memcpy(&offset, entry + 8, sizeof(offset));
    std::memcpy(&size, entry + 16, sizeof(size));
    if (size == 0) continue;
    std::vector<char> corrupt = pristine;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x5A);
    WriteFileBytes(path, corrupt, corrupt.size());
    const Status status = ReadSnapshotFile(path).status();
    EXPECT_TRUE(status.IsIoError()) << "section " << id;
    EXPECT_NE(status.message().find("checksum"), std::string::npos)
        << "section " << id << ": " << status.ToString();
  }

  // Header corruption and truncation are rejected too.
  std::vector<char> bad_header = pristine;
  bad_header[40] = static_cast<char>(bad_header[40] ^ 0xFF);
  WriteFileBytes(path, bad_header, bad_header.size());
  EXPECT_TRUE(ReadSnapshotFile(path).status().IsIoError());
  WriteFileBytes(path, pristine, 40);
  EXPECT_TRUE(ReadSnapshotFile(path).status().IsIoError());

  // The pristine bytes still load (the harness itself is sound).
  WriteFileBytes(path, pristine, pristine.size());
  EXPECT_TRUE(ReadSnapshotFile(path).ok());
}

// ---------------------------------------------------------------------------
// Write-ahead log

TEST(WalTest, AppendsAndReopensRecordsExactly) {
  const std::string path = TempPath("wal_roundtrip.log");
  Wal::Header header;
  header.base_fingerprint = 77;
  header.snapshot_version = 3;
  header.snapshot_version_fingerprint = 99;
  std::unique_ptr<Wal> wal = Wal::Create(path, header).MoveValueOrDie();

  std::vector<Wal::Record> written;
  for (uint64_t v = 4; v <= 6; ++v) {
    Wal::Record record;
    record.version = v;
    record.version_fingerprint = v * 1000 + 1;
    record.delta = MakeDelta(32, {{static_cast<NodeId>(v), 0}},
                             {{1, static_cast<NodeId>(v)}});
    ASSERT_TRUE(wal->Append(record).ok());
    written.push_back(std::move(record));
  }
  wal.reset();

  Wal::ScanResult scan;
  std::unique_ptr<Wal> reopened = Wal::Open(path, &scan).MoveValueOrDie();
  EXPECT_EQ(scan.header.base_fingerprint, 77u);
  EXPECT_EQ(scan.header.snapshot_version, 3u);
  EXPECT_EQ(scan.header.snapshot_version_fingerprint, 99u);
  EXPECT_FALSE(scan.tail_truncated);
  ASSERT_EQ(scan.records.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(scan.records[i].version, written[i].version);
    EXPECT_EQ(scan.records[i].version_fingerprint,
              written[i].version_fingerprint);
    EXPECT_EQ(scan.records[i].delta.Fingerprint(),
              written[i].delta.Fingerprint());
    EXPECT_EQ(scan.records[i].delta.size(), written[i].delta.size());
  }

  // The reopened log is positioned for append: a fourth record lands after
  // the three originals, not over them.
  Wal::Record more;
  more.version = 7;
  more.version_fingerprint = 7001;
  more.delta = MakeDelta(32, {{2, 3}});
  ASSERT_TRUE(reopened->Append(more).ok());
  reopened.reset();
  Wal::ScanResult rescan;
  ASSERT_TRUE(Wal::Open(path, &rescan).ok());
  ASSERT_EQ(rescan.records.size(), 4u);
  EXPECT_EQ(rescan.records[3].version, 7u);
}

TEST(WalTest, ToleratesATornTailAtEveryTruncationOffset) {
  const std::string path = TempPath("wal_torn.log");
  std::unique_ptr<Wal> wal =
      Wal::Create(path, Wal::Header()).MoveValueOrDie();
  std::vector<uint64_t> boundaries = {wal->SizeBytes()};  // header only
  for (uint64_t v = 1; v <= 3; ++v) {
    Wal::Record record;
    record.version = v;
    record.version_fingerprint = v;
    record.delta =
        MakeDelta(16, {{static_cast<NodeId>(v), static_cast<NodeId>(v + 1)}});
    ASSERT_TRUE(wal->Append(record).ok());
    boundaries.push_back(wal->SizeBytes());
  }
  wal.reset();
  const std::vector<char> pristine = ReadFileBytes(path);
  ASSERT_EQ(pristine.size(), boundaries.back());

  const std::string torn = TempPath("wal_torn_copy.log");
  for (size_t cut = boundaries[0]; cut < pristine.size(); ++cut) {
    WriteFileBytes(torn, pristine, cut);
    Wal::ScanResult scan;
    Result<std::unique_ptr<Wal>> reopened = Wal::Open(torn, &scan);
    ASSERT_TRUE(reopened.ok())
        << "cut at " << cut << ": " << reopened.status().ToString();
    size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= cut) {
      ++complete;
    }
    ASSERT_EQ(scan.records.size(), complete) << "cut at " << cut;
    EXPECT_EQ(scan.tail_truncated, cut != boundaries[complete])
        << "cut at " << cut;
    EXPECT_EQ(scan.dropped_bytes, cut - boundaries[complete])
        << "cut at " << cut;
    // The scan repaired the file: a second open sees a clean log.
    Wal::ScanResult rescan;
    ASSERT_TRUE(Wal::Open(torn, &rescan).ok());
    EXPECT_FALSE(rescan.tail_truncated) << "cut at " << cut;
    EXPECT_EQ(rescan.records.size(), complete) << "cut at " << cut;
  }
}

TEST(WalTest, CorruptMidFileRecordCutsFromThatRecordOn) {
  const std::string path = TempPath("wal_bitflip.log");
  std::unique_ptr<Wal> wal =
      Wal::Create(path, Wal::Header()).MoveValueOrDie();
  std::vector<uint64_t> boundaries = {wal->SizeBytes()};
  for (uint64_t v = 1; v <= 3; ++v) {
    Wal::Record record;
    record.version = v;
    record.version_fingerprint = v;
    record.delta = MakeDelta(16, {{0, static_cast<NodeId>(v)}});
    ASSERT_TRUE(wal->Append(record).ok());
    boundaries.push_back(wal->SizeBytes());
  }
  wal.reset();
  std::vector<char> bytes = ReadFileBytes(path);
  // Flip one payload byte inside record 2 (frames start with a 24-byte
  // prelude; +30 lands in its payload).
  const size_t target = boundaries[1] + 30;
  ASSERT_LT(target, boundaries[2]);
  bytes[target] = static_cast<char>(bytes[target] ^ 0x01);
  WriteFileBytes(path, bytes, bytes.size());

  Wal::ScanResult scan;
  ASSERT_TRUE(Wal::Open(path, &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u)
      << "records after a corrupt one must not be trusted";
  EXPECT_EQ(scan.records[0].version, 1u);
  EXPECT_TRUE(scan.tail_truncated);
}

TEST(WalTest, RejectsACorruptHeader) {
  const std::string path = TempPath("wal_badheader.log");
  ASSERT_TRUE(Wal::Create(path, Wal::Header()).ok());
  std::vector<char> bytes = ReadFileBytes(path);
  bytes[20] = static_cast<char>(bytes[20] ^ 0xFF);
  WriteFileBytes(path, bytes, bytes.size());
  Wal::ScanResult scan;
  const Status status = Wal::Open(path, &scan).status();
  EXPECT_TRUE(status.IsIoError()) << status.ToString();
}

// ---------------------------------------------------------------------------
// DurableStore protocol

struct StoreFixture {
  Graph graph = Rmat(48, 160, 11).ValueOrDie();
  VersionedGraph vg{Graph(graph)};
  SnapshotCache cache{8};

  std::shared_ptr<const GraphSnapshot> SnapshotAt(uint64_t version) {
    return cache.Get(vg, version).ValueOrDie();
  }
};

TEST(DurableStoreTest, InitializeThenRecoverYieldsTheSameState) {
  StoreFixture fx;
  const std::string dir = TempPath("store_init");
  EXPECT_FALSE(DurableStore::HasState(dir));
  ASSERT_TRUE(
      DurableStore::Initialize(dir, fx.graph, *fx.SnapshotAt(0)).ok());
  EXPECT_TRUE(DurableStore::HasState(dir));

  DurableStore::Recovered recovered;
  ASSERT_TRUE(DurableStore::Recover(dir, &recovered).ok());
  EXPECT_TRUE(recovered.info.recovered_from_disk);
  EXPECT_EQ(recovered.info.snapshot_version, 0u);
  EXPECT_EQ(recovered.info.replayed_deltas, 0u);
  EXPECT_EQ(recovered.snapshot.base_fingerprint, fx.vg.BaseFingerprint());
  EXPECT_TRUE(recovered.tail.empty());
}

TEST(DurableStoreTest, LoggedDeltasComeBackAsTheReplayTail) {
  StoreFixture fx;
  const std::string dir = TempPath("store_log");
  std::unique_ptr<DurableStore> store =
      DurableStore::Initialize(dir, fx.graph, *fx.SnapshotAt(0))
          .MoveValueOrDie();

  for (uint64_t v = 1; v <= 2; ++v) {
    const EdgeDelta delta =
        MakeDelta(48, {{static_cast<NodeId>(v), static_cast<NodeId>(v + 7)}});
    Wal::Record record;
    record.version = v;
    record.version_fingerprint = fx.vg.NextVersionFingerprint(delta);
    record.delta = delta;
    ASSERT_TRUE(store->LogDelta(record).ok());
    ASSERT_TRUE(fx.vg.Apply(delta).ok());
  }

  DurableStore::Recovered recovered;
  ASSERT_TRUE(DurableStore::Recover(dir, &recovered).ok());
  ASSERT_EQ(recovered.tail.size(), 2u);
  EXPECT_EQ(recovered.info.replayed_deltas, 2u);
  EXPECT_EQ(recovered.tail[0].version, 1u);
  EXPECT_EQ(recovered.tail[1].version, 2u);
  EXPECT_EQ(recovered.tail[1].version_fingerprint,
            fx.vg.VersionFingerprint(2));
}

TEST(DurableStoreTest, CheckpointTruncatesTheLog) {
  StoreFixture fx;
  const std::string dir = TempPath("store_ckpt");
  std::unique_ptr<DurableStore> store =
      DurableStore::Initialize(dir, fx.graph, *fx.SnapshotAt(0))
          .MoveValueOrDie();
  const EdgeDelta delta = MakeDelta(48, {{1, 2}});
  Wal::Record record;
  record.version = 1;
  record.version_fingerprint = fx.vg.NextVersionFingerprint(delta);
  record.delta = delta;
  ASSERT_TRUE(store->LogDelta(record).ok());
  ASSERT_TRUE(fx.vg.Apply(delta).ok());
  const uint64_t before = store->WalSizeBytes();

  ASSERT_TRUE(store
                  ->WriteCheckpoint(fx.vg.Materialize(1).MoveValueOrDie(),
                                    *fx.SnapshotAt(1))
                  .ok());
  EXPECT_LT(store->WalSizeBytes(), before);

  DurableStore::Recovered recovered;
  ASSERT_TRUE(DurableStore::Recover(dir, &recovered).ok());
  EXPECT_EQ(recovered.info.snapshot_version, 1u);
  EXPECT_EQ(recovered.info.replayed_deltas, 0u);
  EXPECT_EQ(recovered.info.skipped_obsolete, 0u);
  EXPECT_TRUE(recovered.tail.empty());
}

TEST(DurableStoreTest, SkipsObsoleteRecordsAfterACrashBeforeWalReset) {
  // Simulate a crash *between* the checkpoint rename and the WAL reset:
  // the snapshot on disk is already at version 2, the log still carries
  // records 1 and 2. Recovery must skip both and replay nothing.
  StoreFixture fx;
  const std::string dir = TempPath("store_obsolete");
  std::unique_ptr<DurableStore> store =
      DurableStore::Initialize(dir, fx.graph, *fx.SnapshotAt(0))
          .MoveValueOrDie();
  for (uint64_t v = 1; v <= 2; ++v) {
    const EdgeDelta delta =
        MakeDelta(48, {{static_cast<NodeId>(v + 3), 0}});
    Wal::Record record;
    record.version = v;
    record.version_fingerprint = fx.vg.NextVersionFingerprint(delta);
    record.delta = delta;
    ASSERT_TRUE(store->LogDelta(record).ok());
    ASSERT_TRUE(fx.vg.Apply(delta).ok());
  }
  // The checkpoint's snapshot write, without the log reset that follows.
  ASSERT_TRUE(WriteSnapshotFile(DurableStore::SnapshotPath(dir),
                                fx.vg.Materialize(2).MoveValueOrDie(),
                                *fx.SnapshotAt(2))
                  .ok());

  DurableStore::Recovered recovered;
  ASSERT_TRUE(DurableStore::Recover(dir, &recovered).ok());
  EXPECT_EQ(recovered.info.snapshot_version, 2u);
  EXPECT_EQ(recovered.info.skipped_obsolete, 2u);
  EXPECT_EQ(recovered.info.replayed_deltas, 0u);
  EXPECT_TRUE(recovered.tail.empty());
}

TEST(DurableStoreTest, RecreatesAWalTornInsideItsHeader) {
  // A WAL shorter than its 48-byte header is the Wal::Create/Reset crash
  // window, when the log provably held nothing newer than the snapshot.
  StoreFixture fx;
  const std::string dir = TempPath("store_torn_header");
  ASSERT_TRUE(
      DurableStore::Initialize(dir, fx.graph, *fx.SnapshotAt(0)).ok());
  const std::vector<char> bytes =
      ReadFileBytes(DurableStore::WalPath(dir));
  WriteFileBytes(DurableStore::WalPath(dir), bytes, 17);

  DurableStore::Recovered recovered;
  ASSERT_TRUE(DurableStore::Recover(dir, &recovered).ok());
  EXPECT_EQ(recovered.info.snapshot_version, 0u);
  EXPECT_EQ(recovered.info.replayed_deltas, 0u);
  EXPECT_TRUE(recovered.tail.empty());
}

TEST(DurableStoreTest, RejectsAForeignWal) {
  StoreFixture fx;
  const std::string dir = TempPath("store_foreign");
  ASSERT_TRUE(
      DurableStore::Initialize(dir, fx.graph, *fx.SnapshotAt(0)).ok());
  Wal::Header foreign;
  foreign.base_fingerprint = fx.vg.BaseFingerprint() + 1;
  ASSERT_TRUE(Wal::Create(DurableStore::WalPath(dir), foreign).ok());

  DurableStore::Recovered recovered;
  const Status status = DurableStore::Recover(dir, &recovered).status();
  EXPECT_TRUE(status.IsIoError()) << status.ToString();
  EXPECT_NE(status.message().find("chain mismatch"), std::string::npos)
      << status.ToString();
}

TEST(DurableStoreTest, IgnoresAStaleSnapshotTmp) {
  StoreFixture fx;
  const std::string dir = TempPath("store_stale_tmp");
  ASSERT_TRUE(
      DurableStore::Initialize(dir, fx.graph, *fx.SnapshotAt(0)).ok());
  WriteFileBytes(DurableStore::SnapshotPath(dir) + ".tmp",
                 std::vector<char>{'j', 'u', 'n', 'k'}, 4);

  DurableStore::Recovered recovered;
  ASSERT_TRUE(DurableStore::Recover(dir, &recovered).ok());
  EXPECT_EQ(recovered.info.snapshot_version, 0u);
}

}  // namespace
}  // namespace srs
