// Wire-transcript golden: replays tests/golden/wire.transcript against an
// in-process SrsServer over golden.edges — one TCP connection, one request
// at a time — and byte-diffs every response line against the recorded
// one. The transcript covers dense and pruned sparse full rows, top-k
// (cached, early-terminated), apply_delta with version pinning, traced
// queries, and error responses. Trace timings (every "*_ms" field) are
// masked to 0 on both sides; everything else — score digits, field order,
// error text — must match exactly.
//
// Transcript format: '#' comment lines, "> <request line>", and right
// after each request its "< <response line>". After an *intentional* wire
// change, re-record (and review the diff like source code) with:
//
//   wire_transcript_test <tests/golden> --record

#include <cstdio>
#include <fstream>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/service.h"
#include "srs/graph/graph_io.h"
#include "srs/server/client.h"
#include "srs/server/server.h"

namespace srs {
namespace {

std::string g_golden_dir;
bool g_record = false;

std::string MaskTimings(const std::string& line) {
  static const std::regex kTiming("(\"[a-z_]+_ms\"):[-+.eE0-9]+");
  return std::regex_replace(line, kTiming, "$1:0");
}

TEST(WireTranscriptTest, ResponsesMatchTheRecordedTranscript) {
  const std::string path = g_golden_dir + "/wire.transcript";
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot open " << path;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }

  // A fixed serving configuration: two engine threads (scores do not
  // depend on it) and a result cache, so repeated requests show
  // served_from_cache on the wire.
  SrsServiceOptions options;
  options.num_threads = 2;
  ResultCacheOptions cache;
  cache.capacity_bytes = size_t{16} << 20;
  options.result_cache = std::make_shared<ResultCache>(cache);
  std::unique_ptr<SrsService> service =
      SrsService::Create(
          LoadEdgeList(g_golden_dir + "/golden.edges").MoveValueOrDie(),
          options)
          .MoveValueOrDie();
  std::unique_ptr<SrsServer> server =
      SrsServer::Start(service.get()).MoveValueOrDie();
  SrsClient client =
      SrsClient::Connect("127.0.0.1", server->port()).MoveValueOrDie();

  std::vector<std::string> recorded;
  size_t requests = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.rfind("< ", 0) == 0) continue;  // consumed with its request
    recorded.push_back(line);
    if (line.rfind("> ", 0) != 0) continue;  // comment or blank
    ++requests;
    ASSERT_TRUE(client.SendLine(line.substr(2)).ok());
    Result<std::string> reply = client.ReadLine();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const std::string got = "< " + MaskTimings(reply.ValueOrDie());
    recorded.push_back(got);
    if (g_record) continue;
    ASSERT_LT(i + 1, lines.size()) << "no recorded response for " << line;
    EXPECT_EQ(got, lines[i + 1]) << "response to " << line;
  }
  EXPECT_GT(requests, 0u) << path << " holds no requests";

  if (g_record) {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : recorded) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << path;
  }
}

}  // namespace
}  // namespace srs

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record") {
      srs::g_record = true;
    } else {
      srs::g_golden_dir = arg;
    }
  }
  if (srs::g_golden_dir.empty()) {
    std::fprintf(stderr, "usage: %s <golden dir> [--record]\n", argv[0]);
    return 2;
  }
  return RUN_ALL_TESTS();
}
