// Reader failure modes (docs/STREAMING.md): every malformed input maps
// to its own distinguished ReadStatus, the reader latches the first
// failure, and none of the cases reach undefined behavior (this suite
// runs under asan/ubsan in the sanitize CI job).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "streamio/binary_stream.h"
#include "streamio/format.h"

namespace ds::streamio {
namespace {

using stream::EdgeUpdate;

class StreamFormat : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path =
        (dir / ("ds_format_test_" + name + ".stream")).string();
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  /// Read the file's raw bytes.
  static std::vector<char> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void dump(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// A well-formed 3-update file to corrupt.
  std::string write_valid(const std::string& name) {
    const std::string path = temp_path(name);
    BinaryStreamWriter writer(path, /*n=*/10, /*seed=*/42);
    writer.append(EdgeUpdate{{1, 2}, true});
    writer.append(EdgeUpdate{{2, 3}, true});
    writer.append(EdgeUpdate{{1, 2}, false});
    EXPECT_TRUE(writer.finish());
    return path;
  }

  std::vector<std::string> paths_;
};

TEST_F(StreamFormat, RecordEncodeDecodeRoundTrip) {
  const EdgeUpdate original{{123456, 987654}, false};
  std::uint8_t bytes[kRecordBytes];
  encode_record(original, bytes);
  EdgeUpdate decoded;
  ASSERT_EQ(decode_record(bytes, 1 << 20, decoded), ReadStatus::kOk);
  EXPECT_EQ(decoded.edge, original.edge);
  EXPECT_EQ(decoded.insert, original.insert);
}

TEST_F(StreamFormat, WriterReaderRoundTrip) {
  const std::string path = write_valid("roundtrip");
  BinaryStreamReader reader(path);
  ASSERT_EQ(reader.status(), ReadStatus::kOk);
  EXPECT_EQ(reader.header().n, 10u);
  EXPECT_EQ(reader.header().updates, 3u);
  EXPECT_EQ(reader.header().seed, 42u);

  std::vector<EdgeUpdate> got(8);
  ASSERT_EQ(reader.next_batch(got), 3u);
  EXPECT_EQ(got[0].edge, (graph::Edge{1, 2}));
  EXPECT_TRUE(got[0].insert);
  EXPECT_FALSE(got[2].insert);
  EXPECT_EQ(reader.status(), ReadStatus::kEnd);
  EXPECT_EQ(reader.next_batch(got), 0u);
  EXPECT_EQ(reader.bytes_read(), kHeaderBytes + 3 * kRecordBytes);
}

TEST_F(StreamFormat, BatchGranularityDoesNotChangeContents) {
  const std::string path = write_valid("batching");
  std::vector<EdgeUpdate> all;
  BinaryStreamReader one(path);
  std::vector<EdgeUpdate> buf(1);
  while (one.next_batch(buf) == 1) all.push_back(buf[0]);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(one.status(), ReadStatus::kEnd);
}

TEST_F(StreamFormat, BadMagicIsDistinguished) {
  const std::string path = write_valid("bad_magic");
  auto bytes = slurp(path);
  bytes[0] = 'X';
  dump(path, bytes);
  BinaryStreamReader reader(path);
  EXPECT_EQ(reader.status(), ReadStatus::kBadMagic);
  std::vector<EdgeUpdate> buf(4);
  EXPECT_EQ(reader.next_batch(buf), 0u);
}

TEST_F(StreamFormat, BadVersionIsDistinguished) {
  const std::string path = write_valid("bad_version");
  auto bytes = slurp(path);
  bytes[4] = 99;
  dump(path, bytes);
  BinaryStreamReader reader(path);
  EXPECT_EQ(reader.status(), ReadStatus::kBadVersion);
}

TEST_F(StreamFormat, TruncatedHeaderIsDistinguished) {
  const std::string path = write_valid("short_header");
  auto bytes = slurp(path);
  bytes.resize(kHeaderBytes / 2);
  dump(path, bytes);
  BinaryStreamReader reader(path);
  EXPECT_EQ(reader.status(), ReadStatus::kTruncatedHeader);
}

TEST_F(StreamFormat, ShortReadMidRecordIsTruncation) {
  const std::string path = write_valid("mid_record");
  auto bytes = slurp(path);
  bytes.resize(kHeaderBytes + kRecordBytes + 4);  // record 2 cut short
  dump(path, bytes);
  BinaryStreamReader reader(path);
  ASSERT_EQ(reader.status(), ReadStatus::kOk);
  std::vector<EdgeUpdate> buf(8);
  EXPECT_EQ(reader.next_batch(buf), 1u);  // record 1 still delivered
  EXPECT_EQ(reader.status(), ReadStatus::kTruncatedRecord);
}

TEST_F(StreamFormat, MissingRecordsAtBoundaryIsTruncation) {
  const std::string path = write_valid("boundary");
  auto bytes = slurp(path);
  bytes.resize(kHeaderBytes + 2 * kRecordBytes);  // 3 declared, 2 present
  dump(path, bytes);
  BinaryStreamReader reader(path);
  std::vector<EdgeUpdate> buf(8);
  EXPECT_EQ(reader.next_batch(buf), 2u);
  EXPECT_EQ(reader.status(), ReadStatus::kTruncatedRecord);
}

TEST_F(StreamFormat, OutOfRangeVertexIsDistinguished) {
  const std::string path = temp_path("bad_vertex");
  {
    BinaryStreamWriter writer(path, /*n=*/10);
    writer.append(EdgeUpdate{{1, 2}, true});
    ASSERT_TRUE(writer.finish());
  }
  auto bytes = slurp(path);
  bytes[kHeaderBytes + 5] = 77;  // v's low byte -> 77 >= n
  dump(path, bytes);
  BinaryStreamReader reader(path);
  std::vector<EdgeUpdate> buf(4);
  EXPECT_EQ(reader.next_batch(buf), 0u);
  EXPECT_EQ(reader.status(), ReadStatus::kBadVertex);
}

TEST_F(StreamFormat, SelfLoopIsBadVertex) {
  const std::string path = temp_path("self_loop");
  {
    BinaryStreamWriter writer(path, /*n=*/10);
    writer.append(EdgeUpdate{{1, 2}, true});
    ASSERT_TRUE(writer.finish());
  }
  auto bytes = slurp(path);
  bytes[kHeaderBytes + 5] = 1;  // v := 1 == u
  dump(path, bytes);
  BinaryStreamReader reader(path);
  std::vector<EdgeUpdate> buf(4);
  EXPECT_EQ(reader.next_batch(buf), 0u);
  EXPECT_EQ(reader.status(), ReadStatus::kBadVertex);
}

TEST_F(StreamFormat, BadOpByteIsDistinguished) {
  const std::string path = write_valid("bad_op");
  auto bytes = slurp(path);
  bytes[kHeaderBytes] = 7;  // first record's op
  dump(path, bytes);
  BinaryStreamReader reader(path);
  std::vector<EdgeUpdate> buf(4);
  EXPECT_EQ(reader.next_batch(buf), 0u);
  EXPECT_EQ(reader.status(), ReadStatus::kBadOp);
}

TEST_F(StreamFormat, ErrorIsLatchedAcrossCalls) {
  const std::string path = write_valid("latch");
  auto bytes = slurp(path);
  bytes[kHeaderBytes] = 7;
  dump(path, bytes);
  BinaryStreamReader reader(path);
  std::vector<EdgeUpdate> buf(4);
  EXPECT_EQ(reader.next_batch(buf), 0u);
  EXPECT_EQ(reader.next_batch(buf), 0u);
  EXPECT_EQ(reader.status(), ReadStatus::kBadOp);
}

TEST_F(StreamFormat, MissingFileIsIoError) {
  BinaryStreamReader reader("/nonexistent/ds_stream_missing.stream");
  EXPECT_EQ(reader.status(), ReadStatus::kIoError);
  std::vector<EdgeUpdate> buf(4);
  EXPECT_EQ(reader.next_batch(buf), 0u);
}

TEST_F(StreamFormat, HeaderWithTinyNIsBadHeader) {
  const std::string path = write_valid("tiny_n");
  auto bytes = slurp(path);
  for (std::size_t i = 0; i < 8; ++i) bytes[8 + i] = 0;
  bytes[8] = 1;  // n = 1
  dump(path, bytes);
  BinaryStreamReader reader(path);
  EXPECT_EQ(reader.status(), ReadStatus::kBadHeader);
}

TEST_F(StreamFormat, StatusStringsAreStable) {
  EXPECT_STREQ(to_string(ReadStatus::kOk), "ok");
  EXPECT_STREQ(to_string(ReadStatus::kEnd), "end");
  EXPECT_STREQ(to_string(ReadStatus::kBadMagic), "bad-magic");
  EXPECT_STREQ(to_string(ReadStatus::kTruncatedRecord), "truncated-record");
  EXPECT_TRUE(is_error(ReadStatus::kBadVertex));
  EXPECT_FALSE(is_error(ReadStatus::kEnd));
}

}  // namespace
}  // namespace ds::streamio
