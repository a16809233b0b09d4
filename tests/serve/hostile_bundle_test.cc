// Hostile .vrsy bundles: the loader must never trust a declared length.
// Each case hand-crafts bundle bytes whose headers lie — element counts
// past EOF, counts whose byte size wraps uint64, files past the arena
// budget — and asserts a typed refusal with no crash and no attempt to
// materialize the declared sizes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "common/crc32.h"
#include "common/limits.h"
#include "view/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

void AppendU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}
void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}
void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}

std::string FileHeader() {
  std::string out = "VRSY";
  AppendU16(&out, 1);  // format version
  AppendU16(&out, 0);  // reserved
  return out;
}

std::string WriteBundle(const std::string& name, const std::string& bytes) {
  std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
  return path;
}

Status LoadStatus(const std::string& path,
                  const ResourceLimits& limits = ResourceLimits::Defaults()) {
  Schema schema = testing_support::MakeTestSchema();
  auto store = SynopsisStore::Load(path, schema, limits);
  return store.ok() ? Status::OK() : store.status();
}

TEST(HostileBundleTest, SectionDeclaringTwoToTheSixtyDoublesRefused) {
  // A section whose payload opens with a count of 2^60 doubles. The old
  // bounds check computed n * 8, which wraps to 0 for n = 2^61 — this
  // count is chosen so both the wrap and the straight comparison paths
  // must refuse.
  std::string payload;
  AppendU64(&payload, uint64_t{1} << 60);
  payload += "xyz";
  std::string bundle = FileHeader();
  AppendU32(&bundle, 'V');
  AppendU64(&bundle, payload.size());
  bundle += payload;
  // Valid CRC, so the refusal provably comes from the bounds check on the
  // declared count, not from checksum verification.
  AppendU32(&bundle, Crc32(payload.data(), payload.size()));
  Status st = LoadStatus(WriteBundle("huge_double_count.vrsy", bundle));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(HostileBundleTest, ElementCountWhoseByteSizeWrapsUint64Refused) {
  // n = 2^61: n * 8 == 2^64 == 0 (mod 2^64). A `Need(n * 8)` style check
  // passes vacuously; the divide-based check must still refuse.
  std::string payload;
  AppendU64(&payload, uint64_t{1} << 61);
  std::string bundle = FileHeader();
  AppendU32(&bundle, 'V');
  AppendU64(&bundle, payload.size());
  bundle += payload;
  AppendU32(&bundle, Crc32(payload.data(), payload.size()));
  Status st = LoadStatus(WriteBundle("wrapping_count.vrsy", bundle));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(HostileBundleTest, SectionLengthPastEofRefused) {
  std::string bundle = FileHeader();
  AppendU32(&bundle, 'H');
  AppendU64(&bundle, uint64_t{1} << 60);  // payload "length"
  bundle += "tiny";
  Status st = LoadStatus(WriteBundle("section_past_eof.vrsy", bundle));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(HostileBundleTest, FileLargerThanArenaBudgetRefusedBeforeBuffering) {
  ResourceLimits limits;
  limits.max_arena_bytes = 1024;
  std::string bundle = FileHeader();
  bundle.append(4096, '\0');
  Status st = LoadStatus(WriteBundle("oversized_file.vrsy", bundle), limits);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
}

TEST(HostileBundleTest, BadMagicRefused) {
  Status st = LoadStatus(WriteBundle("bad_magic.vrsy",
                                     std::string("NOPE") + FileHeader()));
  ASSERT_FALSE(st.ok());
}

TEST(HostileBundleTest, EmptyFileRefused) {
  Status st = LoadStatus(WriteBundle("empty.vrsy", ""));
  ASSERT_FALSE(st.ok());
}

}  // namespace
}  // namespace viewrewrite
