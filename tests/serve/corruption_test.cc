#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "engine/viewrewrite_engine.h"
#include "view/synopsis_store.h"
#include "testing/test_db.h"

namespace viewrewrite {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing_support::MakeTestDatabase(7);
    engine_ = std::make_unique<ViewRewriteEngine>(
        *db_, PrivacyPolicy{"customer"}, EngineOptions{});
    std::vector<std::string> workload = {
        "SELECT COUNT(*) FROM orders o WHERE o.o_totalprice >= 64",
        "SELECT SUM(o_totalprice) FROM orders o WHERE o.o_status = 'f'",
        "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_custkey = "
        "o.o_custkey AND c.c_nation = 1",
    };
    ASSERT_TRUE(engine_->Prepare(workload).ok());
    // Pid-unique: concurrent test processes must not publish over
    // each other's bundle (concurrent Saves to one path are
    // unsupported).
    path_ = ::testing::TempDir() + "corruption_bundle." +
            std::to_string(::getpid()) + ".vrsy";
    auto store = SynopsisStore::FromManager(engine_->views(), db_->schema());
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store->Save(path_).ok());
    blob_ = ReadFile(path_);
    ASSERT_GT(blob_.size(), 64u);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ViewRewriteEngine> engine_;
  std::string path_;
  std::string blob_;
};

TEST_F(CorruptionTest, EveryFlippedByteFailsCleanly) {
  const std::string mutated_path = ::testing::TempDir() + "flipped.vrsy";
  // Stride through the file flipping one byte at a time. Every flip must
  // yield a non-OK status — never a crash, never a silently-wrong load.
  // Offsets 6-7 are the reserved header halfword, the only bytes the
  // format deliberately ignores.
  for (size_t pos = 0; pos < blob_.size(); pos += 7) {
    if (pos == 6 || pos == 7) continue;
    std::string mutated = blob_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    WriteFile(mutated_path, mutated);
    auto loaded = SynopsisStore::Load(mutated_path, db_->schema());
    EXPECT_FALSE(loaded.ok()) << "flip at offset " << pos
                              << " loaded successfully";
  }
}

TEST_F(CorruptionTest, ChecksumMismatchIsTypedCorruption) {
  // Flip a byte deep inside a section payload (past the 8-byte file
  // header and the section frame) so the CRC check is what catches it.
  std::string mutated = blob_;
  mutated[blob_.size() / 2] ^= 0x01;
  const std::string mutated_path = ::testing::TempDir() + "crc.vrsy";
  WriteFile(mutated_path, mutated);
  auto loaded = SynopsisStore::Load(mutated_path, db_->schema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(CorruptionTest, EveryTruncationFailsCleanly) {
  const std::string mutated_path = ::testing::TempDir() + "truncated.vrsy";
  const size_t sizes[] = {0, 1, 3, 7, 8, 11, 20, blob_.size() / 2,
                          blob_.size() - 1};
  for (size_t n : sizes) {
    WriteFile(mutated_path, blob_.substr(0, n));
    auto loaded = SynopsisStore::Load(mutated_path, db_->schema());
    EXPECT_FALSE(loaded.ok()) << "truncation to " << n << " bytes loaded";
  }
}

TEST_F(CorruptionTest, NotABundleIsCorruption) {
  const std::string garbage_path = ::testing::TempDir() + "garbage.vrsy";
  WriteFile(garbage_path, "this is definitely not a synopsis bundle");
  auto loaded = SynopsisStore::Load(garbage_path, db_->schema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(CorruptionTest, MissingFileIsNotFound) {
  auto loaded = SynopsisStore::Load(::testing::TempDir() + "no_such.vrsy",
                                    db_->schema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CorruptionTest, ServeLoadFaultPointInjects) {
  ScopedFault fault = ScopedFault::OnNth(
      faults::kServeLoad, 1, Status::ExecutionError("injected load failure"));
  auto loaded = SynopsisStore::Load(path_, db_->schema());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kExecutionError);
  // The very next load (fault disarmed after firing once) succeeds.
  auto retry = SynopsisStore::Load(path_, db_->schema());
  EXPECT_TRUE(retry.ok()) << retry.status();
}

TEST_F(CorruptionTest, IntactBundleStillLoads) {
  auto loaded = SynopsisStore::Load(path_, db_->schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumViews(), engine_->views().NumPublished());
}

}  // namespace
}  // namespace viewrewrite
