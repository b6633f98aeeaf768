#include "synat/driver/cache.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace synat::driver {
namespace {

std::shared_ptr<const ProcReport> make_report(const std::string& name,
                                              uint64_t key) {
  auto r = std::make_shared<ProcReport>();
  r->name = name;
  r->atomic = true;
  r->atomicity = "A";
  r->key = key;
  VariantReport v;
  v.tag = name;
  v.atomicity = "A";
  v.lines.push_back({3, "A", "x := CAS(c, t, t + 1)"});
  v.blocks.push_back({"A", 2});
  r->variants.push_back(std::move(v));
  return r;
}

TEST(ResultCache, MissThenHit) {
  ResultCache cache;
  EXPECT_EQ(cache.lookup(7), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  auto r = make_report("P", 7);
  cache.insert(7, r);
  auto hit = cache.lookup(7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), r.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, FirstWriterWins) {
  ResultCache cache;
  auto a = make_report("A", 1);
  auto b = make_report("B", 1);
  EXPECT_EQ(cache.insert(1, a).get(), a.get());
  EXPECT_EQ(cache.insert(1, b).get(), a.get());
  EXPECT_EQ(cache.lookup(1)->name, "A");
}

TEST(ResultCache, ConcurrentInsertsAllResident) {
  ResultCache cache;
  constexpr int kThreads = 8, kPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t key = static_cast<uint64_t>(i);  // all threads collide
        cache.insert(key, make_report("P" + std::to_string(t), key));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(cache.size(), static_cast<size_t>(kPerThread));
  for (int i = 0; i < kPerThread; ++i)
    EXPECT_NE(cache.lookup(static_cast<uint64_t>(i)), nullptr);
}

TEST(ResultCache, SaveLoadRoundTrips) {
  std::string path = testing::TempDir() + "synat_cache_roundtrip.synatcache";
  ResultCache cache;
  cache.insert(11, make_report("Enq", 11));
  cache.insert(22, make_report("Deq", 22));
  ASSERT_TRUE(cache.save(path));

  ResultCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 2u);
  auto enq = loaded.lookup(11);
  ASSERT_NE(enq, nullptr);
  EXPECT_EQ(enq->name, "Enq");
  EXPECT_TRUE(enq->atomic);
  ASSERT_EQ(enq->variants.size(), 1u);
  EXPECT_EQ(enq->variants[0].lines.size(), 1u);
  EXPECT_EQ(enq->variants[0].lines[0].text, "x := CAS(c, t, t + 1)");
  EXPECT_EQ(enq->variants[0].blocks.size(), 1u);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadOfMissingOrCorruptFileIsEmpty) {
  ResultCache cache;
  EXPECT_FALSE(cache.load(testing::TempDir() + "no_such_file.synatcache"));
  EXPECT_EQ(cache.size(), 0u);

  std::string path = testing::TempDir() + "synat_cache_corrupt.synatcache";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a cache snapshot", f);
  std::fclose(f);
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

// --- Snapshot resilience (DESIGN.md §3c) ----------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t read_u64(const std::string& bytes, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[off + i]))
         << (i * 8);
  return v;
}

/// Saves a three-entry snapshot (keys 1, 2, 3 in that on-disk order) and
/// returns its bytes. Layout: 8 magic + 8 version + 8 count, then per entry
/// 8 key + 8 len + len payload + 4 crc.
std::string three_entry_snapshot(const std::string& path) {
  ResultCache cache;
  cache.insert(1, make_report("A", 1));
  cache.insert(2, make_report("B", 2));
  cache.insert(3, make_report("C", 3));
  EXPECT_TRUE(cache.save(path));
  return slurp(path);
}

TEST(ResultCache, TruncationKeepsIntactPrefix) {
  std::string path = testing::TempDir() + "synat_cache_trunc.synatcache";
  std::string bytes = three_entry_snapshot(path);
  spit(path, bytes.substr(0, bytes.size() - 5));  // cut into the last entry

  ResultCache loaded;
  EXPECT_TRUE(loaded.load(path));  // header was fine
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_NE(loaded.lookup(1), nullptr);
  EXPECT_NE(loaded.lookup(2), nullptr);
  EXPECT_EQ(loaded.lookup(3), nullptr);
  EXPECT_EQ(loaded.rejected(), 1u);
  std::remove(path.c_str());
}

TEST(ResultCache, BitFlipSkipsOnlyThatEntry) {
  std::string path = testing::TempDir() + "synat_cache_flip.synatcache";
  std::string bytes = three_entry_snapshot(path);
  // Walk the framing to the second entry and flip a byte in its payload.
  size_t entry1 = 24;
  size_t entry2 = entry1 + 16 + read_u64(bytes, entry1 + 8) + 4;
  ASSERT_EQ(read_u64(bytes, entry2), 2u);
  bytes[entry2 + 16 + 3] ^= 0x40;
  spit(path, bytes);

  ResultCache loaded;
  EXPECT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 2u);  // 1 and 3 survive the bad middle entry
  EXPECT_NE(loaded.lookup(1), nullptr);
  EXPECT_EQ(loaded.lookup(2), nullptr);
  EXPECT_NE(loaded.lookup(3), nullptr);
  EXPECT_EQ(loaded.rejected(), 1u);
  std::remove(path.c_str());
}

TEST(ResultCache, VersionBumpRejectsWholeSnapshot) {
  std::string path = testing::TempDir() + "synat_cache_version.synatcache";
  std::string bytes = three_entry_snapshot(path);
  bytes[8] = static_cast<char>(bytes[8] + 1);  // format version low byte
  spit(path, bytes);

  ResultCache loaded;
  EXPECT_FALSE(loaded.load(path));  // stale snapshot: cold start
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.rejected(), 1u);
  std::remove(path.c_str());
}

TEST(ResultCache, ResavedSnapshotIsByteIdentical) {
  std::string path = testing::TempDir() + "synat_cache_resave.synatcache";
  std::string original = three_entry_snapshot(path);
  ResultCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.rejected(), 0u);
  ASSERT_TRUE(loaded.save(path));
  EXPECT_EQ(slurp(path), original);
  std::remove(path.c_str());
}

// A snapshot that fits the stream's buffer reaches the file only when the
// stream closes. A forked child saves 28 entries (about 6 KB) under a
// 2 KiB file-size limit over a 4-entry snapshot: the write fails in that
// final flush, so save() must report failure and leave the previous
// snapshot byte-identical. The limit is set in the child only.
TEST(ResultCache, FailedFinalFlushKeepsThePreviousSnapshot) {
  const std::string path = testing::TempDir() + "synat_cache_short.synatcache";
  ResultCache small, big;
  for (uint64_t k = 1; k <= 28; ++k) {
    if (k <= 4) small.insert(k, make_report("P" + std::to_string(k), k));
    big.insert(k, make_report("P" + std::to_string(k), k));
  }
  ASSERT_TRUE(small.save(path));
  const std::string before = slurp(path);
  ASSERT_LT(before.size(), 2048u);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{2048, 2048};
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(2);
    _exit(big.save(path) ? 1 : 0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "save() reported a short write as saved";
  EXPECT_TRUE(slurp(path) == before) << "the previous snapshot was clobbered";
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << "tmp file left behind";
  std::remove(path.c_str());
}

TEST(ResultCache, ClearKeepsLifetimeCounters) {
  ResultCache cache;
  cache.insert(5, make_report("P", 5));
  cache.lookup(5);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.lookup(5), nullptr);
}

}  // namespace
}  // namespace synat::driver
