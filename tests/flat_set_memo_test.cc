// FlatSetMemo contract: first-writer-wins inserts, entries (and the spans
// handed out for them) surviving growth, distinct sets never sharing an
// entry, and data-race freedom under concurrent mixed Find/Insert traffic
// (the TSan and ASan suites run this file too).

#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "util/flat_set_memo.h"

namespace procmine {
namespace {

using Ids = std::vector<int32_t>;

// The one value of `key`, or -1 when it has none.
int ValueOf(const FlatSetMemo<int>& memo, const Ids& key) {
  std::span<const int> value;
  if (!memo.Find(key, &value)) return -1;
  EXPECT_EQ(value.size(), 1u);
  return value.empty() ? -1 : value[0];
}

TEST(FlatSetMemoTest, FindMissThenHit) {
  FlatSetMemo<int> memo;
  EXPECT_FALSE(memo.Find(Ids{1}));
  const int one[] = {1};
  EXPECT_TRUE(memo.Insert(Ids{1}, one));
  EXPECT_TRUE(memo.Find(Ids{1}));
  EXPECT_EQ(ValueOf(memo, {1}), 1);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FlatSetMemoTest, FirstWriterWins) {
  FlatSetMemo<int> memo;
  const int first[] = {1};
  const int second[] = {2};
  EXPECT_TRUE(memo.Insert(Ids{7}, first));
  EXPECT_FALSE(memo.Insert(Ids{7}, second));  // the losing value is dropped
  EXPECT_EQ(ValueOf(memo, {7}), 1);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(FlatSetMemoTest, EntriesSurviveGrowth) {
  FlatSetMemo<int> memo;
  const int hundred[] = {100};
  memo.Insert(Ids{0}, hundred);
  std::span<const int> first;
  ASSERT_TRUE(memo.Find(Ids{0}, &first));
  // Thousands of inserts double the slot array many times; the pool the
  // entries live in never moves, so the early span stays valid.
  for (int32_t k = 1; k < 5000; ++k) {
    const int value[] = {k + 100};
    memo.Insert(Ids{k, k + 1}, value);
  }
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], 100);
  EXPECT_EQ(memo.size(), 5000u);
  for (int32_t k = 1; k < 5000; k += 371) {
    EXPECT_EQ(ValueOf(memo, {k, k + 1}), k + 100);
    EXPECT_FALSE(memo.Find(Ids{k}));
  }
}

TEST(FlatSetMemoTest, SetKeysAndEdgeValues) {
  // The shape the general-DAG miner uses: activity-set key, edge-list value
  // (present only in provenance runs), and key-only entries otherwise.
  FlatSetMemo<Edge> memo;
  const Edge kept[] = {{1, 2}, {2, 3}};
  EXPECT_TRUE(memo.Insert(Ids{1, 2, 3}, kept));
  std::span<const Edge> value;
  ASSERT_TRUE(memo.Find(Ids{1, 2, 3}, &value));
  EXPECT_EQ(std::vector<Edge>(value.begin(), value.end()),
            std::vector<Edge>(std::begin(kept), std::end(kept)));
  EXPECT_FALSE(memo.Find(Ids{1, 2}));

  EXPECT_TRUE(memo.Insert(Ids{4, 5}));
  ASSERT_TRUE(memo.Find(Ids{4, 5}, &value));
  EXPECT_TRUE(value.empty());
  EXPECT_TRUE(memo.Insert(Ids{}));  // the empty set is a key like any other
  EXPECT_TRUE(memo.Find(Ids{}));
  EXPECT_EQ(memo.size(), 3u);
}

TEST(FlatSetMemoTest, SetsDifferingOnlyInTheirHighestIdNeverShare) {
  FlatSetMemo<int> memo;
  const std::vector<Ids> sets = {
      {0, 5, 9}, {0, 5, 10}, {0, 5, 1000000}, {0, 5}, {0, 5, 9, 10}};
  for (size_t i = 0; i < sets.size(); ++i) {
    const int value[] = {static_cast<int>(i)};
    EXPECT_TRUE(memo.Insert(sets[i], value)) << i;
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(ValueOf(memo, sets[i]), static_cast<int>(i)) << i;
  }
}

TEST(FlatSetMemoTest, SetsAcrossA64IdWordBoundaryNeverShare) {
  // Ids 63/64 and 127/128 sit on either side of a 64-bit word boundary: a
  // key that folded ids into words, or hashed them modulo 64, would merge
  // these sets.
  FlatSetMemo<int> memo;
  const std::vector<Ids> sets = {{1, 63},  {1, 64},  {1, 127}, {1, 128},
                                 {63, 64}, {0, 64},  {0, 128}, {64, 128},
                                 {63},     {64},     {127},    {128}};
  for (size_t i = 0; i < sets.size(); ++i) {
    const int value[] = {static_cast<int>(i)};
    EXPECT_TRUE(memo.Insert(sets[i], value)) << i;
  }
  EXPECT_EQ(memo.size(), sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(ValueOf(memo, sets[i]), static_cast<int>(i)) << i;
  }
}

TEST(FlatSetMemoTest, ConcurrentInsertsAgreeOnOneValue) {
  // All threads race to insert every key with a thread-specific value. For
  // each key exactly one insert must report that it created the entry, and
  // every reader must observe that one value forever after.
  FlatSetMemo<int> memo;
  const int kKeys = 512;
  const int kThreads = 8;
  std::vector<std::vector<int>> created(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memo, &created, t] {
      for (int32_t k = 0; k < kKeys; ++k) {
        const Ids key = {k, k + kKeys};
        std::span<const int> hit;
        if (memo.Find(key, &hit)) {
          // A visible value never changes.
          std::span<const int> again;
          EXPECT_TRUE(memo.Find(key, &again));
          EXPECT_EQ(hit[0], again[0]);
          continue;
        }
        const int value[] = {t * kKeys + k};
        if (memo.Insert(key, value)) created[t].push_back(k);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(memo.size(), static_cast<size_t>(kKeys));
  std::vector<int> creators(kKeys, 0);
  for (int t = 0; t < kThreads; ++t) {
    for (int k : created[t]) {
      ++creators[k];
      EXPECT_EQ(ValueOf(memo, {k, k + kKeys}), t * kKeys + k);
    }
  }
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(creators[k], 1) << k;  // exactly one writer created each
    EXPECT_EQ(ValueOf(memo, {k, k + kKeys}) % kKeys, k);
  }
}

}  // namespace
}  // namespace procmine
