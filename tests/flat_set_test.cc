// FlatSet against std::unordered_set: a seeded differential run, a colliding hash that
// forces long probe runs (and their backward shift across the table's end), extreme
// key values, and reuse after clear().
#include "src/common/flat_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"

namespace lazylog {
namespace {

// Every key homes in the last four slots, whatever the capacity: probe runs wrap past
// the end of the table, and every erase shifts a run back.
struct CollidingHash {
  size_t operator()(const RecordId& id) const { return ~size_t{0} - (id.request_id % 4); }
};

template <class Set>
void ExpectSameMembership(const Set& flat, const std::unordered_set<RecordId, RecordIdHash>& ref,
                          const std::vector<RecordId>& universe) {
  ASSERT_EQ(flat.size(), ref.size());
  for (const RecordId& id : universe) {
    ASSERT_EQ(flat.contains(id), ref.count(id) > 0)
        << "id {" << id.client_id << "," << id.request_id << "}";
  }
}

template <class Set>
void DifferentialRun(uint64_t seed, uint64_t universe_size, int ops_per_phase) {
  Rng rng(seed);
  std::vector<RecordId> universe;
  for (uint64_t i = 0; i < universe_size; ++i) {
    universe.push_back(RecordId{rng.Uniform(4), rng.Next()});
  }
  Set flat;
  std::unordered_set<RecordId, RecordIdHash> ref;
  // Insert-heavy, erase-heavy, then mixed: the table grows, drains to near empty
  // (long backward shifts), and refills at the grown capacity.
  for (const uint64_t insert_pct : {90, 10, 50}) {
    for (int op = 0; op < ops_per_phase; ++op) {
      const RecordId& id = universe[rng.Uniform(universe.size())];
      if (rng.Uniform(100) < insert_pct) {
        ASSERT_EQ(flat.insert(id), ref.insert(id).second);
      } else {
        ASSERT_EQ(flat.erase(id), ref.erase(id) > 0);
      }
    }
    ExpectSameMembership(flat, ref, universe);
  }
}

TEST(FlatSet, MatchesUnorderedSetUnderRandomInsertsAndErases) {
  DifferentialRun<FlatSet<RecordId, RecordIdHash>>(/*seed=*/23, /*universe_size=*/5000,
                                                    /*ops_per_phase=*/40000);
}

TEST(FlatSet, CollidingHashShiftsRunsBackAcrossTheTableEnd) {
  DifferentialRun<FlatSet<RecordId, CollidingHash>>(/*seed=*/24, /*universe_size=*/300,
                                                     /*ops_per_phase=*/6000);
}

TEST(FlatSet, EraseFromTheMiddleOfAWrappedRun) {
  FlatSet<RecordId, CollidingHash> set;
  std::vector<RecordId> ids;
  for (uint64_t i = 0; i < 10; ++i) {
    ids.push_back(RecordId{7, 4 * i});  // all home in the last slot
    ASSERT_TRUE(set.insert(ids.back()));
  }
  for (size_t k : {size_t{0}, size_t{5}, size_t{9}, size_t{3}}) {
    ASSERT_TRUE(set.erase(ids[k]));
    EXPECT_FALSE(set.contains(ids[k]));
    EXPECT_FALSE(set.erase(ids[k]));
  }
  for (size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{6}, size_t{7}, size_t{8}}) {
    EXPECT_TRUE(set.contains(ids[k])) << k;
  }
  EXPECT_EQ(set.size(), 6u);
}

TEST(FlatSet, StoresZeroAndAllOnesKeys) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const RecordId zero{0, 0}, ones{kMax, kMax};
  FlatSet<RecordId, RecordIdHash> set;
  EXPECT_FALSE(set.contains(zero));
  EXPECT_FALSE(set.erase(zero));
  EXPECT_TRUE(set.insert(zero));
  EXPECT_TRUE(set.contains(zero));
  EXPECT_FALSE(set.contains(ones));
  EXPECT_TRUE(set.insert(ones));
  EXPECT_FALSE(set.insert(ones));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.erase(zero));
  EXPECT_FALSE(set.contains(zero));
  EXPECT_TRUE(set.contains(ones));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FlatSet, ReusableAfterClear) {
  FlatSet<RecordId, RecordIdHash> set;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(set.insert(RecordId{1, i}));
  }
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_FALSE(set.contains(RecordId{1, i}));
  }
  for (uint64_t i = 500; i < 700; ++i) {
    ASSERT_TRUE(set.insert(RecordId{1, i}));
  }
  EXPECT_FALSE(set.insert(RecordId{1, 600}));
  EXPECT_TRUE(set.erase(RecordId{1, 650}));
  EXPECT_EQ(set.size(), 199u);
  EXPECT_FALSE(set.contains(RecordId{1, 499}));
  EXPECT_TRUE(set.contains(RecordId{1, 699}));
}

}  // namespace
}  // namespace lazylog
