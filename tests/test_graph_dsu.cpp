#include "graph/dsu.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"

namespace dspaddr::graph {
namespace {

TEST(Dsu, UniteAndFind) {
  Dsu dsu(5);
  EXPECT_EQ(dsu.set_count(), 5u);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_TRUE(dsu.unite(1, 2));
  EXPECT_FALSE(dsu.unite(0, 2));
  EXPECT_EQ(dsu.set_count(), 3u);
  EXPECT_TRUE(dsu.same(0, 2));
  EXPECT_FALSE(dsu.same(0, 3));
  EXPECT_EQ(dsu.size_of(1), 3u);
  EXPECT_EQ(dsu.size_of(4), 1u);
}

TEST(Dsu, RejectsOutOfRange) {
  Dsu dsu(2);
  EXPECT_THROW(dsu.find(2), InvalidArgument);
}

}  // namespace
}  // namespace dspaddr::graph
