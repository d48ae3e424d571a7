#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "ir/kernel.hpp"
#include "ir/kernels.hpp"
#include "ir/layout.hpp"
#include "support/check.hpp"

namespace dspaddr::ir {
namespace {

TEST(Kernel, BuilderBasics) {
  Kernel k("test", "a test kernel");
  k.add_array("x", 8).add_array("y", 4);
  k.set_iterations(10).set_data_ops(2);
  k.add_access("x", 1).add_access("y", -1, -1, true);

  EXPECT_EQ(k.name(), "test");
  EXPECT_EQ(k.arrays().size(), 2u);
  EXPECT_EQ(k.iterations(), 10);
  EXPECT_EQ(k.data_ops(), 2);
  ASSERT_EQ(k.accesses().size(), 2u);
  EXPECT_EQ(k.accesses()[1].stride, -1);
  EXPECT_TRUE(k.accesses()[1].is_write);
  EXPECT_TRUE(k.has_array("x"));
  EXPECT_FALSE(k.has_array("z"));
  EXPECT_EQ(k.array("y").size, 4);
}

TEST(Kernel, RejectsInvalidConstruction) {
  EXPECT_THROW(Kernel("", ""), dspaddr::InvalidArgument);
  Kernel k("k", "");
  EXPECT_THROW(k.add_array("", 4), dspaddr::InvalidArgument);
  EXPECT_THROW(k.add_array("x", 0), dspaddr::InvalidArgument);
  k.add_array("x", 4);
  EXPECT_THROW(k.add_array("x", 4), dspaddr::InvalidArgument);
  EXPECT_THROW(k.set_iterations(0), dspaddr::InvalidArgument);
  EXPECT_THROW(k.add_access("missing", 0), dspaddr::InvalidArgument);
  EXPECT_THROW(k.set_data_ops(-1), dspaddr::InvalidArgument);
  EXPECT_THROW(k.array("missing"), dspaddr::InvalidArgument);
}

TEST(Kernel, BoundsOffsetsStridesAndSizes) {
  Kernel k("k", "");
  EXPECT_THROW(k.add_array("big", kMaxMagnitude + 1), dspaddr::InvalidArgument);
  k.add_array("x", kMaxMagnitude);
  k.add_access("x", kMaxMagnitude, -kMaxMagnitude);
  k.add_access("x", -kMaxMagnitude, kMaxMagnitude);
  EXPECT_THROW(k.add_access("x", kMaxMagnitude + 1), dspaddr::InvalidArgument);
  EXPECT_THROW(k.add_access("x", 0, -kMaxMagnitude - 1),
               dspaddr::InvalidArgument);
  EXPECT_THROW(k.add_access("x", INT64_MIN, INT64_MIN),
               dspaddr::InvalidArgument);
  EXPECT_EQ(k.accesses().size(), 2u);
}

TEST(ArrayLayout, ContiguousPlacesInDeclarationOrder) {
  Kernel k("k", "");
  k.add_array("a", 10).add_array("b", 5).add_array("c", 1);
  const ArrayLayout layout = ArrayLayout::contiguous(k);
  EXPECT_EQ(layout.base_of("a"), 0);
  EXPECT_EQ(layout.base_of("b"), 10);
  EXPECT_EQ(layout.base_of("c"), 15);
  EXPECT_EQ(layout.extent(), 16);
}

TEST(ArrayLayout, ContiguousWithCustomBase) {
  Kernel k("k", "");
  k.add_array("a", 4);
  const ArrayLayout layout = ArrayLayout::contiguous(k, 100);
  EXPECT_EQ(layout.base_of("a"), 100);
}

TEST(ArrayLayout, UnplacedArrayThrows) {
  ArrayLayout layout;
  EXPECT_FALSE(layout.contains("x"));
  EXPECT_THROW(layout.base_of("x"), dspaddr::InvalidArgument);
}

TEST(Lower, FoldsBasesIntoOffsets) {
  Kernel k("k", "");
  k.add_array("a", 10).add_array("b", 10);
  k.add_access("a", 2);
  k.add_access("b", -1);
  const AccessSequence seq = lower(k);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0].offset, 2);
  EXPECT_EQ(seq[1].offset, 10 - 1);
}

TEST(Lower, PreservesStrides) {
  Kernel k("k", "");
  k.add_array("a", 8);
  k.add_access("a", 0, -3);
  const AccessSequence seq = lower(k);
  EXPECT_EQ(seq[0].stride, -3);
}

TEST(Lower, ExplicitLayoutMustCoverAllArrays) {
  Kernel k("k", "");
  k.add_array("a", 8);
  k.add_access("a", 0);
  ArrayLayout layout;
  EXPECT_THROW(lower(k, layout), dspaddr::InvalidArgument);
  layout.place("a", 42);
  const AccessSequence seq = lower(k, layout);
  EXPECT_EQ(seq[0].offset, 42);
}

TEST(BuiltinKernels, AllAreWellFormed) {
  const auto kernels = builtin_kernels();
  EXPECT_GE(kernels.size(), 12u);
  for (const Kernel& k : kernels) {
    SCOPED_TRACE(k.name());
    EXPECT_FALSE(k.name().empty());
    EXPECT_FALSE(k.accesses().empty());
    EXPECT_GT(k.iterations(), 0);
    // Lowering must succeed and produce one access per body access.
    const AccessSequence seq = lower(k);
    EXPECT_EQ(seq.size(), k.accesses().size());
  }
}

TEST(BuiltinKernels, NamesAreUniqueAndLookupWorks) {
  const auto names = builtin_kernel_names();
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  for (const std::string& name : names) {
    EXPECT_EQ(builtin_kernel(name).name(), name);
  }
  EXPECT_THROW(builtin_kernel("no-such-kernel"), dspaddr::InvalidArgument);
}

TEST(BuiltinKernels, PaperExampleHasFigureOffsets) {
  const Kernel k = paper_example_kernel();
  const AccessSequence seq = lower(k);
  const std::vector<std::int64_t> expected{1, 0, 2, -1, 1, 0, -2};
  ASSERT_EQ(seq.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(seq[i].offset, expected[i]) << "access " << i;
  }
}

TEST(BuiltinKernels, FirScansSignalBackwards) {
  const Kernel k = fir_kernel(16, 64);
  ASSERT_EQ(k.accesses().size(), 2u);
  EXPECT_EQ(k.accesses()[0].stride, 1);
  EXPECT_EQ(k.accesses()[1].stride, -1);
}

TEST(BuiltinKernels, MatmulUsesRowStride) {
  const Kernel k = matmul_kernel(8);
  // B[k][j] advances one row (8 elements) per k iteration.
  EXPECT_EQ(k.accesses()[1].stride, 8);
  // The accumulator slot is loop-invariant.
  EXPECT_EQ(k.accesses()[2].stride, 0);
}

TEST(BuiltinKernels, Filter2dHasNineTapsPlusWrite) {
  const Kernel k = filter2d_3x3_kernel(32);
  EXPECT_EQ(k.accesses().size(), 10u);
  EXPECT_TRUE(k.accesses().back().is_write);
}

TEST(BuiltinKernels, ParameterValidation) {
  EXPECT_THROW(fir_kernel(0, 8), dspaddr::InvalidArgument);
  EXPECT_THROW(biquad_kernel(2), dspaddr::InvalidArgument);
  EXPECT_THROW(matmul_kernel(0), dspaddr::InvalidArgument);
  EXPECT_THROW(filter2d_3x3_kernel(2), dspaddr::InvalidArgument);
}

}  // namespace
}  // namespace dspaddr::ir
