#include "ir/parser.hpp"

#include <gtest/gtest.h>

#include "ir/kernels.hpp"
#include "ir/layout.hpp"

namespace dspaddr::ir {
namespace {

constexpr const char* kFirText = R"(
# FIR filter tap loop
kernel fir "FIR filter"
array h 16
array x 64
iterations 16
dataops 1
access h 0 stride 1
access x 0 stride -1
end
)";

TEST(Parser, ParsesSimpleKernel) {
  const Kernel k = parse_kernel(kFirText);
  EXPECT_EQ(k.name(), "fir");
  EXPECT_EQ(k.description(), "FIR filter");
  EXPECT_EQ(k.arrays().size(), 2u);
  EXPECT_EQ(k.iterations(), 16);
  EXPECT_EQ(k.data_ops(), 1);
  ASSERT_EQ(k.accesses().size(), 2u);
  EXPECT_EQ(k.accesses()[1].stride, -1);
}

TEST(Parser, ParsesMultipleKernels) {
  const std::string text = std::string(kFirText) + R"(
kernel second
array a 4
access a 0
end
)";
  const auto kernels = parse_kernels(text);
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_EQ(kernels[0].name(), "fir");
  EXPECT_EQ(kernels[1].name(), "second");
  EXPECT_EQ(kernels[1].description(), "");
}

TEST(Parser, HandlesWriteFlagAndTrailingComments) {
  const Kernel k = parse_kernel(R"(
kernel k
array y 8
access y 0 write   # store the result
end
)");
  EXPECT_TRUE(k.accesses()[0].is_write);
}

TEST(Parser, StrideAndWriteComposable) {
  const Kernel k = parse_kernel(R"(
kernel k
array y 8
access y 2 stride -2 write
end
)");
  EXPECT_EQ(k.accesses()[0].offset, 2);
  EXPECT_EQ(k.accesses()[0].stride, -2);
  EXPECT_TRUE(k.accesses()[0].is_write);
}

TEST(Parser, NegativeOffsets) {
  const Kernel k = parse_kernel(R"(
kernel k
array a 8
access a -3
end
)");
  EXPECT_EQ(k.accesses()[0].offset, -3);
}

TEST(Parser, EmptyInputYieldsNoKernels) {
  EXPECT_TRUE(parse_kernels("").empty());
  EXPECT_TRUE(parse_kernels("\n# only a comment\n").empty());
}

/// Each error case carries the 1-based line number of the offence.
struct ErrorCase {
  const char* label;
  const char* text;
  std::size_t line;
};

// Without this gtest prints the case's raw bytes, pointers included, and
// the pointers move with address-space randomization: every test list,
// and so every test name ctest discovers from it, would differ per build.
void PrintTo(const ErrorCase& c, std::ostream* os) {
  *os << "line " << c.line;
}

class ParserErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrorTest, ReportsLineNumber) {
  const ErrorCase& c = GetParam();
  try {
    parse_kernels(c.text);
    FAIL() << "expected ParseError for " << c.label;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), c.line) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        ErrorCase{"unknown keyword", "kernel k\nfrobnicate\nend\n", 2},
        ErrorCase{"statement outside kernel", "array a 4\n", 1},
        ErrorCase{"nested kernel", "kernel a\nkernel b\n", 2},
        ErrorCase{"missing end", "kernel k\narray a 4\naccess a 0\n", 3},
        ErrorCase{"bad array size", "kernel k\narray a x\n", 2},
        ErrorCase{"zero array size", "kernel k\narray a 0\n", 2},
        ErrorCase{"duplicate array", "kernel k\narray a 4\narray a 4\n", 3},
        ErrorCase{"bad iteration count", "kernel k\niterations -2\n", 2},
        ErrorCase{"undeclared array access", "kernel k\naccess a 0\n", 2},
        ErrorCase{"bad offset", "kernel k\narray a 4\naccess a q\n", 3},
        ErrorCase{"stride without value",
                  "kernel k\narray a 4\naccess a 0 stride\n", 3},
        ErrorCase{"unexpected access token",
                  "kernel k\narray a 4\naccess a 0 blah\n", 3},
        ErrorCase{"end with arguments", "kernel k\narray a 4\naccess a 0\n"
                                        "end now\n", 4},
        ErrorCase{"kernel without accesses", "kernel k\narray a 4\nend\n",
                  3},
        ErrorCase{"unterminated string", "kernel k \"oops\n", 1},
        ErrorCase{"two strings", "kernel k \"a\" \"b\"\n", 1},
        ErrorCase{"usage kernel", "kernel\n", 1},
        ErrorCase{"usage array", "kernel k\narray a\n", 2},
        ErrorCase{"usage iterations", "kernel k\niterations\n", 2},
        ErrorCase{"usage access", "kernel k\narray a 4\naccess a\n", 3}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Parser, ParseKernelRejectsZeroOrMany) {
  EXPECT_THROW(parse_kernel(""), dspaddr::InvalidArgument);
  const std::string two = "kernel a\narray x 1\naccess x 0\nend\n"
                          "kernel b\narray y 1\naccess y 0\nend\n";
  EXPECT_THROW(parse_kernel(two), dspaddr::InvalidArgument);
}

TEST(Parser, RoundTripsAllBuiltinKernels) {
  for (const Kernel& k : builtin_kernels()) {
    SCOPED_TRACE(k.name());
    const Kernel reparsed = parse_kernel(to_text(k));
    EXPECT_EQ(reparsed, k);
    // Lowered sequences must match too (belt and braces).
    EXPECT_EQ(lower(reparsed), lower(k));
  }
}

}  // namespace
}  // namespace dspaddr::ir
