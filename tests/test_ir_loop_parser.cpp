#include "ir/loop_parser.hpp"

#include <gtest/gtest.h>

#include "core/allocator.hpp"
#include "ir/layout.hpp"

namespace dspaddr::ir {
namespace {

TEST(LoopParser, ParsesThePaperExampleVerbatim) {
  // The exact loop from section 2 of the paper (with N concrete).
  const Kernel k = parse_c_loop(R"(
int A[64];
for (i = 2; i <= 33; i++)
{ /* a_1 */ A[i+1];  /* offset 1 */
  /* a_2 */ A[i];    /* offset 0 */
  /* a_3 */ A[i+2];  /* offset 2 */
  /* a_4 */ A[i-1];  /* offset -1 */
  /* a_5 */ A[i+1];  /* offset 1 */
  /* a_6 */ A[i];    /* offset 0 */
  /* a_7 */ A[i-2];  /* offset -2 */
}
)",
                                "paper");
  EXPECT_EQ(k.name(), "paper");
  EXPECT_EQ(k.iterations(), 32);
  ASSERT_EQ(k.accesses().size(), 7u);
  // Offsets are the index at iteration 0 (i = 2).
  const std::vector<std::int64_t> expected{3, 2, 4, 1, 3, 2, 0};
  for (std::size_t a = 0; a < expected.size(); ++a) {
    EXPECT_EQ(k.accesses()[a].offset, expected[a]) << "a_" << (a + 1);
    EXPECT_EQ(k.accesses()[a].stride, 1);
  }
  // Distances between accesses (what the allocator sees) match the
  // paper's offsets 1 0 2 -1 1 0 -2 exactly.
  const AccessSequence lowered = lower(k);
  EXPECT_EQ(lowered.intra_distance(0, 1), -1);
  EXPECT_EQ(lowered.intra_distance(1, 2), 2);
  EXPECT_EQ(lowered.intra_distance(2, 3), -3);
}

TEST(LoopParser, AssignmentsReadRhsThenWriteLhs) {
  const Kernel k = parse_c_loop(R"(
int x[8], y[8];
for (i = 0; i < 8; i++) {
  y[i] = x[i] + x[i-1];
}
)");
  ASSERT_EQ(k.accesses().size(), 3u);
  EXPECT_EQ(k.accesses()[0].array, "x");
  EXPECT_FALSE(k.accesses()[0].is_write);
  EXPECT_EQ(k.accesses()[1].array, "x");
  EXPECT_EQ(k.accesses()[1].offset, -1);
  EXPECT_EQ(k.accesses()[2].array, "y");
  EXPECT_TRUE(k.accesses()[2].is_write);
  EXPECT_EQ(k.data_ops(), 1);
}

TEST(LoopParser, CountsDataOps) {
  const Kernel k = parse_c_loop(R"(
int a[8], b[8], c[8];
for (i = 0; i < 4; i++) {
  c[i] = a[i] * b[i] + a[i+1] * b[i+1] - 3;
}
)");
  // *, +, *, - : four operators.
  EXPECT_EQ(k.data_ops(), 4);
  EXPECT_EQ(k.accesses().size(), 5u);
}

TEST(LoopParser, AffineIndices) {
  const Kernel k = parse_c_loop(R"(
int m[64];
for (j = 1; j <= 8; j += 2) {
  m[2*j+3];
  m[-j+10];
  m[5];
  m[j];
}
)");
  ASSERT_EQ(k.accesses().size(), 4u);
  // j starts at 1, step 2.
  EXPECT_EQ(k.accesses()[0].offset, 2 * 1 + 3);
  EXPECT_EQ(k.accesses()[0].stride, 2 * 2);
  EXPECT_EQ(k.accesses()[1].offset, -1 + 10);
  EXPECT_EQ(k.accesses()[1].stride, -2);
  EXPECT_EQ(k.accesses()[2].offset, 5);
  EXPECT_EQ(k.accesses()[2].stride, 0);
  EXPECT_EQ(k.accesses()[3].offset, 1);
  EXPECT_EQ(k.accesses()[3].stride, 2);
  EXPECT_EQ(k.iterations(), 4);  // j = 1, 3, 5, 7
}

TEST(LoopParser, StrictLessThanCondition) {
  const Kernel k = parse_c_loop(R"(
int a[8];
for (i = 0; i < 5; i++) { a[i]; }
)");
  EXPECT_EQ(k.iterations(), 5);
}

TEST(LoopParser, MultipleArraysPerDeclaration) {
  const Kernel k = parse_c_loop(R"(
int a[8], b[16], c[4];
for (i = 0; i < 2; i++) { a[i]; b[i]; c[i]; }
)");
  EXPECT_EQ(k.arrays().size(), 3u);
  EXPECT_EQ(k.array("b").size, 16);
}

TEST(LoopParser, LineCommentsAndParens) {
  const Kernel k = parse_c_loop(R"(
int a[8];  // the input
for (i = 0; i < 4; i++) {
  a[i] = (a[i-1] + a[i+1]) * 2;  // smooth
}
)");
  EXPECT_EQ(k.accesses().size(), 3u);
  EXPECT_EQ(k.data_ops(), 2);
}

TEST(LoopParser, ParsedLoopAllocatesEndToEnd) {
  const Kernel k = parse_c_loop(R"(
int A[64];
for (i = 2; i <= 33; i++)
{ A[i+1]; A[i]; A[i+2]; A[i-1]; A[i+1]; A[i]; A[i-2]; }
)");
  core::ProblemConfig config;
  config.modify_range = 1;
  config.registers = 2;
  const core::Allocation a =
      core::RegisterAllocator(config).run(lower(k));
  EXPECT_EQ(a.cost(), 2);  // same as the hand-built paper sequence
}

struct LoopErrorCase {
  const char* label;
  const char* text;
  std::size_t line;
};

// Without this gtest prints the case's raw bytes, pointers included, and
// the pointers move with address-space randomization: every test list,
// and so every test name ctest discovers from it, would differ per build.
void PrintTo(const LoopErrorCase& c, std::ostream* os) {
  *os << "line " << c.line;
}

class LoopParserErrorTest
    : public ::testing::TestWithParam<LoopErrorCase> {};

TEST_P(LoopParserErrorTest, ReportsLineNumbers) {
  try {
    parse_c_loop(GetParam().text);
    FAIL() << "expected ParseError for " << GetParam().label;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), GetParam().line) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LoopParserErrorTest,
    ::testing::Values(
        LoopErrorCase{"undeclared array",
                      "for (i = 0; i < 2; i++) { a[i]; }", 1},
        LoopErrorCase{"missing for", "int a[4];\na[0];\n", 2},
        LoopErrorCase{"bad loop var in condition",
                      "int a[4];\nfor (i = 0; j < 2; i++) { a[i]; }", 2},
        LoopErrorCase{"bad loop var in increment",
                      "int a[4];\nfor (i = 0; i < 2; j++) { a[i]; }", 2},
        LoopErrorCase{"zero iterations",
                      "int a[4];\nfor (i = 5; i < 2; i++) { a[i]; }", 2},
        LoopErrorCase{"negative step",
                      "int a[4];\nfor (i = 0; i < 9; i += -1) { a[i]; }",
                      2},
        LoopErrorCase{"unknown index variable",
                      "int a[4];\nfor (i = 0; i < 2; i++)\n{ a[k]; }", 3},
        LoopErrorCase{"empty body",
                      "int a[4];\nfor (i = 0; i < 2; i++) { }", 2},
        LoopErrorCase{"duplicate array", "int a[4], a[4];\n", 1},
        LoopErrorCase{"unterminated comment",
                      "int a[4]; /* oops\nfor...", 1},
        LoopErrorCase{"stray character",
                      "int a[4];\nfor (i = 0; i < 2; i++) { a[i] % 2; }",
                      2},
        LoopErrorCase{"trailing input",
                      "int a[4];\nfor (i = 0; i < 2; i++) { a[i]; }\n"
                      "extra", 3},
        // Indices and bounds stay inside int64 and ir::kMaxMagnitude.
        LoopErrorCase{"stride beyond the bound",
                      "int A[4];\nfor (i = 0; i < 2; i++)\n"
                      "{ A[4611686018427387904*i]; }", 3},
        LoopErrorCase{"offset product overflows",
                      "int A[4];\nfor (i = 2; i < 4; i++)\n"
                      "{ A[4611686018427387904*i]; }", 3},
        LoopErrorCase{"index sum overflows",
                      "int A[4];\nfor (i = 0; i < 2; i++)\n"
                      "{ A[9223372036854775807 + 1]; }", 3},
        LoopErrorCase{"number out of range",
                      "int A[4];\nfor (i = 0; i < 2; i++)\n"
                      "{ A[99999999999999999999]; }", 3},
        LoopErrorCase{"iteration count overflows",
                      "int A[4];\nfor (i = -1; i <= 9223372036854775807; "
                      "i++) { A[0]; }", 2}),
    [](const ::testing::TestParamInfo<LoopErrorCase>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dspaddr::ir
