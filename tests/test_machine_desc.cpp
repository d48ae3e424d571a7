#include "agu/machine_desc.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "agu/machines.hpp"
#include "engine/engine.hpp"
#include "eval/batch.hpp"
#include "ir/kernels.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace dspaddr::agu {
namespace {

const std::string kMachinesDir =
    std::string(DSPADDR_SOURCE_DIR) + "/workloads/machines/";

/// Lowers, allocates, plans MRs, generates code and simulates `kernel`
/// on `machine` through the engine's default pipeline.
engine::Result run_on_machine(const ir::Kernel& kernel,
                              const MachineSpec& machine) {
  engine::Request request;
  request.kernel = kernel;
  request.machine = machine;
  engine::Engine engine;
  engine::Result result = engine.run(request);
  EXPECT_TRUE(result.ok()) << result.error->message;
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

// ----------------------------------------------------------------- parse

TEST(MachineDesc, ParsesFullDirectiveSet) {
  const std::string text =
      "# a comment\n"
      "machine demo\n"
      "description Demo AGU   with spaces\n"
      "class r address 4\n"
      "class n modify 2\n"
      "class ix index 1\n"
      "modify-range -1 3\n"
      "inc 4 8\n"
      "dec 16\n"
      "addressing pre\n";
  const std::vector<MachineSpec> specs = parse_machines(text, "demo");
  ASSERT_EQ(specs.size(), 1u);
  const MachineSpec& spec = specs[0];
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.description, "Demo AGU   with spaces");
  ASSERT_EQ(spec.classes.size(), 3u);
  EXPECT_EQ(spec.classes[0], (RegisterClass{"r", RegClassKind::kAddress, 4}));
  EXPECT_EQ(spec.classes[1], (RegisterClass{"n", RegClassKind::kModify, 2}));
  EXPECT_EQ(spec.classes[2], (RegisterClass{"ix", RegClassKind::kIndex, 1}));
  EXPECT_EQ(spec.address_registers(), 4u);
  EXPECT_EQ(spec.modify_registers(), 3u);  // modify + index classes
  EXPECT_EQ(spec.modify_lo, -1);
  EXPECT_EQ(spec.modify_hi, 3);
  EXPECT_EQ(spec.modify_range(), 3);
  EXPECT_EQ(spec.free_widths, (std::vector<std::int64_t>{-16, 4, 8}));
  EXPECT_EQ(spec.addressing, Addressing::kPreModify);
}

TEST(MachineDesc, DefaultsAreMinimal) {
  const auto specs = parse_machines("machine bare\n", "t");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].address_registers(), 1u);
  EXPECT_EQ(specs[0].modify_registers(), 0u);
  EXPECT_EQ(specs[0].modify_lo, -1);
  EXPECT_EQ(specs[0].modify_hi, 1);
  EXPECT_EQ(specs[0].addressing, Addressing::kPostModify);
}

TEST(MachineDesc, SymmetricModifyRangeShorthand) {
  const auto specs =
      parse_machines("machine m\nmodify-range 3\n", "t");
  EXPECT_EQ(specs[0].modify_lo, -3);
  EXPECT_EQ(specs[0].modify_hi, 3);
}

TEST(MachineDesc, SeveralMachinesPerFile) {
  const auto specs = parse_machines(
      "machine a\n\nmachine b\nclass r address 2\n", "t");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "a");
  EXPECT_EQ(specs[1].name, "b");
  EXPECT_EQ(specs[1].address_registers(), 2u);
}

// Each malformed input must fail with one loud `origin:line:` message.
void expect_diagnostic(const std::string& text, const std::string& needle) {
  try {
    parse_machines(text, "bad.machine");
    FAIL() << "expected InvalidArgument for: " << text;
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("bad.machine:"), 0u)
        << "diagnostic '" << what << "' lacks the file:line prefix";
    EXPECT_NE(what.find(needle), std::string::npos)
        << "diagnostic '" << what << "' lacks '" << needle << "'";
    EXPECT_EQ(what.find('\n'), std::string::npos)
        << "diagnostic must be a single line: " << what;
  }
}

TEST(MachineDesc, MalformedFilesDiagnoseLoudly) {
  expect_diagnostic("machine m\nfrobnicate 3\n", "unknown directive");
  expect_diagnostic("class r address 4\n", "before 'machine'");
  expect_diagnostic("machine m\nmodify-range 2 -2\n",
                    "inverted modify range");
  expect_diagnostic("machine m\nmodify-range 1 2\n", "must contain 0");
  expect_diagnostic("machine m\nclass r address 0\n",
                    "register count >= 1");
  expect_diagnostic("machine m\nclass r pointer 4\n",
                    "unknown register class kind");
  expect_diagnostic("machine m\nclass r address 2\nclass r modify 1\n",
                    "duplicate register class");
  expect_diagnostic("machine m\ninc 0\n", "integers >= 1");
  expect_diagnostic("machine m\naddressing sideways\n", "post or pre");
  expect_diagnostic("machine m\nmachine m\n", "duplicate machine");
  // Zero address registers is a validation failure attributed to the
  // machine's opening line.
  expect_diagnostic("machine m\nclass n modify 4\n", "address register");
}

TEST(MachineDesc, EmptyInputIsAnError) {
  EXPECT_THROW(parse_machines("# only comments\n", "empty.machine"),
               InvalidArgument);
}

// ------------------------------------------------------------ round trips

TEST(MachineDesc, TextRoundTripsEveryBuiltin) {
  for (const MachineSpec& spec : MachineRegistry::builtin().all()) {
    SCOPED_TRACE(spec.name);
    const auto reparsed = parse_machines(machine_to_text(spec), "rt");
    ASSERT_EQ(reparsed.size(), 1u);
    EXPECT_EQ(reparsed[0], spec);
  }
}

TEST(MachineDesc, TextRoundTripsRichSpec) {
  const auto specs = parse_machines(
      "machine rich\ndescription all the axes\nclass a address 3\n"
      "class m modify 2\nmodify-range 0 2\ninc 4\ndec 8\n"
      "addressing pre\n",
      "t");
  const auto reparsed = parse_machines(machine_to_text(specs[0]), "rt");
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0], specs[0]);
}

TEST(MachineDesc, JsonRoundTripsEveryBuiltin) {
  for (const MachineSpec& spec : MachineRegistry::builtin().all()) {
    SCOPED_TRACE(spec.name);
    EXPECT_EQ(machine_from_json(machine_to_json(spec)), spec);
  }
}

TEST(MachineDesc, JsonAcceptsLegacyFlatForm) {
  const support::JsonValue json = support::JsonValue::parse(
      R"({"registers": 4, "modify_registers": 2, "modify_range": 2})");
  const MachineSpec spec = machine_from_json(json);
  EXPECT_EQ(spec.address_registers(), 4u);
  EXPECT_EQ(spec.modify_registers(), 2u);
  EXPECT_EQ(spec.modify_lo, -2);
  EXPECT_EQ(spec.modify_hi, 2);
}

TEST(MachineDesc, JsonRejectsUnknownFields) {
  const support::JsonValue json =
      support::JsonValue::parse(R"({"registers": 4, "wheels": 3})");
  EXPECT_THROW(machine_from_json(json), InvalidArgument);
}

// -------------------------------------------------------------- registry

TEST(MachineRegistryTest, BuiltinCatalogMatchesLegacyApi) {
  EXPECT_EQ(MachineRegistry::builtin().names(), builtin_machine_names());
  EXPECT_EQ(MachineRegistry::builtin().all(), builtin_machines());
}

TEST(MachineRegistryTest, AddReplacesInPlaceByName) {
  MachineRegistry registry = MachineRegistry::with_builtins();
  const std::vector<std::string> before = registry.names();
  MachineSpec replacement = registry.get("wide4");
  replacement.set_address_registers(16);
  registry.add(replacement);
  EXPECT_EQ(registry.names(), before) << "replacement must keep the slot";
  EXPECT_EQ(registry.get("wide4").address_registers(), 16u);
}

TEST(MachineRegistryTest, GetUnknownListsKnownNames) {
  try {
    MachineRegistry::builtin().get("pdp11");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pdp11"), std::string::npos);
    EXPECT_NE(what.find("tms320c25"), std::string::npos);
  }
}

TEST(MachineRegistryTest, LoadFileLayersOverCatalog) {
  MachineRegistry registry = MachineRegistry::with_builtins();
  const std::size_t before = registry.size();
  EXPECT_EQ(registry.load_file(kMachinesDir + "dsp56300.machine"), 1u);
  EXPECT_EQ(registry.size(), before + 1);
  const MachineSpec spec = registry.get("dsp56300");
  EXPECT_EQ(spec.modify_lo, -1);
  EXPECT_EQ(spec.modify_hi, 3);
  EXPECT_EQ(spec.modify_registers(), 8u);
}

// --------------------------------------------------- builtin file parity

// Every builtin ships as a .machine file; loading that file must yield
// the embedded catalog spec exactly — same spec, same canonical bytes,
// and byte-identical pipeline results.
TEST(MachineFileParity, ShippedFilesMatchEmbeddedCatalog) {
  for (const MachineSpec& builtin : MachineRegistry::builtin().all()) {
    SCOPED_TRACE(builtin.name);
    const std::string path = kMachinesDir + builtin.name + ".machine";
    const std::vector<MachineSpec> loaded = load_machine_file(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0], builtin);
    EXPECT_EQ(slurp(path), machine_to_text(builtin))
        << path << " is not in canonical form";
  }
}

TEST(MachineFileParity, FileLoadedRunsAreByteIdentical) {
  const ir::Kernel kernel = ir::builtin_kernel("paper_example");
  for (const MachineSpec& builtin : MachineRegistry::builtin().all()) {
    SCOPED_TRACE(builtin.name);
    const MachineSpec loaded =
        load_machine_file(kMachinesDir + builtin.name + ".machine")[0];
    const engine::Result a = run_on_machine(kernel, builtin);
    const engine::Result b = run_on_machine(kernel, loaded);
    EXPECT_EQ(a.allocation_cost, b.allocation_cost);
    EXPECT_EQ(a.plan.residual_cost, b.plan.residual_cost);
    EXPECT_EQ(a.verified, b.verified);
  }
}

TEST(MachineFileParity, FileLoadedBatchRowsAreByteIdentical) {
  eval::BatchConfig embedded;
  embedded.kernels = {ir::builtin_kernel("fir")};
  embedded.machines = MachineRegistry::builtin().all();
  eval::BatchConfig from_files = embedded;
  from_files.machines.clear();
  for (const MachineSpec& builtin : MachineRegistry::builtin().all()) {
    from_files.machines.push_back(
        load_machine_file(kMachinesDir + builtin.name + ".machine")[0]);
  }
  const std::string a = eval::batch_to_csv(eval::run_batch(embedded))
                            .to_string();
  const std::string b = eval::batch_to_csv(eval::run_batch(from_files))
                            .to_string();
  EXPECT_EQ(a, b);
}

// ----------------------------------------- windows, widths, pre-modify

TEST(MachineSpecSemantics, AsymmetricWindowIsDirectional) {
  const MachineSpec spec =
      load_machine_file(kMachinesDir + "msp430x.machine")[0];
  const core::CostModel model = spec.cost_model();
  EXPECT_TRUE(model.free_distance(0));
  EXPECT_TRUE(model.free_distance(1));
  EXPECT_FALSE(model.free_distance(-1))
      << "post-increment-only machines cannot step backwards for free";
  EXPECT_TRUE(model.free_distance(2)) << "dedicated inc width";
  EXPECT_FALSE(model.free_distance(-2));
}

TEST(MachineSpecSemantics, FreeWidthsReachOutsideTheWindow) {
  const MachineSpec spec =
      load_machine_file(kMachinesDir + "arm946e.machine")[0];
  const core::CostModel model = spec.cost_model();
  EXPECT_TRUE(model.free_distance(4));
  EXPECT_TRUE(model.free_distance(-4));
  EXPECT_FALSE(model.free_distance(3));
  EXPECT_FALSE(model.free_distance(5));
}

TEST(MachineSpecSemantics, SettersPreserveUnrelatedAxes) {
  MachineSpec spec = load_machine_file(kMachinesDir + "dsp56300.machine")[0];
  spec.set_address_registers(4);
  EXPECT_EQ(spec.address_registers(), 4u);
  EXPECT_EQ(spec.modify_lo, -1) << "window must survive a K override";
  EXPECT_EQ(spec.modify_hi, 3);
  EXPECT_EQ(spec.modify_registers(), 8u);
}

TEST(MachineSpecSemantics, FileMachinesVerifyEndToEnd) {
  const char* files[] = {"msp430x.machine", "arm946e.machine",
                         "dsp56300.machine", "arm946e_wb.machine"};
  for (const ir::Kernel& kernel : ir::builtin_kernels()) {
    for (const char* file : files) {
      SCOPED_TRACE(kernel.name() + std::string(" on ") + file);
      const MachineSpec spec = load_machine_file(kMachinesDir + file)[0];
      const engine::Result report = run_on_machine(kernel, spec);
      EXPECT_TRUE(report.verified);
      EXPECT_GE(report.allocation_cost, report.plan.residual_cost);
    }
  }
}

TEST(MachineSpecSemantics, PreModifyMatchesPostModifyCosts) {
  // Pre- vs. post-modify changes when the update happens, not how many
  // updates there are: with identical resources both addressing styles
  // must verify at the same analytic cost.
  const ir::Kernel kernel = ir::builtin_kernel("paper_example");
  MachineSpec pre = load_machine_file(kMachinesDir + "arm946e_wb.machine")[0];
  MachineSpec post = pre;
  post.addressing = Addressing::kPostModify;
  const engine::Result a = run_on_machine(kernel, pre);
  const engine::Result b = run_on_machine(kernel, post);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_EQ(a.allocation_cost, b.allocation_cost);
  EXPECT_EQ(a.plan.residual_cost, b.plan.residual_cost);
}

// --------------------------------------------------------- structural key

TEST(MachineStructuralKey, IgnoresDecorationButNotResources) {
  const MachineSpec base = builtin_machine("dsp56002");
  MachineSpec renamed = base;
  renamed.name = "elsewhere";
  renamed.description = "different text";
  renamed.classes[0].name = "p";
  EXPECT_EQ(renamed.structural_key(), base.structural_key());

  MachineSpec asymmetric = base;
  asymmetric.modify_lo = 0;  // same M magnitude, different window
  EXPECT_NE(asymmetric.structural_key(), base.structural_key());

  MachineSpec widths = base;
  widths.free_widths = {4};
  EXPECT_NE(widths.structural_key(), base.structural_key());

  MachineSpec pre = base;
  pre.addressing = Addressing::kPreModify;
  EXPECT_NE(pre.structural_key(), base.structural_key());
}

}  // namespace
}  // namespace dspaddr::agu
