#include <gtest/gtest.h>

#include "toolchain/source.hpp"

namespace comt::toolchain {
namespace {

TEST(AnalyzeTest, ParsesKernelAnnotation) {
  auto info = analyze_source(
      "// @comt-kernel name=stream work=2.5e2 vec=0.5 mem=0.2 call=0.05 branch=0.1 "
      "lib=blas:0.1 comm=0.3 aggr=-0.2 lto=0.6 pgo=0.4\n");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info.value().kernels.size(), 1u);
  const KernelTrait& kernel = info.value().kernels[0];
  EXPECT_EQ(kernel.name, "stream");
  EXPECT_DOUBLE_EQ(kernel.work, 250);
  EXPECT_DOUBLE_EQ(kernel.frac_vec, 0.5);
  EXPECT_DOUBLE_EQ(kernel.frac_mem, 0.2);
  EXPECT_DOUBLE_EQ(kernel.frac_call, 0.05);
  EXPECT_DOUBLE_EQ(kernel.frac_branch, 0.1);
  EXPECT_EQ(kernel.lib, "blas");
  EXPECT_DOUBLE_EQ(kernel.frac_lib, 0.1);
  EXPECT_DOUBLE_EQ(kernel.frac_comm, 0.3);
  EXPECT_DOUBLE_EQ(kernel.aggr_response, -0.2);
  EXPECT_DOUBLE_EQ(kernel.lto_response, 0.6);
  EXPECT_DOUBLE_EQ(kernel.pgo_response, 0.4);
}

TEST(AnalyzeTest, UnannotatedFileIsValid) {
  auto info = analyze_source("int main() { return 0; }\n");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().kernels.empty());
  EXPECT_EQ(info.value().line_count, 2);  // trailing newline counts a line
}

TEST(AnalyzeTest, MultipleKernels) {
  auto info = analyze_source(
      "// @comt-kernel name=a work=1\n"
      "void a() {}\n"
      "// @comt-kernel name=b work=2 vec=0.9\n"
      "void b() {}\n");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info.value().kernels.size(), 2u);
  EXPECT_EQ(info.value().kernels[1].name, "b");
}

TEST(AnalyzeTest, IncludesAndMpi) {
  auto info = analyze_source(
      "#include <mpi.h>\n#include \"common.h\"\n#include \"sub/dir.h\"\n"
      "#include <vector>\n");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().uses_mpi);
  EXPECT_EQ(info.value().includes,
            (std::vector<std::string>{"common.h", "sub/dir.h"}));
}

TEST(AnalyzeTest, IsaMarkers) {
  auto info = analyze_source("// @comt-isa x86_64\n// @comt-isa aarch64 riscv64\n");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().isa_specific,
            (std::vector<std::string>{"x86_64", "aarch64", "riscv64"}));
}

TEST(AnalyzeTest, RejectsBadAnnotations) {
  EXPECT_FALSE(analyze_source("// @comt-kernel work=1\n").ok());  // no name
  EXPECT_FALSE(analyze_source("// @comt-kernel name=x work=abc\n").ok());
  EXPECT_FALSE(analyze_source("// @comt-kernel name=x unknown=1\n").ok());
  EXPECT_FALSE(analyze_source("// @comt-kernel name=x lib=justname\n").ok());
  EXPECT_FALSE(analyze_source("// @comt-kernel name=x work=-5\n").ok());
  EXPECT_FALSE(analyze_source("// @comt-kernel name=x badfield\n").ok());
}

TEST(AnalyzeTest, RejectsOversubscribedFractions) {
  auto info = analyze_source("// @comt-kernel name=x work=1 vec=0.6 mem=0.6\n");
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.error().code, Errc::invalid_argument);
}

// Property: generate_source/analyze_source round trip, over kernel sweeps.
struct GenCase {
  const char* name;
  KernelTrait kernel;
};

// Without this, gtest prints GetParam() as raw bytes, pointers included, so
// the listed test names would change with every build and every run.
void PrintTo(const GenCase& c, std::ostream* os) { *os << c.name; }

KernelTrait make_kernel(std::string name, double vec, double mem, double lib_frac,
                        double pgo) {
  KernelTrait kernel;
  kernel.name = std::move(name);
  kernel.work = 120;
  kernel.frac_vec = vec;
  kernel.frac_mem = mem;
  if (lib_frac > 0) {
    kernel.lib = "blas";
    kernel.frac_lib = lib_frac;
  }
  kernel.pgo_response = pgo;
  return kernel;
}

class GenerateAnalyzeRoundTrip : public ::testing::TestWithParam<GenCase> {};

TEST_P(GenerateAnalyzeRoundTrip, KernelsSurvive) {
  SourceGenSpec spec;
  spec.unit_name = "unit";
  spec.kernels = {GetParam().kernel};
  spec.includes = {"common.h"};
  spec.uses_mpi = true;
  spec.filler_lines = 25;
  std::string text = generate_source(spec);

  auto info = analyze_source(text);
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  ASSERT_EQ(info.value().kernels.size(), 1u);
  EXPECT_EQ(info.value().kernels[0], GetParam().kernel);
  EXPECT_TRUE(info.value().uses_mpi);
  EXPECT_EQ(info.value().includes, std::vector<std::string>{"common.h"});
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GenerateAnalyzeRoundTrip,
    ::testing::Values(GenCase{"plain", make_kernel("plain", 0, 0, 0, 0)},
                      GenCase{"vec", make_kernel("vec_heavy", 0.75, 0.1, 0, 0)},
                      GenCase{"mem", make_kernel("mem_bound", 0.1, 0.8, 0, 0)},
                      GenCase{"lib", make_kernel("lib_bound", 0.1, 0.1, 0.6, 0)},
                      GenCase{"neg_pgo", make_kernel("regressor", 0.2, 0.2, 0, -0.5)},
                      GenCase{"pos_pgo", make_kernel("trainee", 0.2, 0.2, 0, 0.9)}),
    [](const auto& info) { return info.param.name; });

TEST(GenerateTest, IsaMarkersEmitted) {
  SourceGenSpec spec;
  spec.unit_name = "tuned";
  spec.isa_specific = {"x86_64"};
  spec.filler_lines = 5;
  auto info = analyze_source(generate_source(spec));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().isa_specific, std::vector<std::string>{"x86_64"});
}

TEST(GenerateTest, FillerScalesSize) {
  SourceGenSpec small;
  small.unit_name = "s";
  small.filler_lines = 10;
  SourceGenSpec large = small;
  large.filler_lines = 200;
  EXPECT_GT(generate_source(large).size(), generate_source(small).size() * 5);
}

}  // namespace
}  // namespace comt::toolchain
