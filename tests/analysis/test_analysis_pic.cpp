// The analyzer against the real PIC pipeline: the full scatter / field /
// gather / push / redistribute machinery must come out clean (no races, no
// tag or phase violations), the happens-before fingerprint must be stable,
// and the two-run determinism audit must pass. These are the negative
// fixtures proving the production communication patterns race-free — and
// the tripwire that catches a future refactoring that breaks them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "pic/simulation.hpp"

namespace picpar::pic {
namespace {

PicParams tiny_params() {
  PicParams p;
  p.grid = mesh::GridDesc(24, 12);
  p.nranks = 6;
  p.dist = particles::Distribution::kGaussian;
  p.init.total = 1024;
  p.init.drift_ux = 0.1;
  p.iterations = 8;
  p.policy = "periodic:3";  // exercise redistribution under the analyzer
  p.machine = sim::CostModel::cm5();
  return p;
}

TEST(AnalysisPic, DisabledByDefault) {
  // Default means PICPAR_ANALYZE unset too (the CI analyzer smoke step
  // exports it for the whole run); it is restored afterwards.
  const char* env = std::getenv("PICPAR_ANALYZE");
  const std::optional<std::string> saved =
      env ? std::optional<std::string>(env) : std::nullopt;
  ::unsetenv("PICPAR_ANALYZE");
  const auto r = run_pic(tiny_params());
  if (saved) ::setenv("PICPAR_ANALYZE", saved->c_str(), 1);
  EXPECT_EQ(r.analysis_findings, -1);
  EXPECT_TRUE(r.analysis_report.empty());
  EXPECT_EQ(r.hb_fingerprint, 0u);
  EXPECT_EQ(r.determinism_audit, -1);
}

TEST(AnalysisPic, FullPipelineIsClean) {
  auto p = tiny_params();
  p.analyze.enabled = true;
  const auto r = run_pic(p);
  EXPECT_EQ(r.analysis_findings, 0) << r.analysis_report;
  EXPECT_TRUE(r.analysis_report.empty());
  EXPECT_NE(r.hb_fingerprint, 0u);
  EXPECT_EQ(r.determinism_audit, -1);  // audit not requested
}

TEST(AnalysisPic, AnalyzerDoesNotChangeTheSimulation) {
  auto p = tiny_params();
  const auto base = run_pic(p);
  p.analyze.enabled = true;
  const auto observed = run_pic(p);
  EXPECT_EQ(observed.total_seconds, base.total_seconds);
  EXPECT_EQ(observed.kinetic_energy, base.kinetic_energy);
  EXPECT_EQ(observed.field_energy, base.field_energy);
  EXPECT_EQ(observed.redistributions, base.redistributions);
}

TEST(AnalysisPic, FingerprintIsReproducible) {
  auto p = tiny_params();
  p.analyze.enabled = true;
  const auto a = run_pic(p);
  const auto b = run_pic(p);
  EXPECT_EQ(a.hb_fingerprint, b.hb_fingerprint);
  // A different workload communicates differently.
  p.init.total = 512;
  const auto c = run_pic(p);
  EXPECT_NE(a.hb_fingerprint, c.hb_fingerprint);
}

TEST(AnalysisPic, DeterminismAuditPasses) {
  auto p = tiny_params();
  p.iterations = 5;
  p.analyze.audit_determinism = true;
  const auto r = run_pic(p);
  EXPECT_EQ(r.determinism_audit, 1);
  EXPECT_EQ(r.analysis_findings, 0) << r.analysis_report;
}

TEST(AnalysisPic, SarPolicyWithFaultsIsCleanToo) {
  // Faulty transport (jitter + duplicates + reordering) changes timing and
  // delivery, but the recovered program must still be analyzer-clean: the
  // transport hides all of it below the message interface.
  auto p = tiny_params();
  p.policy = "sar";
  p.analyze.enabled = true;
  p.faults.latency_jitter_prob = 0.05;
  p.faults.latency_jitter_max_seconds = 1e-4;
  p.faults.duplicate_prob = 0.02;
  p.faults.reorder_prob = 0.02;
  const auto r = run_pic(p);
  EXPECT_EQ(r.analysis_findings, 0) << r.analysis_report;
}

TEST(AnalysisPic, EnvVarEnablesAnalyzerWithoutConfig) {
  ASSERT_EQ(setenv("PICPAR_ANALYZE", "1", 1), 0);
  const auto r = run_pic(tiny_params());
  ASSERT_EQ(unsetenv("PICPAR_ANALYZE"), 0);
  EXPECT_EQ(r.analysis_findings, 0) << r.analysis_report;
  EXPECT_NE(r.hb_fingerprint, 0u);
}

}  // namespace
}  // namespace picpar::pic
