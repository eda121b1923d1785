// Self-test for the drtm_lint transaction-discipline checker: every
// planted violation in testdata/ must be flagged, suppressions must be
// honoured, and — the acceptance gate — the repository's own src/ tree
// must carry zero unsuppressed findings.
#include "tools/drtm_lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace drtm {
namespace lint {
namespace {

namespace fs = std::filesystem;

std::string TestdataDir() { return DRTM_LINT_TESTDATA; }
std::string SourceDir() { return DRTM_SOURCE_DIR; }

Analyzer AnalyzeFixtures(const std::vector<std::string>& names) {
  Analyzer analyzer;
  for (const std::string& name : names) {
    const std::string path = TestdataDir() + "/" + name;
    EXPECT_TRUE(analyzer.AddFileFromDisk(path, "testdata/" + name))
        << "missing fixture " << path;
  }
  analyzer.Run();
  return analyzer;
}

size_t CountRule(const Analyzer& analyzer, const std::string& rule,
                 bool suppressed) {
  size_t n = 0;
  for (const Finding& f : analyzer.findings()) {
    if (f.rule == rule && f.suppressed == suppressed) ++n;
  }
  return n;
}

TEST(DrtmLint, FlagsPlantedTx01RawAccesses) {
  Analyzer a = AnalyzeFixtures({"tx01_raw_store.cc"});
  // node[2]=, *node=, node[1] read, memcpy, base[0]= in the body, plus
  // block[0]= in the one-level-reachable helper.
  EXPECT_GE(CountRule(a, "TX01", /*suppressed=*/false), 6u);
  EXPECT_EQ(CountRule(a, "TX01", /*suppressed=*/true), 1u);
  // The compliant htm:: calls at the end of the body must not fire.
  for (const Finding& f : a.findings()) {
    EXPECT_NE(f.message.find("Store"), 0u);
  }
}

TEST(DrtmLint, RunToCommitBodiesAreTransactBodies) {
  Analyzer a = AnalyzeFixtures({"tx01_raw_store.cc"});
  const bool flagged = std::any_of(
      a.findings().begin(), a.findings().end(), [](const Finding& f) {
        return f.rule == "TX01" && !f.suppressed &&
               f.function == "PlantTx01UntilCommitted";
      });
  EXPECT_TRUE(flagged)
      << "raw store in a TransactUntilCommitted body not found";
}

TEST(DrtmLint, OneLevelCallSummaryReachesHelpers) {
  Analyzer a = AnalyzeFixtures({"tx01_raw_store.cc"});
  const bool helper_flagged = std::any_of(
      a.findings().begin(), a.findings().end(), [](const Finding& f) {
        return f.rule == "TX01" &&
               f.context.find("RawHelper") != std::string::npos;
      });
  EXPECT_TRUE(helper_flagged)
      << "raw store in a function called from a Transact body not found";
}

TEST(DrtmLint, TwoLevelCallSummaryReachesHelpersOfHelpers) {
  Analyzer a = AnalyzeFixtures({"tx01_raw_store.cc"});
  // RawHelperHelper is only reachable through RawHelper — two call
  // levels below the Transact body — and must carry the level-two tag.
  const bool flagged = std::any_of(
      a.findings().begin(), a.findings().end(), [](const Finding& f) {
        return f.rule == "TX01" &&
               f.context.find("'RawHelperHelper'") != std::string::npos &&
               f.context.find("via a helper") != std::string::npos;
      });
  EXPECT_TRUE(flagged)
      << "raw store two call levels below a Transact body not found";
}

TEST(DrtmLint, FixpointCarriesObligationsThroughFourCallLevels) {
  // The old engine capped summary propagation at two levels; the
  // worklist fixpoint must reach DeepRaw four edges below the Transact
  // body and tag it with its depth.
  Analyzer a = AnalyzeFixtures({"tx01_depth4.cc"});
  const bool flagged = std::any_of(
      a.findings().begin(), a.findings().end(), [](const Finding& f) {
        return f.rule == "TX01" && !f.suppressed &&
               f.context.find("'DeepRaw'") != std::string::npos &&
               f.context.find("via 3 helpers") != std::string::npos;
      });
  EXPECT_TRUE(flagged)
      << "raw store four call levels below a Transact body not found";
  // The parallel all-compliant chain must stay silent.
  for (const Finding& f : a.findings()) {
    EXPECT_EQ(f.context.find("CleanLeaf"), std::string::npos) << f.message;
    EXPECT_EQ(f.context.find("CleanMid"), std::string::npos) << f.message;
  }
}

TEST(DrtmLint, El01FlagsUngatedAcquiresOnly) {
  Analyzer a = AnalyzeFixtures({"el01_elastic.cc"});
  ASSERT_EQ(CountRule(a, "EL01", /*suppressed=*/false), 1u);
  const Finding* el01 = nullptr;
  for (const Finding& f : a.findings()) {
    if (f.rule == "EL01") el01 = &f;
  }
  ASSERT_NE(el01, nullptr);
  // Fires in the caller-less gate-free function; the locally-gated and
  // the gated-via-caller acquires stay silent.
  EXPECT_EQ(el01->function, "UngatedAcquire");
}

TEST(DrtmLint, El02FlagsWriteBackWithoutNotify) {
  Analyzer a = AnalyzeFixtures({"el02_notify.cc"});
  ASSERT_EQ(CountRule(a, "EL02", /*suppressed=*/false), 1u);
  for (const Finding& f : a.findings()) {
    if (f.rule != "EL02") continue;
    EXPECT_EQ(f.function, "BadCommit");
    EXPECT_NE(f.message.find("NotifyCommittedWrites"), std::string::npos);
  }
}

TEST(DrtmLint, Ls01FlagsEarlySubscriptionOnly) {
  Analyzer a = AnalyzeFixtures({"ls01_subscription.cc"});
  ASSERT_EQ(CountRule(a, "LS01", /*suppressed=*/false), 1u);
  for (const Finding& f : a.findings()) {
    if (f.rule != "LS01") continue;
    // Only the probe-before-data function fires; the deferred probes
    // (including the one followed by a neutral softtime read and a
    // lease-clearing store) stay silent.
    EXPECT_EQ(f.function, "EarlyProbeRead");
  }
}

TEST(DrtmLint, Ls02FlagsLeaseAgainstUnsyncedClock) {
  Analyzer a = AnalyzeFixtures({"ls02_time.cc"});
  ASSERT_EQ(CountRule(a, "LS02", /*suppressed=*/false), 1u);
  for (const Finding& f : a.findings()) {
    if (f.rule != "LS02") continue;
    EXPECT_EQ(f.function, "StaleLeaseCheck");
    EXPECT_NE(f.message.find("MonotonicNanos"), std::string::npos);
  }
}

TEST(DrtmLint, Cp01FlagsUncoveredEntryPointsAndBuildsCatalog) {
  Options options;
  options.chaos_entry_points = {{"cp01_chaos", "MutateUncovered"},
                                {"cp01_chaos", "MutateCovered"},
                                {"cp01_chaos", "FlushEpoch"}};
  Analyzer analyzer(options);
  ASSERT_TRUE(analyzer.AddFileFromDisk(TestdataDir() + "/cp01_chaos.cc",
                                       "testdata/cp01_chaos.cc"));
  analyzer.Run();
  size_t cp01 = 0;
  for (const Finding& f : analyzer.findings()) {
    if (f.rule != "CP01") continue;
    ++cp01;
    EXPECT_EQ(f.function, "MutateUncovered");
  }
  EXPECT_EQ(cp01, 1u);
  // Point("...") string literals feed the registered-point catalog.
  const std::vector<std::string>& catalog = analyzer.chaos_point_catalog();
  EXPECT_NE(std::find(catalog.begin(), catalog.end(), "fixture.rpc.mutate"),
            catalog.end());
  EXPECT_NE(std::find(catalog.begin(), catalog.end(), "fixture.epoch.flush"),
            catalog.end());
}

TEST(DrtmLint, FlagsPlantedTx02SideEffects) {
  Analyzer a = AnalyzeFixtures({"tx02_side_effects.cc"});
  // new, .lock(), printf, .unlock(), delete.
  EXPECT_EQ(CountRule(a, "TX02", /*suppressed=*/false), 5u);
}

TEST(DrtmLint, FlagsPlantedTx03OutsideAllowlist) {
  Analyzer a = AnalyzeFixtures({"tx03_strong.cc"});
  EXPECT_EQ(CountRule(a, "TX03", /*suppressed=*/false), 1u);
  EXPECT_EQ(CountRule(a, "TX03", /*suppressed=*/true), 1u);
}

TEST(DrtmLint, AllowsStrongAccessesInAllowlistedPaths) {
  Analyzer analyzer;
  // Same content is legal when it lives in the RDMA substrate.
  std::ifstream in(TestdataDir() + "/tx03_strong.cc");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  ASSERT_TRUE(analyzer.AddFile("src/rdma/fixture.cc", content));
  analyzer.Run();
  EXPECT_EQ(analyzer.findings().size(), 0u);
}

TEST(DrtmLint, AllowsStrongAccessesInBatchedVerbPaths) {
  // The batch submission/poll paths carry their own allowlist entries,
  // independent of the directory-wide "src/rdma/" fragment.
  Options options;
  options.strong_allowlist = {"src/rdma/fabric.", "src/rdma/verbs_batch."};
  Analyzer analyzer(options);
  const std::string strong_call =
      "void f(unsigned char* d, const unsigned char* s) {\n"
      "  drtm::htm::StrongWrite(d, s, 8);\n"
      "}\n";
  ASSERT_TRUE(analyzer.AddFile("src/rdma/verbs_batch.cc", strong_call));
  ASSERT_TRUE(analyzer.AddFile("src/rdma/fabric.cc", strong_call));
  ASSERT_TRUE(analyzer.AddFile("src/txn/rogue.cc", strong_call));
  analyzer.Run();
  ASSERT_EQ(analyzer.findings().size(), 1u);
  EXPECT_EQ(analyzer.findings()[0].file, "src/txn/rogue.cc");
  EXPECT_EQ(analyzer.findings()[0].rule, "TX03");
}

TEST(DrtmLint, AllowsStrongAccessesInPhaseScatterPaths) {
  // The scatter-gather phase engine has its own allowlist entry; its
  // WQEs execute through the same strong accessors as the scalar verbs.
  Options options;
  options.strong_allowlist = {"src/rdma/phase_scatter."};
  Analyzer analyzer(options);
  const std::string strong_call =
      "void f(unsigned char* d, const unsigned char* s) {\n"
      "  drtm::htm::StrongWrite(d, s, 8);\n"
      "}\n";
  ASSERT_TRUE(analyzer.AddFile("src/rdma/phase_scatter.cc", strong_call));
  ASSERT_TRUE(analyzer.AddFile("src/txn/rogue.cc", strong_call));
  analyzer.Run();
  ASSERT_EQ(analyzer.findings().size(), 1u);
  EXPECT_EQ(analyzer.findings()[0].file, "src/txn/rogue.cc");
  EXPECT_EQ(analyzer.findings()[0].rule, "TX03");
}

TEST(DrtmLint, FlagsPlantedTx04CatchClauses) {
  Analyzer a = AnalyzeFixtures({"tx04_catch.cc"});
  EXPECT_EQ(CountRule(a, "TX04", /*suppressed=*/false), 2u);
}

TEST(DrtmLint, CleanFixtureHasNoFindings) {
  Analyzer a = AnalyzeFixtures({"clean.cc"});
  for (const Finding& f : a.findings()) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

TEST(DrtmLint, SuppressionReasonIsPreserved) {
  Analyzer a = AnalyzeFixtures({"tx03_strong.cc"});
  bool found = false;
  for (const Finding& f : a.findings()) {
    if (f.suppressed) {
      found = true;
      EXPECT_NE(f.suppress_reason.find("bulk-load path"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DrtmLint, FileScopeSuppressionCoversWholeFile) {
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.AddFile(
      "scratch/a.cc",
      "// drtm-lint: allow-file(TX03 fixture-wide exemption)\n"
      "void f(unsigned char* d, const unsigned char* s) {\n"
      "  drtm::htm::StrongWrite(d, s, 8);\n"
      "  drtm::htm::StrongRead(d, s, 8);\n"
      "}\n"));
  analyzer.Run();
  ASSERT_EQ(analyzer.findings().size(), 2u);
  EXPECT_TRUE(analyzer.findings()[0].suppressed);
  EXPECT_TRUE(analyzer.findings()[1].suppressed);
  EXPECT_TRUE(analyzer.Unsuppressed().empty());
}

TEST(DrtmLint, DeduplicatesHeaderFindingsAcrossTranslationUnits) {
  // The same header-inlined violation reached from Transact bodies in
  // two different translation units must key to ONE report entry (one
  // fingerprint), not one per includer.
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.AddFile(
      "scratch/helper.h",
      "inline void HdrRaw(unsigned char* p) { p[0] = 1; }\n"));
  const std::string tu =
      "void Run$(drtm::htm::HtmThread& htm, unsigned char* base) {\n"
      "  htm.Transact([&] { HdrRaw(base); });\n"
      "}\n";
  std::string tu1 = tu, tu2 = tu;
  tu1.replace(tu1.find('$'), 1, "1");
  tu2.replace(tu2.find('$'), 1, "2");
  ASSERT_TRUE(analyzer.AddFile("scratch/tu1.cc", tu1));
  ASSERT_TRUE(analyzer.AddFile("scratch/tu2.cc", tu2));
  analyzer.Run();
  size_t header_findings = 0;
  std::string fingerprint;
  for (const Finding& f : analyzer.findings()) {
    if (f.rule == "TX01" && f.file == "scratch/helper.h") {
      ++header_findings;
      fingerprint = f.fingerprint;
    }
  }
  EXPECT_EQ(header_findings, 1u);
  EXPECT_EQ(fingerprint.size(), 16u);
}

TEST(DrtmLint, FingerprintsAreStableAcrossLineChurn) {
  // Inserting unrelated lines above a finding must not change its
  // fingerprint — that is what keeps baselines from churning.
  const std::string body =
      "void Helper(unsigned char* p) { p[0] = 1; }\n"
      "void Run(drtm::htm::HtmThread& htm, unsigned char* base) {\n"
      "  htm.Transact([&] { Helper(base); });\n"
      "}\n";
  Analyzer a1;
  ASSERT_TRUE(a1.AddFile("scratch/a.cc", body));
  a1.Run();
  Analyzer a2;
  ASSERT_TRUE(a2.AddFile("scratch/a.cc",
                         "static int unrelated_padding = 0;\n\n\n" + body));
  a2.Run();
  ASSERT_EQ(a1.findings().size(), 1u);
  ASSERT_EQ(a2.findings().size(), 1u);
  EXPECT_NE(a1.findings()[0].line, a2.findings()[0].line);
  EXPECT_EQ(a1.findings()[0].fingerprint, a2.findings()[0].fingerprint);
}

TEST(DrtmLint, BaselineRoundTripSuppressesAndReportsStale) {
  Analyzer a = AnalyzeFixtures({"tx03_strong.cc"});
  ASSERT_EQ(CountRule(a, "TX03", /*suppressed=*/false), 1u);
  // Serialize the unsuppressed finding, parse it back, apply: the
  // finding is suppressed with the baseline rationale.
  const std::string text = FormatBaseline(a.findings());
  std::vector<BaselineEntry> entries;
  std::string error;
  ASSERT_TRUE(ParseBaseline(text, &entries, &error)) << error;
  ASSERT_EQ(entries.size(), 1u);
  entries[0].rationale = "fixture exemption for the round-trip test";
  // A second entry matching nothing must come back as stale.
  BaselineEntry bogus;
  bogus.fingerprint = "00000000deadbeef";
  bogus.rule = "TX03";
  bogus.file = "testdata/tx03_strong.cc";
  bogus.rationale = "stale on purpose";
  entries.push_back(bogus);
  std::vector<BaselineEntry> stale;
  a.ApplyBaseline(entries, &stale);
  EXPECT_EQ(CountRule(a, "TX03", /*suppressed=*/false), 0u);
  bool rationale_carried = false;
  for (const Finding& f : a.findings()) {
    if (f.suppress_reason.find("round-trip test") != std::string::npos) {
      rationale_carried = true;
    }
  }
  EXPECT_TRUE(rationale_carried);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].fingerprint, "00000000deadbeef");
}

TEST(DrtmLint, BaselineParserRejectsMissingRationale) {
  std::vector<BaselineEntry> entries;
  std::string error;
  EXPECT_FALSE(ParseBaseline(
      "0123456789abcdef TX01 src/a.cc ::\n", &entries, &error));
  EXPECT_NE(error.find("rationale"), std::string::npos);
  error.clear();
  EXPECT_FALSE(ParseBaseline("not a baseline line\n", &entries, &error));
  EXPECT_FALSE(error.empty());
  // Comments and blanks are fine.
  entries.clear();
  EXPECT_TRUE(ParseBaseline("# comment\n\n0123456789abcdef TX01 a.cc :: x\n",
                            &entries, &error));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rationale, "x");
}

TEST(DrtmLint, JsonReportFollowsBenchConventions) {
  Analyzer a = AnalyzeFixtures({"tx01_raw_store.cc", "tx03_strong.cc"});
  const stat::Json report = a.ReportJson();
  ASSERT_TRUE(report.is_object());
  ASSERT_NE(report.Find("schema_version"), nullptr);
  EXPECT_EQ(report.Find("schema_version")->AsNumber(), 2.0);
  EXPECT_EQ(report.Find("report")->AsString(), "drtm_lint");
  ASSERT_NE(report.Find("config"), nullptr);
  ASSERT_NE(report.Find("counters"), nullptr);
  const stat::Json* findings = report.Find("findings");
  ASSERT_NE(findings, nullptr);
  EXPECT_EQ(findings->size(), a.findings().size());
  const stat::Json* tx01 = report.Find("counters")->Find("lint.TX01");
  ASSERT_NE(tx01, nullptr);
  EXPECT_GE(tx01->AsNumber(), 6.0);
  // The new rule families have counters even at zero, findings carry
  // fingerprints, and the chaos point catalog is present.
  for (const char* rule : {"EL01", "EL02", "LS01", "LS02", "CP01"}) {
    ASSERT_NE(report.Find("counters")->Find(std::string("lint.") + rule),
              nullptr)
        << rule;
  }
  ASSERT_GT(findings->size(), 0u);
  const stat::Json* fp = findings->at(0).Find("fingerprint");
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->AsString().size(), 16u);
  ASSERT_NE(report.Find("chaos_point_catalog"), nullptr);
  // Round-trips through the strict parser.
  stat::Json parsed;
  EXPECT_TRUE(stat::Json::Parse(report.Dump(true), &parsed));
}

TEST(DrtmLint, ReadsCompileCommands) {
  const std::string path =
      (fs::temp_directory_path() / "drtm_lint_compdb_test.json").string();
  {
    std::ofstream out(path);
    out << "[{\"directory\": \"/x\", \"command\": \"c++ a.cc\", "
           "\"file\": \"/x/a.cc\"},\n"
           " {\"directory\": \"/x\", \"command\": \"c++ b.cc\", "
           "\"file\": \"/x/b.cc\"}]\n";
  }
  std::vector<std::string> files;
  ASSERT_TRUE(ReadCompileCommands(path, &files));
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/x/a.cc");
  EXPECT_EQ(files[1], "/x/b.cc");
  fs::remove(path);
}

// The acceptance gate: the repository's own transactional layers carry
// zero unsuppressed findings after the committed baseline is applied.
// Intentional exceptions live either in place as drtm-lint: allow(...)
// comments or in tools/drtm_lint/lint_baseline.txt with a per-entry
// rationale; a stale baseline entry (fixed finding, line not deleted)
// fails the gate just like a fresh violation.
TEST(DrtmLint, RepoSourcesHaveNoUnsuppressedFindings) {
  Analyzer analyzer;
  size_t added = 0;
  const fs::path src = fs::path(SourceDir()) / "src";
  ASSERT_TRUE(fs::exists(src)) << src;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    const std::string rel =
        fs::relative(entry.path(), SourceDir()).generic_string();
    ASSERT_TRUE(analyzer.AddFileFromDisk(entry.path().string(), rel));
    ++added;
  }
  EXPECT_GT(added, 40u) << "src/ walk looks incomplete";
  analyzer.Run();

  std::vector<BaselineEntry> baseline;
  std::string error;
  ASSERT_TRUE(LoadBaselineFile(
      SourceDir() + std::string("/tools/drtm_lint/lint_baseline.txt"),
      &baseline, &error))
      << error;
  EXPECT_FALSE(baseline.empty());
  std::vector<BaselineEntry> stale;
  analyzer.ApplyBaseline(baseline, &stale);

  for (const Finding& f : analyzer.Unsuppressed()) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message << " (" << f.context << ") {" << f.fingerprint
                  << "}";
  }
  for (const BaselineEntry& e : stale) {
    ADD_FAILURE() << "stale baseline entry " << e.fingerprint << " (" << e.rule
                  << " " << e.file << "): finding fixed — delete the line";
  }
  // The repo's chaos point catalog is visible to CP01 and includes the
  // migration-path RPC points, the group-commit epoch points, and the
  // ordered-store RPC points (deliberately not transient: a dropped
  // structural op must surface as a failed RPC, not a silent retry).
  const std::vector<std::string>& catalog = analyzer.chaos_point_catalog();
  for (const char* point : {"txn.fallback.unlock", "rpc.upsert", "rpc.erase",
                            "rpc.cache_inval", "log.epoch.seal",
                            "log.epoch.flush", "rpc.ordered.get",
                            "rpc.ordered.scan", "rpc.ordered.insert",
                            "rpc.ordered.remove"}) {
    EXPECT_NE(std::find(catalog.begin(), catalog.end(), point), catalog.end())
        << point;
  }
}

}  // namespace
}  // namespace lint
}  // namespace drtm
