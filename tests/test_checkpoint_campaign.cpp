// Fuzz-campaign cursor checkpointing (verify::CampaignConfig::
// checkpoint_path): a campaign stopped mid-way (stop_after_cases, the
// deterministic stand-in for a kill) and resumed from its cursor file
// produces verdicts and summary text byte-identical to an uninterrupted
// campaign, a cursor written under a different campaign raises the
// typed kMismatch error, and a CRC-valid cursor declaring more verdicts
// than it holds raises kCorrupt.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "snapshot/format.h"
#include "snapshot/io.h"
#include "verify/campaign.h"

namespace asyncmac {
namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;
using verify::CampaignConfig;
using verify::CampaignResult;

CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.seed = 515;
  cfg.cases = 160;  // 2.5 campaign chunks (kChunk = 64)
  cfg.jobs = 2;
  cfg.shrink = false;
  return cfg;
}

void expect_same_verdicts(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].index, b.verdicts[i].index);
    EXPECT_EQ(a.verdicts[i].case_seed, b.verdicts[i].case_seed);
    EXPECT_EQ(a.verdicts[i].ok, b.verdicts[i].ok);
    EXPECT_EQ(a.verdicts[i].violation, b.verdicts[i].violation);
  }
}

TEST(CheckpointCampaign, StopAndResumeMatchesUninterruptedRun) {
  const CampaignResult control = verify::run_campaign(base_config());
  ASSERT_EQ(control.cases_run, 160u);

  const std::string cursor = "campaign_cursor_test.snap";
  std::remove(cursor.c_str());

  // First leg: stop cleanly past 70 cases (rounded up to a chunk
  // boundary) with the cursor on disk.
  CampaignConfig cfg = base_config();
  cfg.checkpoint_path = cursor;
  cfg.stop_after_cases = 70;  // rounds up to the 128-case boundary
  const CampaignResult partial = verify::run_campaign(cfg);
  EXPECT_TRUE(partial.budget_exhausted);
  EXPECT_GE(partial.cases_run, 70u);
  EXPECT_LT(partial.cases_run, 160u);

  // The partial verdicts are a prefix of the control's.
  ASSERT_LE(partial.verdicts.size(), control.verdicts.size());
  for (std::size_t i = 0; i < partial.verdicts.size(); ++i)
    EXPECT_EQ(partial.verdicts[i].case_seed, control.verdicts[i].case_seed);

  // Second leg: same campaign, no stop — resumes from the cursor and
  // completes. Everything observable matches the uninterrupted run.
  cfg.stop_after_cases = 0;
  const CampaignResult resumed = verify::run_campaign(cfg);
  EXPECT_EQ(resumed.cases_run, 160u);
  EXPECT_FALSE(resumed.budget_exhausted);
  expect_same_verdicts(resumed, control);
  EXPECT_EQ(verify::summarize(resumed), verify::summarize(control));

  // A third run resumes a fully-complete cursor: nothing reruns, same
  // answer again.
  const CampaignResult replayed = verify::run_campaign(cfg);
  expect_same_verdicts(replayed, control);
  std::remove(cursor.c_str());
}

TEST(CheckpointCampaign, CursorFromDifferentCampaignIsMismatch) {
  const std::string cursor = "campaign_cursor_mismatch.snap";
  std::remove(cursor.c_str());
  CampaignConfig cfg = base_config();
  cfg.cases = 64;
  cfg.checkpoint_path = cursor;
  verify::run_campaign(cfg);

  // Different campaign seed, same cursor path: must refuse, not resume.
  CampaignConfig other = cfg;
  other.seed = cfg.seed + 1;
  try {
    verify::run_campaign(other);
    FAIL() << "expected SnapshotError(kMismatch)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMismatch) << e.what();
  }

  // Different case count: also a different campaign.
  CampaignConfig wider = cfg;
  wider.cases = 128;
  try {
    verify::run_campaign(wider);
    FAIL() << "expected SnapshotError(kMismatch)";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMismatch) << e.what();
  }
  std::remove(cursor.c_str());
}

TEST(CheckpointCampaign, CursorWithCraftedVerdictCountIsCorrupt) {
  const std::string cursor = "campaign_cursor_crafted.snap";
  std::remove(cursor.c_str());
  CampaignConfig cfg = base_config();
  cfg.cases = 64;
  cfg.checkpoint_path = cursor;
  verify::run_campaign(cfg);
  const std::vector<std::uint8_t> saved =
      snapshot::read_file(cursor, snapshot::FileKind::kCampaignCursor);

  // The verdict count follows the u32 campaign fingerprint. Rewritten
  // through write_file, the frame and its CRC stay valid.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    SCOPED_TRACE(count);
    std::vector<std::uint8_t> payload = saved;
    ASSERT_GE(payload.size(), 12u);
    for (std::size_t i = 0; i < 8; ++i)
      payload[4 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    snapshot::write_file(cursor, snapshot::FileKind::kCampaignCursor,
                         payload);
    try {
      verify::run_campaign(cfg);
      ADD_FAILURE() << "expected SnapshotError(kCorrupt)";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCorrupt) << e.what();
    }
  }
  std::remove(cursor.c_str());
}

}  // namespace
}  // namespace asyncmac
