/**
 * @file
 * Decision journal against live sweeps: every row the exhaustive and
 * adaptive paths emit must reconcile exactly with the sweep's own
 * statistics, actual totals must match the evaluations bit-for-bit,
 * attaching a journal must not perturb results at any thread count,
 * and the multi-threaded emission path must be race-free (this suite
 * runs under TSan in CI).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "obs/journal.h"
#include "obs/status.h"
#include "support/temp_dir.h"

namespace carbonx
{
namespace
{

/** RAII guard restoring the automatic thread count. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(size_t n) { setThreadCount(n); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

std::string
tempPath(const std::string &name)
{
    return testsupport::uniqueTestDir() + name;
}

ExplorerConfig
ercoConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "ERCO";
    cfg.seed = 2020;
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    return cfg;
}

DesignSpace
ercoSpace()
{
    return DesignSpace::forDatacenter(19.0, 10.0, 13, 1, 1);
}

uint64_t
pointIdOf(const DesignPoint &p)
{
    return obs::decisionPointId(
        {p.solar_mw.value(), p.wind_mw.value(),
         p.battery_mwh.value(), p.extra_capacity.value()});
}

size_t
countVerdict(const std::vector<obs::DecisionRow> &rows,
             obs::DecisionVerdict verdict)
{
    size_t n = 0;
    for (const obs::DecisionRow &row : rows)
        n += row.verdict == verdict ? 1 : 0;
    return n;
}

TEST(JournalSweep, ExhaustiveSweepJournalsEveryPointBitExactly)
{
    const std::string path = tempPath("journal_sweep_exhaustive.cxj");
    std::remove(path.c_str());
    CarbonExplorer explorer(ercoConfig());
    obs::DecisionJournal journal(path, 1);
    explorer.setJournal(&journal);
    const OptimizationResult result =
        explorer.optimize(ercoSpace(), Strategy::RenewablesOnly);
    explorer.setJournal(nullptr);
    journal.flush();

    const obs::JournalData data = obs::readJournal(path);
    ASSERT_EQ(data.rows.size(), result.evaluated.size());

    std::map<uint64_t, double> actual_by_id;
    for (const obs::DecisionRow &row : data.rows) {
        EXPECT_EQ(row.verdict, obs::DecisionVerdict::Evaluated);
        EXPECT_TRUE(std::isnan(row.predicted_kg));
        EXPECT_TRUE(std::isnan(row.margin_kg));
        EXPECT_TRUE(std::isfinite(row.actual_kg));
        actual_by_id[row.point_id] = row.actual_kg;
    }
    // Point ids are unique across the lattice and each row's actual
    // total is the evaluation's, bit-for-bit.
    ASSERT_EQ(actual_by_id.size(), result.evaluated.size());
    for (const Evaluation &eval : result.evaluated) {
        const auto it = actual_by_id.find(pointIdOf(eval.point));
        ASSERT_NE(it, actual_by_id.end());
        EXPECT_EQ(it->second, eval.totalKg().value());
    }
    std::remove(path.c_str());
}

TEST(JournalSweep, AdaptiveRowsReconcileWithStatsAtEveryThreadCount)
{
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{0}}) {
        ThreadCountGuard guard(threads);
        SCOPED_TRACE("threads " + std::to_string(threads));
        const std::string path =
            tempPath("journal_sweep_adaptive.cxj");
        std::remove(path.c_str());
        CarbonExplorer explorer(ercoConfig());
        obs::DecisionJournal journal(path, 2);
        explorer.setJournal(&journal);
        const AdaptiveSweepResult adaptive =
            AdaptiveSweeper(explorer).sweep(ercoSpace(),
                                            Strategy::RenewablesOnly);
        explorer.setJournal(nullptr);
        journal.flush();

        const obs::JournalData data = obs::readJournal(path);
        const AdaptiveSweepStats &st = adaptive.stats;
        EXPECT_GT(st.points_skipped, 0u);

        const size_t evaluated = countVerdict(
            data.rows, obs::DecisionVerdict::Evaluated);
        const size_t interpolated = countVerdict(
            data.rows, obs::DecisionVerdict::Interpolated);
        const size_t skipped =
            countVerdict(data.rows, obs::DecisionVerdict::Skipped);
        const size_t re_armed =
            countVerdict(data.rows, obs::DecisionVerdict::ReArmed);
        const size_t cache_hits =
            countVerdict(data.rows, obs::DecisionVerdict::CacheHit);

        // Exact reconciliation: simulated rows vs simulated points,
        // standing skips vs the stats' skip count, replays vs hits.
        EXPECT_EQ(evaluated + interpolated + re_armed,
                  st.simulated_points);
        EXPECT_EQ(skipped - re_armed, st.points_skipped);
        EXPECT_EQ(cache_hits, st.cache_hits);

        // Verdict-specific column contracts.
        for (const obs::DecisionRow &row : data.rows) {
            switch (row.verdict) {
            case obs::DecisionVerdict::Evaluated:
                EXPECT_TRUE(std::isnan(row.predicted_kg));
                EXPECT_TRUE(std::isfinite(row.actual_kg));
                break;
            case obs::DecisionVerdict::Interpolated:
            case obs::DecisionVerdict::ReArmed:
                EXPECT_TRUE(std::isfinite(row.predicted_kg));
                EXPECT_TRUE(std::isfinite(row.margin_kg));
                EXPECT_TRUE(std::isfinite(row.actual_kg));
                break;
            case obs::DecisionVerdict::Skipped:
                EXPECT_TRUE(std::isfinite(row.predicted_kg));
                EXPECT_TRUE(std::isfinite(row.margin_kg));
                EXPECT_TRUE(std::isnan(row.actual_kg));
                break;
            default:
                ADD_FAILURE() << "unexpected verdict";
            }
        }
        std::remove(path.c_str());
    }
}

TEST(JournalSweep, JournalingPerturbsNoResultAtAnyThreadCount)
{
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{0}}) {
        ThreadCountGuard guard(threads);
        SCOPED_TRACE("threads " + std::to_string(threads));

        CarbonExplorer bare(ercoConfig());
        const AdaptiveSweepResult without =
            AdaptiveSweeper(bare).sweep(ercoSpace(),
                                        Strategy::RenewablesOnly);

        const std::string path =
            tempPath("journal_sweep_identity.cxj");
        std::remove(path.c_str());
        CarbonExplorer journaled(ercoConfig());
        obs::DecisionJournal journal(path, 3);
        obs::RunStatus status;
        journaled.setJournal(&journal);
        journaled.setRunStatus(&status);
        const AdaptiveSweepResult with =
            AdaptiveSweeper(journaled).sweep(ercoSpace(),
                                             Strategy::RenewablesOnly);
        journaled.setJournal(nullptr);
        journaled.setRunStatus(nullptr);

        EXPECT_EQ(with.result.best.totalKg().value(),
                  without.result.best.totalKg().value());
        ASSERT_EQ(with.result.evaluated.size(),
                  without.result.evaluated.size());
        for (size_t i = 0; i < with.result.evaluated.size(); ++i) {
            EXPECT_EQ(with.result.evaluated[i].totalKg().value(),
                      without.result.evaluated[i].totalKg().value())
                << "evaluation " << i;
        }
        // The status page saw the sweep's waves.
        const obs::RunStatus::Snapshot snap = status.snapshot();
        EXPECT_GT(snap.waves_done, 0u);
        std::remove(path.c_str());
    }
}

TEST(JournalSweep, CacheReplayJournalsCacheHitRows)
{
    const std::string cache_path =
        tempPath("journal_sweep_cache.cxrc");
    const std::string journal_path =
        tempPath("journal_sweep_cachehits.cxj");
    std::remove(cache_path.c_str());
    std::remove(journal_path.c_str());

    CarbonExplorer explorer(ercoConfig());
    const uint64_t digest =
        explorer.configDigest(Strategy::RenewablesOnly);

    // Cold pass fills the cache (no journal).
    {
        SweepResultCache cache(cache_path, digest);
        explorer.setSweepCache(&cache);
        AdaptiveSweeper(explorer).sweep(ercoSpace(),
                                        Strategy::RenewablesOnly);
        explorer.setSweepCache(nullptr);
    }

    // Warm pass replays everything; every replay must journal.
    SweepResultCache warm(cache_path, digest);
    ASSERT_GT(warm.loadedFromDisk(), 0u);
    explorer.setSweepCache(&warm);
    obs::DecisionJournal journal(journal_path, digest);
    explorer.setJournal(&journal);
    const AdaptiveSweepResult result =
        AdaptiveSweeper(explorer).sweep(ercoSpace(),
                                        Strategy::RenewablesOnly);
    explorer.setJournal(nullptr);
    explorer.setSweepCache(nullptr);
    journal.flush();

    EXPECT_EQ(result.stats.simulated_points, 0u);
    const obs::JournalData data = obs::readJournal(journal_path);
    EXPECT_EQ(countVerdict(data.rows, obs::DecisionVerdict::CacheHit),
              result.stats.cache_hits);
    for (const obs::DecisionRow &row : data.rows) {
        if (row.verdict != obs::DecisionVerdict::CacheHit)
            continue;
        EXPECT_EQ(row.worker, 0) << "replays run on the coordinator";
        EXPECT_TRUE(std::isfinite(row.actual_kg));
        EXPECT_TRUE(std::isnan(row.predicted_kg));
    }
    std::remove(cache_path.c_str());
    std::remove(journal_path.c_str());
}

} // namespace
} // namespace carbonx
