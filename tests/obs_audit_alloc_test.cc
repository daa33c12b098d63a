/**
 * @file
 * Exact, noise-free gates on the invariant auditor's work: auditing a
 * clean full-year recording performs zero heap allocations (nothing
 * is formatted unless a check fails) and evaluates exactly 8 checks
 * per hour plus the two year-total checks. Lives in its own
 * executable because it replaces the global allocation functions
 * (support/counting_new.h).
 */

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "obs/audit.h"
#include "support/counting_new.h"

namespace carbonx
{
namespace
{

ExplainResult
explainUtah(Strategy strategy)
{
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    cfg.flexible_ratio = Fraction(0.4);
    static const CarbonExplorer explorer(cfg);
    return explorer.explain(DesignPoint{MegaWatts(80.0), MegaWatts(80.0),
                                        MegaWattHours(150.0),
                                        Fraction(0.0)},
                            strategy);
}

TEST(InvariantAuditorWork, CleanFullYearAuditAllocatesNothing)
{
    for (const Strategy strategy :
         {Strategy::RenewablesOnly, Strategy::RenewableBattery,
          Strategy::RenewableCas, Strategy::RenewableBatteryCas}) {
        SCOPED_TRACE(strategyName(strategy));
        const ExplainResult ex = explainUtah(strategy);
        const obs::AuditContext context = ex.auditContext();
        obs::AuditReport report;
        EXPECT_EQ(testsupport::allocationsDuring([&] {
                      report = obs::auditRecording(ex.recording, context);
                  }),
                  0u);
        EXPECT_TRUE(report.clean());
    }
}

TEST(InvariantAuditorWork, ChecksAreEightPerHourPlusTwoYearTotals)
{
    const ExplainResult ex = explainUtah(Strategy::RenewableBatteryCas);
    const obs::AuditReport report =
        obs::auditRecording(ex.recording, ex.auditContext());
    ASSERT_TRUE(ex.recording.hasCarbon());
    EXPECT_EQ(report.hours, 8784u); // 2020 is a leap year.
    EXPECT_EQ(report.checks, 8 * report.hours + 2);
    EXPECT_EQ(report.checks, 70274u);
}

TEST(InvariantAuditorWork, CounterSeesTheViolationRecord)
{
    // Guards the zero above against a counter that never counts: a
    // failing check stores its violation on the heap.
    const ExplainResult ex = explainUtah(Strategy::RenewableBatteryCas);
    obs::FlightRecorder tampered = ex.recording;
    tampered.grid_mw[10] += 5.0;
    const obs::AuditContext context = ex.auditContext();
    obs::AuditReport report;
    EXPECT_GT(testsupport::allocationsDuring([&] {
                  report = obs::auditRecording(tampered, context);
              }),
              0u);
    EXPECT_EQ(report.violations.size(), 1u);
}

} // namespace
} // namespace carbonx
