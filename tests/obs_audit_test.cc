/**
 * @file
 * Invariant auditor tests: a real explain() recording must audit
 * clean under every strategy with exact carbon reconciliation, and a
 * deliberately corrupted recording must trip exactly the invariant
 * that guards the tampered column. Tampering happens here (tests are
 * outside the carbonx-lint recorder-field-write fence by design — the
 * rule protects src/ and tools/ consumers, not the auditor's own
 * adversarial fixtures).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "obs/audit.h"

namespace carbonx
{
namespace
{

ExplorerConfig
utahConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    cfg.flexible_ratio = Fraction(0.4);
    return cfg;
}

const CarbonExplorer &
utahExplorer()
{
    static const CarbonExplorer explorer(utahConfig());
    return explorer;
}

/** One explained run reused by every tampering test. */
const ExplainResult &
holisticExplain()
{
    static const ExplainResult result = utahExplorer().explain(
        DesignPoint{MegaWatts(80.0), MegaWatts(80.0),
                    MegaWattHours(150.0), Fraction(0.0)},
        Strategy::RenewableBatteryCas);
    return result;
}

size_t
countInvariant(const obs::AuditReport &report, const std::string &name)
{
    return static_cast<size_t>(std::count_if(
        report.violations.begin(), report.violations.end(),
        [&](const obs::InvariantViolation &v) {
            return v.invariant() == name;
        }));
}

TEST(InvariantAuditor, RealRunAuditsCleanUnderEveryStrategy)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignPoint point{MegaWatts(80.0), MegaWatts(80.0),
                            MegaWattHours(150.0), Fraction(0.5)};
    for (const Strategy strategy :
         {Strategy::RenewablesOnly, Strategy::RenewableBattery,
          Strategy::RenewableCas, Strategy::RenewableBatteryCas}) {
        SCOPED_TRACE(strategyName(strategy));
        const ExplainResult res = ex.explain(point, strategy);
        const obs::AuditReport report =
            obs::auditRecording(res.recording, res.auditContext());
        EXPECT_TRUE(report.clean()) << [&] {
            std::ostringstream os;
            report.write(os);
            return os.str();
        }();
        EXPECT_EQ(report.hours, res.recording.hours());
        EXPECT_GT(report.checks, report.hours * 7);
        // Exact reconciliation, not approximate: zero float gap.
        EXPECT_EQ(report.recorded_carbon_kg,
                  res.evaluation.operational_kg.value());
    }
}

TEST(InvariantAuditor, EnergyBalanceTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.grid_mw[10] += 5.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_FALSE(report.clean());
    EXPECT_GE(countInvariant(report, "energy-balance"), 1u);
    const auto hit = std::find_if(
        report.violations.begin(), report.violations.end(),
        [](const obs::InvariantViolation &v) {
            return v.invariant() == "energy-balance";
        });
    ASSERT_NE(hit, report.violations.end());
    EXPECT_EQ(hit->hour, 10u);
    EXPECT_GT(hit->excess, 4.0);
    EXPECT_NE(hit->format().find("hour 10"), std::string::npos);
    EXPECT_NE(hit->format().find("[energy-balance]"),
              std::string::npos);
}

TEST(InvariantAuditor, SocBoundsTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.battery_energy_mwh[3] = -1.0;
    rec.battery_energy_mwh[4] =
        base.battery_capacity_mwh.value() + 2.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_EQ(countInvariant(report, "soc-bounds"), 2u);
}

TEST(InvariantAuditor, CapacityCapTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.served_mw[7] = base.capacity_cap_mw.value() + 1.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_GE(countInvariant(report, "capacity-cap"), 1u);
}

TEST(InvariantAuditor, CurtailmentTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.curtailed_mw[12] += 3.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_GE(countInvariant(report, "curtailment"), 1u);
}

TEST(InvariantAuditor, BacklogTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();

    // A backlog jump with nothing shifted in: work from nowhere.
    obs::FlightRecorder grown = base.recording;
    grown.backlog_mwh[20] += 100.0;
    const obs::AuditReport grown_report =
        obs::auditRecording(grown, base.auditContext());
    EXPECT_GE(countInvariant(grown_report, "backlog-conservation"), 1u);

    // A negative backlog: more work drained than ever existed.
    obs::FlightRecorder negative = base.recording;
    negative.backlog_mwh[20] = -0.5;
    const obs::AuditReport negative_report =
        obs::auditRecording(negative, base.auditContext());
    EXPECT_GE(countInvariant(negative_report, "backlog-conservation"),
              1u);

    // A tampered final hour: ledger no longer closes at the reported
    // residual (year-total check, reported at hour == SIZE_MAX).
    obs::FlightRecorder tail = base.recording;
    tail.backlog_mwh.back() += 1.0;
    const obs::AuditReport tail_report =
        obs::auditRecording(tail, base.auditContext());
    EXPECT_GE(countInvariant(tail_report, "backlog-conservation"), 1u);
    const auto year_total = std::find_if(
        tail_report.violations.begin(), tail_report.violations.end(),
        [](const obs::InvariantViolation &v) {
            return v.hour == SIZE_MAX;
        });
    ASSERT_NE(year_total, tail_report.violations.end());
    EXPECT_NE(year_total->format().find("year-total"),
              std::string::npos);
}

TEST(InvariantAuditor, NegativeFlowTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.battery_charge_mw[5] = -1.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_GE(countInvariant(report, "non-negative-flows"), 1u);
}

TEST(InvariantAuditor, CarbonTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.carbon_kg[100] += 1.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_GE(countInvariant(report, "carbon-reconciliation"), 1u);
}

TEST(InvariantAuditor, CarbonCheckSkippedWithoutIntensity)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec;
    rec.begin(base.recording.year(), 1, false);
    obs::HourlyRecord row;
    row.carbon_kg = 12345.0; // Wrong on purpose; must not be checked.
    rec.record(0, row);
    obs::AuditContext ctx;
    ctx.reported_operational_kg = 0.0;
    const obs::AuditReport report = obs::auditRecording(rec, ctx);
    EXPECT_EQ(countInvariant(report, "carbon-reconciliation"), 0u);
}

TEST(InvariantAuditor, ReportWriteSummarizesViolations)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.grid_mw[10] += 5.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    std::ostringstream os;
    report.write(os);
    EXPECT_NE(os.str().find("audit: "), std::string::npos);
    EXPECT_NE(os.str().find("violation"), std::string::npos);
    EXPECT_NE(os.str().find("[energy-balance]"), std::string::npos);

    const obs::AuditReport clean = obs::auditRecording(
        base.recording, base.auditContext());
    std::ostringstream clean_os;
    clean.write(clean_os);
    EXPECT_NE(clean_os.str().find("0 violations"), std::string::npos);
}

/**
 * One seeded violation and the exact text it must produce. The
 * strings and excesses were captured from the auditor that formatted
 * every check eagerly; they pin the lazily formatted messages byte for
 * byte, so a reworded message or a changed excess fails here.
 */
struct PinnedViolation
{
    const char *name;
    std::function<void(obs::FlightRecorder &)> tamper;
    size_t hour;
    std::string format;
    double excess;
};

std::vector<PinnedViolation>
pinnedViolations()
{
    const ExplainResult &base = holisticExplain();
    const double cap = base.capacity_cap_mw.value();
    const double battery = base.battery_capacity_mwh.value();
    return {
        {"energy-balance",
         [](obs::FlightRecorder &r) { r.grid_mw[10] += 5.0; }, 10,
         "hour 10: [energy-balance] supplied 39.1178 MW != consumed "
         "34.1178 MW",
         4.9999989999999999},
        {"soc-bounds low",
         [](obs::FlightRecorder &r) { r.battery_energy_mwh[3] = -1.0; },
         3, "hour 3: [soc-bounds] battery content -1 MWh below zero", 1.0},
        {"soc-bounds high",
         [battery](obs::FlightRecorder &r) {
             r.battery_energy_mwh[4] = battery + 2.0;
         },
         4,
         "hour 4: [soc-bounds] battery content 152 MWh exceeds capacity "
         "150 MWh",
         2.0},
        // Grid draw covers the extra served power, so only the cap
        // breaks, not the energy balance.
        {"capacity-cap",
         [cap](obs::FlightRecorder &r) {
             const double extra = cap + 1.0 - r.served_mw[7];
             r.served_mw[7] += extra;
             r.grid_mw[7] += extra;
         },
         7,
         "hour 7: [capacity-cap] served 20.6082 MW exceeds cap 19.6082 MW",
         1.0},
        {"curtailment",
         [](obs::FlightRecorder &r) { r.curtailed_mw[12] += 3.0; }, 12,
         "hour 12: [curtailment] curtailed 3 MW != renewable 29.0816 - "
         "used 29.0816",
         2.9999989999999999},
        // The next hour's shift-in absorbs the backlog's recovery from
        // -0.5, so only the negative backlog breaks.
        {"backlog negative",
         [](obs::FlightRecorder &r) {
             r.backlog_mwh[20] = -0.5;
             r.shifted_mwh[21] += 0.5;
         },
         20, "hour 20: [backlog-conservation] backlog -0.5 MWh negative",
         0.5},
        {"backlog grew",
         [](obs::FlightRecorder &r) { r.backlog_mwh[20] += 100.0; }, 20,
         "hour 20: [backlog-conservation] backlog grew 100 MWh but only 0 "
         "MWh was shifted in",
         100.0},
        // Load is checked only for sign.
        {"non-negative-flows",
         [](obs::FlightRecorder &r) { r.load_mw[5] = -1.0; }, 5,
         "hour 5: [non-negative-flows] a flow column is negative", 0.0},
        // The extra backlog is shifted in, so only the year-end
        // residual disagrees.
        {"year-total backlog",
         [](obs::FlightRecorder &r) {
             r.backlog_mwh.back() += 1.0;
             r.shifted_mwh.back() += 1.0;
         },
         SIZE_MAX,
         "year-total: [backlog-conservation] recorded year-end backlog 1 "
         "MWh != reported residual -5.06262e-14 MWh",
         0.99999899999999997},
        {"carbon-reconciliation",
         [](obs::FlightRecorder &r) { r.carbon_kg[100] += 1.0; },
         SIZE_MAX,
         "year-total: [carbon-reconciliation] cumulative hourly carbon "
         "1.61612e+06 kg != reported operational total 1.61612e+06 kg",
         0.99999999900000003},
    };
}

TEST(InvariantAuditor, EveryCheckFormatsItsPinnedMessage)
{
    const ExplainResult &base = holisticExplain();
    for (const PinnedViolation &pin : pinnedViolations()) {
        SCOPED_TRACE(pin.name);
        obs::FlightRecorder rec = base.recording;
        pin.tamper(rec);
        const obs::AuditReport report =
            obs::auditRecording(rec, base.auditContext());
        ASSERT_EQ(report.violations.size(), 1u);
        const obs::InvariantViolation &v = report.violations.front();
        EXPECT_EQ(v.hour, pin.hour);
        EXPECT_EQ(v.format(), pin.format);
        EXPECT_EQ(v.excess, pin.excess);
        std::ostringstream os;
        report.write(os);
        EXPECT_EQ(os.str(),
                  pin.format +
                      "\naudit: 1 violation across 70274 checks over "
                      "8784 hours\n");
    }
}

} // namespace
} // namespace carbonx
