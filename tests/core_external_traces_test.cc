/**
 * @file
 * Tests of running Carbon Explorer on user-supplied traces, including
 * the CSV round trip that a real-EIA-data workflow would use.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/csv.h"
#include "common/error.h"
#include "core/explorer.h"
#include "support/temp_dir.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

ExternalTraces
syntheticTraces()
{
    TimeSeries load(kYear, 10.0);
    TimeSeries solar(kYear);
    TimeSeries wind(kYear, 0.5);
    TimeSeries intensity(kYear, 400.0);
    for (size_t h = 0; h < solar.size(); ++h) {
        const size_t hour = h % 24;
        if (hour >= 8 && hour < 18)
            solar[h] = 1.0;
        if (hour == 0)
            wind[h] = 1.0;
        if (hour >= 8 && hour < 18)
            intensity[h] = 150.0; // Cleaner by day.
    }
    return ExternalTraces(std::move(load), std::move(solar),
                          std::move(wind), std::move(intensity));
}

ExplorerConfig
baseConfig()
{
    ExplorerConfig cfg;
    cfg.flexible_ratio = Fraction(0.4);
    return cfg;
}

TEST(ExternalTraces, ExplorerUsesProvidedSeries)
{
    const CarbonExplorer explorer(baseConfig(), syntheticTraces());
    EXPECT_EQ(explorer.dcPower().size(), 8760u);
    EXPECT_DOUBLE_EQ(explorer.dcPower().mean(), 10.0);
    EXPECT_DOUBLE_EQ(explorer.gridIntensity()[0], 400.0);
    EXPECT_DOUBLE_EQ(explorer.gridIntensity()[12], 150.0);
    // 20 MW of solar shape covers the day hours exactly.
    EXPECT_NEAR(explorer.coverageAnalyzer().coverage(MegaWatts(20.0), MegaWatts(0.0)),
                100.0 * 10.0 / 24.0, 1e-9);
}

TEST(ExternalTraces, EvaluationWorksEndToEnd)
{
    const CarbonExplorer explorer(baseConfig(), syntheticTraces());
    const Evaluation e = explorer.evaluate(
        DesignPoint{MegaWatts(10.0), MegaWatts(10.0), MegaWattHours(20.0), Fraction(0.0)},
        Strategy::RenewableBattery);
    EXPECT_GT(e.coverage_pct, 50.0);
    EXPECT_GT(e.operational_kg.value(), 0.0);
    EXPECT_GT(e.embodiedKg().value(), 0.0);
}

TEST(ExternalTraces, RejectsMismatchedYears)
{
    TimeSeries load(2020, 10.0);
    TimeSeries other(kYear, 0.5);
    EXPECT_THROW(
        CarbonExplorer(baseConfig(),
                       ExternalTraces(load, other, other, other)),
        UserError);
}

TEST(ExternalTraces, RejectsNonPerUnitShapes)
{
    TimeSeries load(kYear, 10.0);
    TimeSeries big(kYear, 2.0);
    TimeSeries ok(kYear, 0.5);
    EXPECT_THROW(
        CarbonExplorer(baseConfig(),
                       ExternalTraces(load, big, ok, ok)),
        UserError);
}

TEST(ExternalTraces, CsvRoundTrip)
{
    // Export a trace CSV the way a user would prepare EIA data, read
    // it back, and verify the explorer sees identical series.
    const std::string path =
        testsupport::uniqueTestDir() + "carbonx_traces.csv";
    CsvTable csv({"hour", "dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    const HourlyCalendar cal(kYear);
    for (size_t h = 0; h < cal.hoursInYear(); ++h) {
        const double hour = static_cast<double>(h % 24);
        const double solar = std::max(
            0.0, 500.0 * std::sin(std::numbers::pi * (hour - 6.0) /
                                  12.0));
        csv.addNumericRow({static_cast<double>(h), 25.0, solar,
                           300.0 + 100.0 * ((h / 24) % 2 == 0),
                           350.0 + hour});
    }
    csv.writeFile(path);

    const ExternalTraces traces = ExternalTraces::fromCsv(path, kYear);
    EXPECT_NEAR(traces.solar_shape.max(), 1.0, 1e-12);
    EXPECT_NEAR(traces.wind_shape.max(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(traces.dc_power.mean(), 25.0);

    const CarbonExplorer explorer(baseConfig(), traces);
    const double cov = explorer.coverageAnalyzer().coverage(MegaWatts(0.0), MegaWatts(50.0));
    EXPECT_GT(cov, 99.0); // 50 MW of near-flat wind covers 25 MW.
}

TEST(ExternalTraces, CsvValidation)
{
    EXPECT_THROW(ExternalTraces::fromCsv("/nonexistent.csv", kYear),
                 UserError);
    // Wrong row count.
    const std::string path =
        testsupport::uniqueTestDir() + "carbonx_short.csv";
    CsvTable csv({"dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    csv.addNumericRow({1.0, 2.0, 3.0, 4.0});
    csv.writeFile(path);
    EXPECT_THROW(ExternalTraces::fromCsv(path, kYear), UserError);
}

TEST(ExternalTraces, CsvRejectsDeadRenewableColumn)
{
    // An all-zero solar_mw column (e.g. a unit mix-up or a truncated
    // export) used to scale into a silent all-zero shape; it must now
    // be reported as an input error instead.
    const std::string path =
        testsupport::uniqueTestDir() + "carbonx_dead_solar.csv";
    CsvTable csv({"dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    const HourlyCalendar cal(kYear);
    for (size_t h = 0; h < cal.hoursInYear(); ++h)
        csv.addNumericRow({25.0, 0.0, 5.0 + (h % 3), 400.0});
    csv.writeFile(path);
    try {
        ExternalTraces::fromCsv(path, kYear);
        FAIL() << "expected a UserError for the dead solar column";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("solar_mw"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ExternalTraces, SyntheticExportFeedsBackIdentically)
{
    // The bridge between modes: synthesize, export as an external
    // CSV, reload, and check coverage agrees with the original.
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    const CarbonExplorer original(cfg);

    const std::string path =
        testsupport::uniqueTestDir() + "carbonx_export.csv";
    CsvTable csv({"dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    const auto &grid = original.gridTrace();
    for (size_t h = 0; h < original.dcPower().size(); ++h) {
        csv.addNumericRow({original.dcPower()[h],
                           grid.solar_potential[h],
                           grid.wind_potential[h],
                           grid.intensity[h]});
    }
    csv.writeFile(path);

    const ExternalTraces traces =
        ExternalTraces::fromCsv(path, cfg.year);
    const CarbonExplorer reloaded(cfg, traces);
    for (double solar : {100.0, 300.0}) {
        EXPECT_NEAR(
            reloaded.coverageAnalyzer().coverage(MegaWatts(solar), MegaWatts(100.0)),
            original.coverageAnalyzer().coverage(MegaWatts(solar), MegaWatts(100.0)), 0.01);
    }
}

} // namespace
} // namespace carbonx
