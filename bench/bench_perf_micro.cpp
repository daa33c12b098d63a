/**
 * @file
 * Google-benchmark microbenchmarks of the framework's hot paths:
 * trace synthesis, coverage evaluation, the simulation kernel,
 * the greedy scheduler, and a full design-space search.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <vector>

#include "battery/clc_step.h"
#include "common/parallel.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "core/adaptive_sweep.h"
#include "core/coordinate_descent.h"
#include "core/explorer.h"
#include "grid/balancing_authority.h"
#include "grid/grid_synthesizer.h"
#include "scheduler/batched_engine.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/simulation_batch.h"

namespace
{

using namespace carbonx;

const CarbonExplorer &
sharedExplorer()
{
    static const CarbonExplorer explorer([] {
        ExplorerConfig config;
        config.ba_code = "PACE";
        config.avg_dc_power_mw = MegaWatts(19.0);
        config.flexible_ratio = Fraction(0.4);
        return config;
    }());
    return explorer;
}

void
BM_GridSynthesisYear(benchmark::State &state)
{
    const auto &profile =
        BalancingAuthorityRegistry::instance().lookup("PACE");
    const GridSynthesizer synth(profile, 2020);
    for (auto _ : state) {
        GridTrace trace = synth.synthesize(2020);
        benchmark::DoNotOptimize(trace.intensity.total());
    }
}
BENCHMARK(BM_GridSynthesisYear);

void
BM_CoverageEvaluation(benchmark::State &state)
{
    const auto &cov = sharedExplorer().coverageAnalyzer();
    double solar = 50.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cov.coverage(MegaWatts(solar), MegaWatts(80.0)));
        solar += 0.001; // Defeat caching.
    }
}
BENCHMARK(BM_CoverageEvaluation);

/**
 * The kernel over the shared explorer's traces and a 1-lane batch of
 * 80 MW solar + 80 MW wind: how the explorer simulates one design
 * point (evaluate, simulate, explain, the sizing bisections).
 */
struct OneLane
{
    BatchedSimulationEngine engine;
    SimulationBatch batch{1};

    explicit OneLane(bool battery_cas)
        : engine(sharedExplorer().dcPower(),
                 sharedExplorer().coverageAnalyzer().solarShape(),
                 sharedExplorer().coverageAnalyzer().windShape(),
                 &sharedExplorer().gridIntensity())
    {
        static const BatteryChemistry chem =
            BatteryChemistry::lithiumIronPhosphate();
        const double peak = sharedExplorer().dcPeakPowerMw().value();
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(80.0);
        lane.wind_mw = MegaWatts(80.0);
        lane.capacity_cap_mw = MegaWatts(peak);
        if (battery_cas) {
            lane.capacity_cap_mw = MegaWatts(1.5 * peak);
            lane.flexible_ratio = Fraction(0.4);
            lane.chemistry = &chem;
            lane.battery_capacity_mwh = MegaWattHours(150.0);
        }
        batch.addLane(lane);
    }
};

void
BM_SimulationYearNoBattery(benchmark::State &state)
{
    OneLane one(false);
    for (auto _ : state) {
        one.engine.run(one.batch);
        benchmark::DoNotOptimize(one.batch.result(0).coverage_pct);
    }
}
BENCHMARK(BM_SimulationYearNoBattery);

void
BM_SimulationYearBatteryCas(benchmark::State &state)
{
    OneLane one(true);
    for (auto _ : state) {
        one.engine.run(one.batch);
        benchmark::DoNotOptimize(one.batch.result(0).coverage_pct);
    }
}
BENCHMARK(BM_SimulationYearBatteryCas);

// The flight-recorder zero-overhead contract, measured: the same
// battery+CAS lane under the no-op observer (recorder=0) must match
// the plain BM_SimulationYearBatteryCas row — it is the same
// instantiation — and the recording-observer row (recorder=1) bounds
// the opt-in cost of `carbonx explain`.
void
BM_SimulateRecorded(benchmark::State &state)
{
    OneLane one(true);
    SimulationResult result(sharedExplorer().dcPower().year());
    obs::FlightRecorder recorder;
    RecordingObserver recording(result, &recorder);
    NoObserver none;
    for (auto _ : state) {
        if (state.range(0) != 0)
            one.engine.run(one.batch, recording);
        else
            one.engine.run(one.batch, none);
        benchmark::DoNotOptimize(one.batch.result(0).coverage_pct);
    }
}
BENCHMARK(BM_SimulateRecorded)
    ->ArgNames({"recorder"})
    ->Arg(0)
    ->Arg(1);

// One wave of the batched SoA kernel: 64 mixed lanes (with/without
// battery, CAS on/off) through a single pass over the hourly trace.
// items_per_second here is lanes (design points) per second — the
// wave counterpart of the 1-lane BM_SimulationYearBatteryCas.
void
BM_SimulateBatch(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const CoverageAnalyzer &cov = ex.coverageAnalyzer();
    static const BatteryChemistry chem =
        BatteryChemistry::lithiumIronPhosphate();
    const BatchedSimulationEngine engine(ex.dcPower(), cov.solarShape(),
                                         cov.windShape(),
                                         &ex.gridIntensity());
    const size_t lanes = 64;
    SimulationBatch batch(lanes);
    const auto fill = [&] {
        batch.clear();
        for (size_t i = 0; i < lanes; ++i) {
            BatchLaneConfig lane;
            lane.solar_mw = MegaWatts(20.0 + 1.5 * static_cast<double>(i));
            lane.wind_mw = MegaWatts(80.0 - static_cast<double>(i));
            const bool cas = i % 2 == 0;
            lane.capacity_cap_mw =
                MegaWatts((cas ? 1.5 : 1.0) * ex.dcPeakPowerMw().value());
            if (cas)
                lane.flexible_ratio = Fraction(0.4);
            if (i % 4 != 3) {
                lane.chemistry = &chem;
                lane.battery_capacity_mwh =
                    MegaWattHours(50.0 + 5.0 * static_cast<double>(i));
            }
            batch.addLane(lane);
        }
    };
    fill();
    engine.run(batch); // Warm-up: grow queues, register metrics.
    for (auto _ : state) {
        fill();
        engine.run(batch);
        benchmark::DoNotOptimize(batch.result(lanes - 1).coverage_pct);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(lanes));
}
BENCHMARK(BM_SimulateBatch);

void
BM_GreedySchedulerYear(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    SchedulerConfig cfg;
    cfg.capacity_cap_mw = MegaWatts(1.2 * ex.dcPeakPowerMw());
    cfg.flexible_ratio = Fraction(0.4);
    const GreedyCarbonScheduler scheduler(cfg);
    for (auto _ : state) {
        ScheduleResult r =
            scheduler.schedule(ex.dcPower(), ex.gridIntensity());
        benchmark::DoNotOptimize(r.moved_mwh.value());
    }
}
BENCHMARK(BM_GreedySchedulerYear);

void
BM_WindowedSchedulerYear(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    SchedulerConfig cfg;
    cfg.capacity_cap_mw = MegaWatts(1.2 * ex.dcPeakPowerMw());
    cfg.flexible_ratio = Fraction(0.4);
    cfg.slo_window_hours = Hours(8.0);
    const GreedyCarbonScheduler scheduler(cfg);
    for (auto _ : state) {
        ScheduleResult r =
            scheduler.schedule(ex.dcPower(), ex.gridIntensity());
        benchmark::DoNotOptimize(r.moved_mwh.value());
    }
}
BENCHMARK(BM_WindowedSchedulerYear);

void
BM_OptimizeRenewablesOnly(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 8.0, 5, 3, 2);
    for (auto _ : state) {
        OptimizationResult r =
            ex.optimize(space, Strategy::RenewablesOnly);
        benchmark::DoNotOptimize(r.best.totalKg());
    }
}
BENCHMARK(BM_OptimizeRenewablesOnly);

// The Fig. 15 full-factorial sweep at 1 and N worker threads; the
// ratio of the two rows is the parallel speedup of optimize().
void
BM_OptimizeSweep(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    setThreadCount(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        OptimizationResult r =
            ex.optimize(space, Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.best.totalKg());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    setThreadCount(0);
}
BENCHMARK(BM_OptimizeSweep)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(static_cast<int>(hardwareThreads()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same sweep with phase timers on, as a visible row next to the
// plain BM_OptimizeSweep pair. The phases are batch-scoped (hundreds
// of timer pairs per sweep, not one per design point), so the delta
// to the unprofiled rows is the whole cost of always-on profiling.
void
BM_OptimizeSweepProfiled(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    setThreadCount(static_cast<size_t>(state.range(0)));
    auto &profiler = obs::PhaseProfiler::instance();
    profiler.reset();
    profiler.setEnabled(true);
    for (auto _ : state) {
        OptimizationResult r =
            ex.optimize(space, Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.best.totalKg());
    }
    profiler.setEnabled(false);
    profiler.reset();
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    setThreadCount(0);
}
BENCHMARK(BM_OptimizeSweepProfiled)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(static_cast<int>(hardwareThreads()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A non-const twin of sharedExplorer() for benchmarks that attach a
// sweep cache or journal (both setters mutate the explorer).
CarbonExplorer &
sharedSweepExplorer()
{
    static CarbonExplorer explorer([] {
        ExplorerConfig config;
        config.ba_code = "PACE";
        config.avg_dc_power_mw = MegaWatts(19.0);
        config.flexible_ratio = Fraction(0.4);
        return config;
    }());
    return explorer;
}

// The same sweep with the decision journal attached, as a visible row
// next to the plain BM_OptimizeSweep pair. Rows are buffered into
// per-worker sinks and flushed block-wise once per pass, so the delta
// to the unjournaled rows is the whole cost of --journal-out.
void
BM_OptimizeSweepJournaled(benchmark::State &state)
{
    CarbonExplorer &ex = sharedSweepExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "carbonx_bench_journal.cxj")
            .string();
    setThreadCount(static_cast<size_t>(state.range(0)));
    obs::DecisionJournal journal(
        path, ex.configDigest(Strategy::RenewableBatteryCas));
    ex.setJournal(&journal);
    for (auto _ : state) {
        OptimizationResult r =
            ex.optimize(space, Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.best.totalKg());
    }
    ex.setJournal(nullptr);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    setThreadCount(0);
    std::filesystem::remove(path);
}
BENCHMARK(BM_OptimizeSweepJournaled)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(static_cast<int>(hardwareThreads()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same lattice as BM_OptimizeSweep under the adaptive driver with
// a cold cache: the margin-guarded interpolation skips dominated-and-
// worse interior points, so the ratio to BM_OptimizeSweep is the pure
// algorithmic saving.
void
BM_AdaptiveSweep(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    setThreadCount(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        AdaptiveSweepResult r =
            AdaptiveSweeper(ex).sweep(space,
                                      Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.result.best.totalKg());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    setThreadCount(0);
}
BENCHMARK(BM_AdaptiveSweep)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(static_cast<int>(hardwareThreads()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The resume path: a persistent cache pre-warmed by one full sweep
// turns every later sweep of the same study into pure replay — no
// simulation at all. This is the >=2x headline over BM_OptimizeSweep.
void
BM_AdaptiveSweepWarmCache(benchmark::State &state)
{
    CarbonExplorer &ex = sharedSweepExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "carbonx_bench_sweep.cxrc")
            .string();
    std::filesystem::remove(path);
    SweepResultCache cache(
        path, ex.configDigest(Strategy::RenewableBatteryCas));
    ex.setSweepCache(&cache);
    // Warm pass, outside the timed region.
    AdaptiveSweeper(ex).sweep(space, Strategy::RenewableBatteryCas);
    for (auto _ : state) {
        AdaptiveSweepResult r =
            AdaptiveSweeper(ex).sweep(space,
                                      Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.result.best.totalKg());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    ex.setSweepCache(nullptr);
    std::filesystem::remove(path);
}
BENCHMARK(BM_AdaptiveSweepWarmCache)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_CoordinateDescentCombined(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 8.0, 15, 15, 9);
    CoordinateDescentConfig cfg;
    cfg.restarts = 1;
    const CoordinateDescentOptimizer cd(ex, cfg);
    for (auto _ : state) {
        CoordinateDescentResult r =
            cd.optimize(space, Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.best.totalKg());
    }
}
BENCHMARK(BM_CoordinateDescentCombined);

// The C/L/C step the kernel runs (battery/clc_step.h) on one
// battery's raw state: a year of alternating charge/discharge hours.
void
BM_BatteryYearOfHourlySteps(benchmark::State &state)
{
    const BatteryChemistry chem = BatteryChemistry::lithiumIronPhosphate();
    const double capacity = 100.0;
    const double charge_cap = chem.max_charge_c_rate * capacity;
    const double discharge_cap = chem.max_discharge_c_rate * capacity;
    const double floor = capacity * (1.0 - chem.depth_of_discharge);
    for (auto _ : state) {
        double content = floor;
        double charged = 0.0;
        double discharged = 0.0;
        for (int h = 0; h < 8784; ++h) {
            if (h % 2 == 0)
                clcChargeStep(60.0, 1.0, capacity, charge_cap,
                              chem.charge_efficiency, content, charged);
            else
                clcDischargeStep(60.0, 1.0, capacity, discharge_cap,
                                 chem.discharge_efficiency, floor,
                                 content, discharged);
        }
        benchmark::DoNotOptimize(discharged);
    }
}
BENCHMARK(BM_BatteryYearOfHourlySteps);

// Harness-level guard on the profiler's overhead budget: median wall
// time of the Fig. 15 full-factorial sweep with phase timers on must
// stay within 10% of the identical sweep with the profiler off. The
// phases are batch-scoped, so the true cost is well under 2%; the
// generous fence only absorbs scheduler noise in the medians. A real
// regression (a per-point timer, a lock on the hot path) shows up as
// far more.
bool
profilerOverheadWithinBudget()
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    auto &profiler = carbonx::obs::PhaseProfiler::instance();

    const auto median_ms = [&] {
        std::vector<double> samples;
        for (int i = 0; i < 5; ++i) {
            const auto start = std::chrono::steady_clock::now();
            OptimizationResult r =
                ex.optimize(space, Strategy::RenewableBatteryCas);
            benchmark::DoNotOptimize(r.best.totalKg());
            const std::chrono::duration<double, std::milli> ms =
                std::chrono::steady_clock::now() - start;
            samples.push_back(ms.count());
        }
        std::sort(samples.begin(), samples.end());
        return samples[samples.size() / 2];
    };

    profiler.setEnabled(false);
    median_ms(); // Warm the caches before timing either mode.
    const double off_ms = median_ms();
    profiler.reset();
    profiler.setEnabled(true);
    const double on_ms = median_ms();
    profiler.setEnabled(false);
    const carbonx::obs::ProfileNode merged = profiler.merged();
    profiler.reset();

    // The sweep routes through the batched kernel, so the profiled
    // run must have timed its batch phases — a missing node means the
    // fence silently stopped covering the hot path.
    const auto findDeep = [](const carbonx::obs::ProfileNode &node,
                             const std::string &name,
                             auto &&self) -> bool {
        if (node.name == name)
            return true;
        for (const carbonx::obs::ProfileNode &child : node.children) {
            if (self(child, name, self))
                return true;
        }
        return false;
    };
    const bool phases_ok = findDeep(merged, "sweep/batch_fill", findDeep) &&
                           findDeep(merged, "sim/batch_step", findDeep) &&
                           findDeep(merged, "sim/batch_drain", findDeep);
    if (!phases_ok)
        std::cerr << "profiler overhead check: batched kernel phases "
                     "missing from the merged profile\n";

    const bool ok = phases_ok && on_ms <= off_ms * 1.10;
    std::cerr << "profiler overhead check: off " << off_ms
              << " ms, on " << on_ms << " ms ("
              << 100.0 * (on_ms - off_ms) / off_ms
              << "%, fence 10%; "
              << (ok ? "within budget" : "REGRESSION") << ")\n";
    return ok;
}

// Harness-level guard on the decision journal's overhead budget:
// median wall time of the Fig. 15 full-factorial sweep with a journal
// attached must stay within 5% of the identical sweep without one.
// Rows go into pre-sized per-worker sinks (a plain push_back per
// point) and hit the disk once per pass, so the true cost is around
// 1%; a real regression (per-row I/O, an allocation or lock on the
// record path) shows up as far more.
bool
journalOverheadWithinBudget()
{
    CarbonExplorer &ex = sharedSweepExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "carbonx_bench_journal_fence.cxj")
            .string();

    const auto median_ms = [&] {
        std::vector<double> samples;
        for (int i = 0; i < 5; ++i) {
            const auto start = std::chrono::steady_clock::now();
            OptimizationResult r =
                ex.optimize(space, Strategy::RenewableBatteryCas);
            benchmark::DoNotOptimize(r.best.totalKg());
            const std::chrono::duration<double, std::milli> ms =
                std::chrono::steady_clock::now() - start;
            samples.push_back(ms.count());
        }
        std::sort(samples.begin(), samples.end());
        return samples[samples.size() / 2];
    };

    median_ms(); // Warm the caches before timing either mode.
    const double off_ms = median_ms();
    carbonx::obs::DecisionJournal journal(
        path, ex.configDigest(Strategy::RenewableBatteryCas));
    ex.setJournal(&journal);
    const double on_ms = median_ms();
    ex.setJournal(nullptr);
    journal.flush();
    const uint64_t rows = journal.flushedRows();
    std::filesystem::remove(path);

    // The journaled run must actually have journaled: five sweeps of
    // the full lattice, one row per design point.
    const uint64_t expected =
        5 * static_cast<uint64_t>(
                space.sizeFor(Strategy::RenewableBatteryCas));
    const bool rows_ok = rows >= expected;
    if (!rows_ok)
        std::cerr << "journal overhead check: only " << rows
                  << " rows journaled (expected >= " << expected
                  << ") — the fence stopped covering the hot path\n";

    const bool ok = rows_ok && on_ms <= off_ms * 1.05;
    std::cerr << "journal overhead check: off " << off_ms << " ms, on "
              << on_ms << " ms ("
              << 100.0 * (on_ms - off_ms) / off_ms << "%, fence 5%; "
              << (ok ? "within budget" : "REGRESSION") << ")\n";
    return ok;
}

} // namespace

// Expanded BENCHMARK_MAIN() so the run can end with a dump of the
// metrics registry: phase-level counts (simulation runs, battery
// steps, design points) land next to every wall-clock trajectory.
// The table goes to stderr to keep the benchmark's stdout/JSON clean.
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    const bool profiler_ok = profilerOverheadWithinBudget();
    const bool journal_ok = journalOverheadWithinBudget();
    carbonx::obs::MetricsRegistry::instance().writeText(std::cerr);
    return (profiler_ok && journal_ok) ? 0 : 1;
}
