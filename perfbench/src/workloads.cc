/**
 * @file
 * The three perfbench workloads. Each puts most of its time in a
 * different layer:
 *  - sweep-cold:    the batched scheduler kernel (scenario sweeps into
 *                   empty result caches);
 *  - resweep-warm:  grid/datacenter explorer construction and the
 *                   cache read side (the same sweeps replayed);
 *  - explain-audit: the scalar recorded engine and obs/audit
 *                   (CarbonExplorer::explain of single design points).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/hot_counters.h"
#include "common/json.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "core/report.h"
#include "harness.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scheduler/batched_engine.h"

namespace perfbench
{

using carbonx::CarbonExplorer;
using carbonx::DesignPoint;
using carbonx::Evaluation;
using carbonx::JsonValue;
using carbonx::Strategy;
using carbonx::scenario::Scenario;
using carbonx::scenario::ScenarioRunOptions;
using carbonx::scenario::ScenarioRunResult;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Counts

Counts
Counts::now()
{
    const auto obs = [](const char *name) {
        return carbonx::obs::counter(name).value();
    };
    const auto hot = [](const char *name) {
        return carbonx::hot::hotCounter(name).load(
            std::memory_order_relaxed);
    };
    Counts c;
    c.lane_hours = obs("sim.hours_simulated");
    c.points_simulated = obs("sim.batch_lanes") + obs("sim.runs");
    c.points_interpolated = obs("sweep.points_skipped");
    c.cache_hits = hot("result_cache.hits");
    c.cache_misses = hot("result_cache.misses");
    c.cache_inserts = hot("result_cache.inserts");
    c.battery_calls =
        obs("battery.charge_calls") + obs("battery.discharge_calls");
    return c;
}

Counts
Counts::operator-(const Counts &o) const
{
    Counts d;
    d.lane_hours = lane_hours - o.lane_hours;
    d.points_simulated = points_simulated - o.points_simulated;
    d.points_interpolated = points_interpolated - o.points_interpolated;
    d.cache_hits = cache_hits - o.cache_hits;
    d.cache_misses = cache_misses - o.cache_misses;
    d.cache_inserts = cache_inserts - o.cache_inserts;
    d.battery_calls = battery_calls - o.battery_calls;
    d.audit_checks = audit_checks - o.audit_checks;
    return d;
}

Counts &
Counts::operator+=(const Counts &o)
{
    lane_hours += o.lane_hours;
    points_simulated += o.points_simulated;
    points_interpolated += o.points_interpolated;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_inserts += o.cache_inserts;
    battery_calls += o.battery_calls;
    audit_checks += o.audit_checks;
    return *this;
}

std::vector<std::pair<std::string, uint64_t>>
Counts::named() const
{
    return {{"count.lane_hours", lane_hours},
            {"count.points_simulated", points_simulated},
            {"count.points_interpolated", points_interpolated},
            {"count.cache_hits", cache_hits},
            {"count.cache_inserts", cache_inserts},
            {"count.battery_calls", battery_calls},
            {"count.audit_checks", audit_checks}};
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"scheduler.kernel_ns_per_lane_hour.ren", "ns"},
        {"scheduler.kernel_ns_per_lane_hour.batt", "ns"},
        {"scheduler.kernel_ns_per_lane_hour.cas", "ns"},
        {"scheduler.kernel_ns_per_lane_hour.combined", "ns"},
        {"scheduler.kernel_share", "ratio"},
        {"scheduler.scalar_ns_per_hour", "ns"},
        {"scheduler.scalar_share", "ratio"},
        {"core.evaluate_ns_per_lane_hour", "ns"},
        {"core.fill_share", "ratio"},
        {"core.driver_ms_per_scenario", "ms"},
        {"core.driver_share", "ratio"},
        {"core.adaptive_simulated_ratio", "ratio"},
        {"core.waterfall_share", "ratio"},
        {"grid.explorer_build_ms", "ms"},
        {"grid.explorer_build_share", "ratio"},
        {"common.cache_open_ms", "ms"},
        {"common.cache_insert_ns", "ns"},
        {"common.cache_hit_ratio", "ratio"},
        {"common.cache_share", "ratio"},
        {"obs.audit_ms", "ms"},
        {"obs.audit_ns_per_check", "ns"},
        {"obs.audit_share", "ratio"},
        {"scenario.registry_load_ms", "ms"},
        {"scenario.report_write_ms", "ms"},
        {"scenario.report_share", "ratio"},
    };
    return m;
}

namespace
{

// ---------------------------------------------------------------------
// Inputs

const char *const kStrategyNames[] = {"ren", "batt", "cas", "combined"};

Strategy
parseStrategy(const std::string &name)
{
    for (size_t i = 0; i < 4; ++i)
        if (name == kStrategyNames[i])
            return static_cast<Strategy>(i);
    throw std::runtime_error("unknown strategy '" + name + "'");
}

const char *
shortName(Strategy s)
{
    return kStrategyNames[static_cast<size_t>(s)];
}

/**
 * The frozen scenarios under data_dir/scenarios, every site.seed
 * overridden by the workload seed. The registry format (and its
 * strict parser) is the same one `carbonx run` reads.
 */
std::vector<Scenario>
loadScenarios(const WorkloadContext &ctx)
{
    const auto registry = carbonx::scenario::ScenarioRegistry::
        loadDirectory(ctx.data_dir + "/scenarios");
    std::vector<Scenario> out;
    for (const Scenario *s : registry.runnable()) {
        out.push_back(*s);
        out.back().seed = ctx.seed;
    }
    if (out.size() != 9)
        throw std::runtime_error("expected 9 frozen scenarios under " +
                                 ctx.data_dir + "/scenarios, found " +
                                 std::to_string(out.size()));
    return out;
}

struct ExplainInput
{
    std::string scenario;
    Strategy strategy = Strategy::RenewablesOnly;
    DesignPoint point;
};

std::vector<ExplainInput>
loadExplainInputs(const WorkloadContext &ctx)
{
    const std::string path = ctx.data_dir + "/data/explain_points.json";
    const JsonValue doc = JsonValue::parseFile(path);
    std::vector<ExplainInput> out;
    for (const JsonValue &p : doc.at("points", path).items()) {
        ExplainInput in;
        in.scenario = p.at("scenario", path).asString();
        in.strategy = parseStrategy(p.at("strategy", path).asString());
        in.point.solar_mw =
            carbonx::MegaWatts(p.at("solar_mw", path).asNumber());
        in.point.wind_mw =
            carbonx::MegaWatts(p.at("wind_mw", path).asNumber());
        in.point.battery_mwh =
            carbonx::MegaWattHours(p.at("battery_mwh", path).asNumber());
        in.point.extra_capacity =
            carbonx::Fraction(p.at("extra_capacity", path).asNumber());
        out.push_back(in);
    }
    if (out.empty())
        throw std::runtime_error(path + ": no points");
    return out;
}

/** Reference answers, present only when the run's seed matches. */
struct Reference
{
    struct Best
    {
        DesignPoint point;
        double total_kg = 0.0;
    };

    bool active = false;
    std::map<std::string, Best> best; ///< By scenario id.
    std::vector<double> explain_total_kg;
};

Reference
loadReference(const WorkloadContext &ctx)
{
    Reference ref;
    const JsonValue doc = JsonValue::parseFile(ctx.reference);
    if (static_cast<uint64_t>(doc.at("seed", ctx.reference).asNumber()) !=
        ctx.seed)
        return ref;
    ref.active = true;
    for (const auto &[id, v] :
         doc.at("scenarios", ctx.reference).members()) {
        const auto &p = v.at("best", ctx.reference).items();
        Reference::Best b;
        b.point.solar_mw = carbonx::MegaWatts(p.at(0).asNumber());
        b.point.wind_mw = carbonx::MegaWatts(p.at(1).asNumber());
        b.point.battery_mwh = carbonx::MegaWattHours(p.at(2).asNumber());
        b.point.extra_capacity = carbonx::Fraction(p.at(3).asNumber());
        b.total_kg = v.at("best_total_kg", ctx.reference).asNumber();
        ref.best[id] = b;
    }
    for (const JsonValue &t :
         doc.at("explain_total_kg", ctx.reference).items())
        ref.explain_total_kg.push_back(t.asNumber());
    return ref;
}

// ---------------------------------------------------------------------
// Checks

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
samePoint(const DesignPoint &a, const DesignPoint &b)
{
    return sameBits(a.solar_mw.value(), b.solar_mw.value()) &&
           sameBits(a.wind_mw.value(), b.wind_mw.value()) &&
           sameBits(a.battery_mwh.value(), b.battery_mwh.value()) &&
           sameBits(a.extra_capacity.value(), b.extra_capacity.value());
}

bool
sameEvaluation(const Evaluation &a, const Evaluation &b)
{
    return samePoint(a.point, b.point) && a.strategy == b.strategy &&
           sameBits(a.coverage_pct, b.coverage_pct) &&
           sameBits(a.operational_kg.value(), b.operational_kg.value()) &&
           sameBits(a.embodied_solar_kg.value(),
                    b.embodied_solar_kg.value()) &&
           sameBits(a.embodied_wind_kg.value(),
                    b.embodied_wind_kg.value()) &&
           sameBits(a.embodied_battery_kg.value(),
                    b.embodied_battery_kg.value()) &&
           sameBits(a.embodied_server_kg.value(),
                    b.embodied_server_kg.value()) &&
           sameBits(a.battery_cycles, b.battery_cycles) &&
           sameBits(a.deferred_mwh.value(), b.deferred_mwh.value()) &&
           sameBits(a.renewable_excess_mwh.value(),
                    b.renewable_excess_mwh.value());
}

bool
sameAnswer(const ScenarioRunResult &a, const ScenarioRunResult &b)
{
    if (!sameEvaluation(a.result.best, b.result.best) ||
        a.result.evaluated.size() != b.result.evaluated.size())
        return false;
    for (size_t i = 0; i < a.result.evaluated.size(); ++i)
        if (!sameEvaluation(a.result.evaluated[i], b.result.evaluated[i]))
            return false;
    return true;
}

/**
 * Seed-independent checks of one sweep: the best point is the
 * minimum over the evaluated points, every coverage lies in
 * [0, 100], and the Pareto front is monotone.
 */
void
checkSweep(const Scenario &s, const ScenarioRunResult &r,
           const Reference &ref, std::vector<std::string> &failures)
{
    const auto fail = [&](const std::string &what) {
        failures.push_back(s.id + ": " + what);
    };
    const auto &evaluated = r.result.evaluated;
    if (evaluated.empty()) {
        fail("no evaluated points");
        return;
    }
    double min_total = evaluated.front().totalKg().value();
    for (const Evaluation &e : evaluated) {
        min_total = std::min(min_total, e.totalKg().value());
        if (!(e.coverage_pct >= 0.0 && e.coverage_pct <= 100.0))
            fail("coverage " + std::to_string(e.coverage_pct) +
                 " outside [0, 100]");
    }
    if (!sameBits(r.result.best.totalKg().value(), min_total))
        fail("best is not the minimum over evaluated points");

    std::vector<Evaluation> front = r.result.paretoSet();
    std::sort(front.begin(), front.end(),
              [](const Evaluation &a, const Evaluation &b) {
                  return a.embodiedKg().value() < b.embodiedKg().value();
              });
    for (size_t i = 1; i < front.size(); ++i)
        if (front[i].operational_kg.value() >
            front[i - 1].operational_kg.value())
            fail("Pareto front is not monotone");

    if (ref.active) {
        const auto it = ref.best.find(s.id);
        if (it == ref.best.end())
            fail("no reference answer");
        else if (!samePoint(it->second.point, r.result.best.point) ||
                 !sameBits(it->second.total_kg,
                           r.result.best.totalKg().value()))
            fail("best differs from the reference answer");
    }
}

/** Points a sweep answered: evaluated (simulated or replayed) plus
 *  the ones the adaptive driver settled by interpolation. */
uint64_t
pointsAnswered(const ScenarioRunResult &r)
{
    return r.result.evaluated.size() + r.stats.points_skipped;
}

std::string
reportText(const Scenario &s, const ScenarioRunResult &r)
{
    std::ostringstream os;
    carbonx::scenario::writeScenarioReport(os, s, r);
    return os.str();
}

/** The report minus its "# sweep" lines (the only mode-, and so
 *  cold/warm-dependent content). */
std::string
sweepIndependent(const std::string &report)
{
    std::istringstream in(report);
    std::string line;
    std::string out;
    while (std::getline(in, line))
        if (line.rfind("# sweep", 0) != 0)
            out += line + '\n';
    return out;
}

// ---------------------------------------------------------------------
// Probes: direct calls into single layers, used by traced studies.

/**
 * The kernel lane of one design point, set field by field the way
 * BM_SimulateBatch builds lanes, with the values
 * CarbonExplorer::laneConfig gives them. kernelSeconds() checks every
 * lane's result against the evaluation of the same point, so a drift
 * between this mirror and laneConfig stops the run.
 */
carbonx::BatchLaneConfig
laneFor(const CarbonExplorer &ex, const DesignPoint &p, Strategy strategy)
{
    const carbonx::ExplorerConfig &cfg = ex.config();
    const bool cas = carbonx::strategyUsesCas(strategy);
    carbonx::BatchLaneConfig lane;
    lane.solar_mw = p.solar_mw;
    lane.wind_mw = p.wind_mw;
    lane.capacity_cap_mw = carbonx::MegaWatts(
        ex.dcPeakPowerMw().value() *
        (1.0 + (cas ? p.extra_capacity.value() : 0.0)));
    lane.flexible_ratio = cas ? cfg.flexible_ratio : carbonx::Fraction(0.0);
    lane.slo_window_hours = cfg.slo_window_hours;
    if (carbonx::strategyUsesBattery(strategy) &&
        p.battery_mwh.value() > 0.0) {
        lane.battery_capacity_mwh = p.battery_mwh;
        lane.chemistry = &cfg.chemistry;
        lane.grid_charge_policy = cfg.grid_charge_policy;
        lane.grid_charge_threshold_gkwh = cfg.grid_charge_threshold_gkwh;
    }
    return lane;
}

/**
 * Seconds BatchedSimulationEngine::run spends on @p evals' points in
 * 64-lane waves (the sweep's wave size); lane filling is not timed.
 */
double
kernelSeconds(const CarbonExplorer &ex, Strategy strategy,
              const std::vector<Evaluation> &evals, SpanLog &log)
{
    constexpr size_t kLanes = 64;
    const carbonx::CoverageAnalyzer &cov = ex.coverageAnalyzer();
    const carbonx::BatchedSimulationEngine engine(
        ex.dcPower(), cov.solarShape(), cov.windShape(),
        &ex.gridIntensity());
    carbonx::SimulationBatch batch(kLanes);
    double seconds = 0.0;
    for (size_t first = 0; first < evals.size(); first += kLanes) {
        const size_t n = std::min(kLanes, evals.size() - first);
        batch.clear();
        for (size_t i = 0; i < n; ++i)
            batch.addLane(laneFor(ex, evals[first + i].point, strategy));
        seconds += log.time("scheduler.kernel", [&] { engine.run(batch); });
        for (size_t i = 0; i < n; ++i) {
            const Evaluation &e = evals[first + i];
            if (!sameBits(batch.result(i).coverage_pct, e.coverage_pct) ||
                !sameBits(batch.result(i).operational_kg.value(),
                          e.operational_kg.value()))
                throw std::runtime_error(
                    "perfbench: laneFor() no longer mirrors "
                    "CarbonExplorer::laneConfig");
        }
    }
    return seconds;
}

double
registryLoadMs(const WorkloadContext &ctx, SpanLog &log)
{
    return 1e3 * log.time("scenario.registry_load", [&] {
        (void)carbonx::scenario::ScenarioRegistry::loadDirectory(
            ctx.data_dir + "/scenarios");
    });
}

/** Every layer metric at 0 (not exercised), to be overwritten. */
LayerSample
emptySample()
{
    LayerSample s;
    for (const auto &[name, unit] : layerMetrics())
        s[name] = 0.0;
    return s;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
cachePath(const std::string &dir, const Scenario &s)
{
    // The runner's naming: one file per scenario id in cache_dir.
    return dir + "/" + s.id + ".evals";
}

/**
 * The cold write path of sweeps, one layer at a time: the points a
 * sweep simulated go again through SweepBatchEvaluator::evaluate with
 * no cache attached, then through the kernel alone on the same lanes,
 * then into a fresh result cache; every call in its own span.
 */
struct ColdProbes
{
    double evaluate = 0, kernel = 0, open = 0, insert = 0;
    double eval_combined = 0, lane_hours_combined = 0;
    uint64_t inserts = 0;
    std::map<Strategy, double> kernel_s, kernel_lane_hours;

    void add(const Scenario &s, const CarbonExplorer &ex,
             const std::vector<Evaluation> &simulated,
             const std::string &cache_dir, CpuPicker &cpus, SpanLog &log)
    {
        std::vector<DesignPoint> points;
        for (const Evaluation &e : simulated)
            points.push_back(e.point);
        std::vector<Evaluation> evals(points.size());
        const Counts before = Counts::now();
        cpus.pinQuietest();
        const double t_eval = log.time("core.evaluate", [&] {
            carbonx::SweepBatchEvaluator ev(ex, s.strategy);
            ev.evaluate(points.data(), points.size(), evals.data(),
                        nullptr);
        });
        const double lane_hours =
            static_cast<double>((Counts::now() - before).lane_hours);
        evaluate += t_eval;
        if (s.strategy == Strategy::RenewableBatteryCas &&
            s.mode == carbonx::scenario::SweepMode::Exhaustive) {
            eval_combined += t_eval;
            lane_hours_combined += lane_hours;
        }

        cpus.pinQuietest();
        const double t_kernel = kernelSeconds(ex, s.strategy, evals, log);
        kernel += t_kernel;
        kernel_s[s.strategy] += t_kernel;
        kernel_lane_hours[s.strategy] += lane_hours;

        std::unique_ptr<carbonx::SweepResultCache> cache;
        open += log.time("common.cache_open", [&] {
            cache = std::make_unique<carbonx::SweepResultCache>(
                cachePath(cache_dir, s), ex.configDigest(s.strategy));
        });
        insert += log.time("common.cache_insert", [&] {
            for (const Evaluation &e : evals)
                cache->insert(e);
            cache->flush();
        });
        inserts += evals.size();
    }

    /** The per-unit costs (ns per lane-hour, ns per insert). */
    void report(LayerSample &m) const
    {
        for (const auto &[st, seconds] : kernel_s)
            m[std::string("scheduler.kernel_ns_per_lane_hour.") +
              shortName(st)] =
                ratio(seconds * 1e9, kernel_lane_hours.at(st));
        m["core.evaluate_ns_per_lane_hour"] =
            ratio(eval_combined * 1e9, lane_hours_combined);
        m["common.cache_insert_ns"] =
            ratio(insert * 1e9, static_cast<double>(inserts));
    }
};

// ---------------------------------------------------------------------
// sweep-cold

class SweepCold : public Workload
{
  public:
    explicit SweepCold(WorkloadContext ctx) : ctx_(std::move(ctx)) {}

    void setup() override
    {
        scenarios_ = loadScenarios(ctx_);
        ref_ = loadReference(ctx_);
    }

    StudyResult study() override
    {
        StudyResult out;
        ScenarioRunOptions opts;
        opts.cache_dir = freshDir();
        const bool first = first_.empty();
        for (size_t k = 0; k < scenarios_.size(); ++k) {
            const Scenario &s = scenarios_[k];
            const Counts before = Counts::now();
            ScenarioRunResult r;
            std::string report;
            timePart(ctx_.cpus, out, [&] {
                r = carbonx::scenario::runScenario(s, opts);
                report = reportText(s, r);
            });
            out.counts += Counts::now() - before;
            out.points += pointsAnswered(r);
            checkSweep(s, r, ref_, out.failures);
            if (first) {
                first_.push_back(std::move(r));
                first_reports_.push_back(report);
            } else if (!sameAnswer(r, first_[k]) ||
                       report != first_reports_[k]) {
                out.failures.push_back(
                    s.id + ": answer differs from the first study");
            }
        }
        fs::remove_all(opts.cache_dir);
        return out;
    }

    LayerSample tracedStudy(SpanLog &log) override
    {
        LayerSample m = emptySample();
        m["scenario.registry_load_ms"] = registryLoadMs(ctx_, log);
        ScenarioRunOptions opts;
        opts.cache_dir = freshDir();
        const std::string probe_dir = freshDir();

        double study = 0, build = 0, run = 0, report = 0;
        double adaptive_sim = 0, adaptive_lattice = 0;
        uint64_t hits = 0, lookups = 0;
        ColdProbes probes;

        log.time("study", [&] {
            for (const Scenario &s : scenarios_) {
                ctx_.cpus->pinQuietest();
                log.time("scenario:" + s.id, [&] {
                    std::unique_ptr<CarbonExplorer> ex;
                    build += log.time("grid.explorer_build", [&] {
                        ex = carbonx::scenario::makeScenarioExplorer(s);
                    });
                    ScenarioRunResult r;
                    const Counts before = Counts::now();
                    ctx_.cpus->pinQuietest();
                    const double t_run = log.time("scenario.run", [&] {
                        r = carbonx::scenario::runScenario(s, opts);
                    });
                    const Counts d = Counts::now() - before;
                    const double t_report =
                        log.time("scenario.report_write",
                                 [&] { (void)reportText(s, r); });
                    run += t_run;
                    report += t_report;
                    study += t_run + t_report;
                    hits += d.cache_hits;
                    lookups += d.cache_hits + d.cache_misses;
                    if (s.mode == carbonx::scenario::SweepMode::Adaptive) {
                        adaptive_sim +=
                            static_cast<double>(r.stats.simulated_points);
                        adaptive_lattice +=
                            static_cast<double>(r.stats.lattice_points);
                    }

                    probes.add(s, *ex, r.result.evaluated, probe_dir,
                               *ctx_.cpus, log);
                });
            }
        });
        fs::remove_all(opts.cache_dir);
        fs::remove_all(probe_dir);

        probes.report(m);
        const double n = static_cast<double>(scenarios_.size());
        const double driver =
            run - build - probes.evaluate - probes.open - probes.insert;
        m["study_s"] = study;
        m["scheduler.kernel_share"] = ratio(probes.kernel, study);
        m["core.fill_share"] =
            ratio(probes.evaluate - probes.kernel, study);
        m["core.driver_ms_per_scenario"] = driver * 1e3 / n;
        m["core.driver_share"] = ratio(driver, study);
        m["core.adaptive_simulated_ratio"] =
            ratio(adaptive_sim, adaptive_lattice);
        m["grid.explorer_build_ms"] = build * 1e3 / n;
        m["grid.explorer_build_share"] = ratio(build, study);
        m["common.cache_open_ms"] = probes.open * 1e3 / n;
        m["common.cache_hit_ratio"] = ratio(
            static_cast<double>(hits), static_cast<double>(lookups));
        m["common.cache_share"] = ratio(probes.open + probes.insert, study);
        m["scenario.report_write_ms"] = report * 1e3 / n;
        m["scenario.report_share"] = ratio(report, study);
        return m;
    }

    void teardown() override { fs::remove_all(ctx_.work_dir); }

  private:
    std::string freshDir()
    {
        const std::string dir =
            ctx_.work_dir + "/cold-" + std::to_string(dirs_++);
        fs::create_directories(dir);
        return dir;
    }

    WorkloadContext ctx_;
    std::vector<Scenario> scenarios_;
    Reference ref_;
    std::vector<ScenarioRunResult> first_;
    std::vector<std::string> first_reports_;
    size_t dirs_ = 0;
};

// ---------------------------------------------------------------------
// resweep-warm

class ResweepWarm : public Workload
{
  public:
    explicit ResweepWarm(WorkloadContext ctx) : ctx_(std::move(ctx)) {}

    /** Registry load plus one cold pass that fills the caches. */
    void setup() override
    {
        scenarios_ = loadScenarios(ctx_);
        ref_ = loadReference(ctx_);
        opts_.cache_dir = ctx_.work_dir + "/warm-cache";
        fs::remove_all(opts_.cache_dir);
        cold_.clear();
        cold_reports_.clear();
        for (const Scenario &s : scenarios_) {
            ctx_.cpus->pinQuietest();
            cold_.push_back(carbonx::scenario::runScenario(s, opts_));
            cold_reports_.push_back(
                sweepIndependent(reportText(s, cold_.back())));
        }
    }

    StudyResult study() override
    {
        StudyResult out;
        for (size_t k = 0; k < scenarios_.size(); ++k) {
            const Scenario &s = scenarios_[k];
            const Counts before = Counts::now();
            ScenarioRunResult r;
            std::string report;
            timePart(ctx_.cpus, out, [&] {
                r = carbonx::scenario::runScenario(s, opts_);
                report = reportText(s, r);
            });
            const Counts d = Counts::now() - before;
            out.counts += d;
            out.points += pointsAnswered(r);
            checkSweep(s, r, ref_, out.failures);
            if (!sameAnswer(r, cold_[k]) ||
                sweepIndependent(report) != cold_reports_[k])
                out.failures.push_back(
                    s.id + ": warm replay differs from the cold answer");
            if (d.cache_misses != 0 || d.lane_hours != 0)
                out.failures.push_back(
                    s.id + ": warm replay missed the cache " +
                    std::to_string(d.cache_misses) + " times");
        }
        return out;
    }

    /**
     * Also times the cold write path (ColdProbes) on the points set-up
     * simulated, so the kernel, evaluator and cache-insert costs are
     * measured by a workload the benchmark runs; they are not part of
     * the warm study and have no share in it.
     */
    LayerSample tracedStudy(SpanLog &log) override
    {
        LayerSample m = emptySample();
        m["scenario.registry_load_ms"] = registryLoadMs(ctx_, log);
        double study = 0, build = 0, run = 0, report = 0, open = 0;
        uint64_t hits = 0, lookups = 0;
        ColdProbes probes;
        const std::string probe_dir = ctx_.work_dir + "/probe";
        fs::create_directories(probe_dir);
        log.time("study", [&] {
            for (size_t k = 0; k < scenarios_.size(); ++k) {
                const Scenario &s = scenarios_[k];
                ctx_.cpus->pinQuietest();
                log.time("scenario:" + s.id, [&] {
                    std::unique_ptr<CarbonExplorer> ex;
                    build += log.time("grid.explorer_build", [&] {
                        ex = carbonx::scenario::makeScenarioExplorer(s);
                    });
                    open += log.time("common.cache_open", [&] {
                        const carbonx::SweepResultCache cache(
                            cachePath(opts_.cache_dir, s),
                            ex->configDigest(s.strategy));
                    });
                    ScenarioRunResult r;
                    const Counts before = Counts::now();
                    const double t_run = log.time("scenario.run", [&] {
                        r = carbonx::scenario::runScenario(s, opts_);
                    });
                    const Counts d = Counts::now() - before;
                    const double t_report =
                        log.time("scenario.report_write",
                                 [&] { (void)reportText(s, r); });
                    run += t_run;
                    report += t_report;
                    study += t_run + t_report;
                    hits += d.cache_hits;
                    lookups += d.cache_hits + d.cache_misses;
                    probes.add(s, *ex, cold_[k].result.evaluated, probe_dir,
                               *ctx_.cpus, log);
                });
            }
        });
        fs::remove_all(probe_dir);
        probes.report(m);
        const double n = static_cast<double>(scenarios_.size());
        const double driver = run - build - open;
        m["study_s"] = study;
        m["core.driver_ms_per_scenario"] = driver * 1e3 / n;
        m["core.driver_share"] = ratio(driver, study);
        m["grid.explorer_build_ms"] = build * 1e3 / n;
        m["grid.explorer_build_share"] = ratio(build, study);
        m["common.cache_open_ms"] = open * 1e3 / n;
        m["common.cache_hit_ratio"] = ratio(
            static_cast<double>(hits), static_cast<double>(lookups));
        m["common.cache_share"] = ratio(open, study);
        m["scenario.report_write_ms"] = report * 1e3 / n;
        m["scenario.report_share"] = ratio(report, study);
        return m;
    }

    void teardown() override { fs::remove_all(ctx_.work_dir); }

  private:
    WorkloadContext ctx_;
    std::vector<Scenario> scenarios_;
    Reference ref_;
    ScenarioRunOptions opts_;
    std::vector<ScenarioRunResult> cold_;
    std::vector<std::string> cold_reports_;
};

// ---------------------------------------------------------------------
// explain-audit

class ExplainAudit : public Workload
{
  public:
    explicit ExplainAudit(WorkloadContext ctx) : ctx_(std::move(ctx)) {}

    /** Registry load, one explorer per site, the evaluate() answers
     *  every explanation must reproduce. */
    void setup() override
    {
        const std::vector<Scenario> scenarios = loadScenarios(ctx_);
        ref_ = loadReference(ctx_);
        inputs_ = loadExplainInputs(ctx_);
        explorers_.clear();
        expected_.clear();
        for (const ExplainInput &in : inputs_) {
            if (explorers_.count(in.scenario) == 0) {
                const auto it = std::find_if(
                    scenarios.begin(), scenarios.end(),
                    [&](const Scenario &s) { return s.id == in.scenario; });
                if (it == scenarios.end())
                    throw std::runtime_error("explain point names unknown "
                                             "scenario '" +
                                             in.scenario + "'");
                ctx_.cpus->pinQuietest();
                explorers_[in.scenario] =
                    carbonx::scenario::makeScenarioExplorer(*it);
            }
            expected_.push_back(
                explorers_[in.scenario]->evaluate(in.point, in.strategy));
        }
        if (ref_.active && ref_.explain_total_kg.size() != inputs_.size())
            throw std::runtime_error("reference has " +
                                     std::to_string(
                                         ref_.explain_total_kg.size()) +
                                     " explain answers for " +
                                     std::to_string(inputs_.size()) +
                                     " points");
    }

    StudyResult study() override
    {
        StudyResult out;
        for (size_t i = 0; i < inputs_.size(); ++i) {
            const ExplainInput &in = inputs_[i];
            const Counts before = Counts::now();
            std::optional<carbonx::ExplainResult> ex;
            carbonx::obs::AuditReport audit;
            std::ostringstream waterfall;
            timePart(ctx_.cpus, out, [&] {
                ex.emplace(explorers_[in.scenario]->explain(in.point,
                                                            in.strategy));
                audit = carbonx::obs::auditRecording(ex->recording,
                                                     ex->auditContext());
                carbonx::printCarbonWaterfall(waterfall, *ex);
            });
            out.counts += Counts::now() - before;
            out.counts.audit_checks += audit.checks;
            out.points += 1;

            const std::string tag = "explain point " + std::to_string(i);
            if (!sameEvaluation(ex->evaluation, expected_[i]))
                out.failures.push_back(tag +
                                       ": explain differs from evaluate()");
            if (!audit.clean())
                out.failures.push_back(
                    tag + ": audit found " +
                    std::to_string(audit.violations.size()) +
                    " violations");
            if (waterfall.str().empty())
                out.failures.push_back(tag + ": empty waterfall");
            if (ref_.active &&
                !sameBits(ex->evaluation.totalKg().value(),
                          ref_.explain_total_kg[i]))
                out.failures.push_back(
                    tag + ": total differs from the reference");
        }
        return out;
    }

    LayerSample tracedStudy(SpanLog &log) override
    {
        LayerSample m = emptySample();
        m["scenario.registry_load_ms"] = registryLoadMs(ctx_, log);
        double t_explain = 0, t_audit = 0, t_waterfall = 0, hours = 0;
        size_t checks = 0;
        log.time("study", [&] {
            for (const ExplainInput &in : inputs_) {
                ctx_.cpus->pinQuietest();
                const CarbonExplorer &explorer = *explorers_[in.scenario];
                hours += static_cast<double>(explorer.dcPower().size());
                std::optional<carbonx::ExplainResult> ex;
                t_explain += log.time("scheduler.explain", [&] {
                    ex.emplace(explorer.explain(in.point, in.strategy));
                });
                t_audit += log.time("obs.audit", [&] {
                    checks += carbonx::obs::auditRecording(
                                  ex->recording, ex->auditContext())
                                  .checks;
                });
                t_waterfall += log.time("core.waterfall", [&] {
                    std::ostringstream os;
                    carbonx::printCarbonWaterfall(os, *ex);
                });
            }
        });
        const double study = t_explain + t_audit + t_waterfall;
        const double n = static_cast<double>(inputs_.size());
        m["study_s"] = study;
        m["scheduler.scalar_ns_per_hour"] = t_explain * 1e9 / hours;
        m["scheduler.scalar_share"] = ratio(t_explain, study);
        m["obs.audit_ms"] = t_audit * 1e3 / n;
        m["obs.audit_ns_per_check"] =
            ratio(t_audit * 1e9, static_cast<double>(checks));
        m["obs.audit_share"] = ratio(t_audit, study);
        m["core.waterfall_share"] = ratio(t_waterfall, study);
        return m;
    }

    void teardown() override { fs::remove_all(ctx_.work_dir); }

  private:
    WorkloadContext ctx_;
    Reference ref_;
    std::vector<ExplainInput> inputs_;
    std::map<std::string, std::unique_ptr<CarbonExplorer>> explorers_;
    std::vector<Evaluation> expected_;
};

std::string
fmt17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadContext &ctx)
{
    if (name == "sweep-cold")
        return std::make_unique<SweepCold>(ctx);
    if (name == "resweep-warm")
        return std::make_unique<ResweepWarm>(ctx);
    if (name == "explain-audit")
        return std::make_unique<ExplainAudit>(ctx);
    return nullptr;
}

void
writeReference(const WorkloadContext &ctx)
{
    std::ostringstream os;
    os << "{\n  \"seed\": " << ctx.seed << ",\n  \"scenarios\": {";
    const std::vector<Scenario> scenarios = loadScenarios(ctx);
    for (size_t k = 0; k < scenarios.size(); ++k) {
        const Scenario &s = scenarios[k];
        const Evaluation best =
            carbonx::scenario::runScenario(s).result.best;
        os << (k ? "," : "") << "\n    \"" << s.id << "\": {\"best\": ["
           << fmt17(best.point.solar_mw.value()) << ", "
           << fmt17(best.point.wind_mw.value()) << ", "
           << fmt17(best.point.battery_mwh.value()) << ", "
           << fmt17(best.point.extra_capacity.value())
           << "], \"best_total_kg\": " << fmt17(best.totalKg().value())
           << "}";
    }
    os << "\n  },\n  \"explain_total_kg\": [";
    std::map<std::string, std::unique_ptr<CarbonExplorer>> explorers;
    const std::vector<ExplainInput> inputs = loadExplainInputs(ctx);
    for (size_t i = 0; i < inputs.size(); ++i) {
        const ExplainInput &in = inputs[i];
        auto &ex = explorers[in.scenario];
        if (!ex)
            for (const Scenario &s : scenarios)
                if (s.id == in.scenario)
                    ex = carbonx::scenario::makeScenarioExplorer(s);
        if (!ex)
            throw std::runtime_error("explain point names unknown "
                                     "scenario '" + in.scenario + "'");
        os << (i ? "," : "") << "\n    "
           << fmt17(ex->evaluate(in.point, in.strategy).totalKg().value());
    }
    os << "\n  ]\n}\n";
    std::ofstream(ctx.reference) << os.str();
}

} // namespace perfbench
