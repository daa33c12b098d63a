#include "adaptive_sweep.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/table.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "scheduler/batched_engine.h"

namespace carbonx
{

SweepResultCache::SweepResultCache(std::string path,
                                   uint64_t config_digest,
                                   std::string provenance)
    : cache_([&] {
          // Delegating through a lambda so the phase brackets the
          // underlying ResultCache's on-disk load (the common layer
          // cannot depend on obs, so the timer lives here).
          CARBONX_PROFILE("cache/load");
          return ResultCache(std::move(path), config_digest,
                             BatchedSimulationEngine::kernelFingerprint(),
                             kPayloadWidth, std::move(provenance));
      }())
{
}

ResultCache::Key
SweepResultCache::keyFor(const DesignPoint &point)
{
    return ResultCache::Key{
        point.solar_mw.value(), point.wind_mw.value(),
        point.battery_mwh.value(), point.extra_capacity.value()};
}

bool
SweepResultCache::find(const DesignPoint &point, Strategy strategy,
                       Evaluation *out) const
{
    const double *payload = cache_.find(keyFor(point));
    if (payload == nullptr)
        return false;
    out->point = point;
    out->strategy = strategy;
    out->coverage_pct = payload[0];
    out->operational_kg = KilogramsCo2(payload[1]);
    out->embodied_solar_kg = KilogramsCo2(payload[2]);
    out->embodied_wind_kg = KilogramsCo2(payload[3]);
    out->embodied_battery_kg = KilogramsCo2(payload[4]);
    out->embodied_server_kg = KilogramsCo2(payload[5]);
    out->battery_cycles = payload[6];
    out->deferred_mwh = MegaWattHours(payload[7]);
    out->renewable_excess_mwh = MegaWattHours(payload[8]);
    return true;
}

bool
SweepResultCache::insert(const Evaluation &eval)
{
    const std::array<double, kPayloadWidth> payload = {
        eval.coverage_pct,
        eval.operational_kg.value(),
        eval.embodied_solar_kg.value(),
        eval.embodied_wind_kg.value(),
        eval.embodied_battery_kg.value(),
        eval.embodied_server_kg.value(),
        eval.battery_cycles,
        eval.deferred_mwh.value(),
        eval.renewable_excess_mwh.value()};
    return cache_.insert(keyFor(eval.point), payload.data());
}

void
SweepResultCache::flush()
{
    CARBONX_PROFILE("cache/flush");
    cache_.flush();
}

namespace
{

/** Axis indices of one lattice point. */
using LatticeIdx = std::array<size_t, 4>;

/**
 * Safety margin subtracted from a point's interpolated estimate, as a
 * multiple of the owning cell's corner spread. Larger values evaluate
 * more points; the audit doubles the effective margins whenever a
 * simulated point proves them optimistic.
 */
constexpr double kMarginScale = 0.1;

/**
 * Margin floor as a fraction of the global coarse-pass spread, so
 * cells whose corners happen to agree still keep a safety band.
 */
constexpr double kMarginFloorRel = 0.01;

/**
 * Cells refined per wave. Fixed (never derived from the thread count)
 * so the refinement trajectory — and with it the set of evaluated
 * points — is bit-identical at any thread count.
 */
constexpr size_t kCellsPerWave = 8;

/**
 * The zoom step between refinement passes: each axis of @p cur is
 * narrowed to [best - step, best + step] (one current step in every
 * direction), clamped to @p orig's bounds, keeping the sample counts.
 */
DesignSpace
zoomedSpace(const DesignSpace &orig, const DesignSpace &cur,
            const DesignPoint &best)
{
    auto zoom = [](const AxisSpec &o, const AxisSpec &c, double b) {
        AxisSpec next = c;
        const double step = c.steps > 1
            ? (c.max - c.min) / static_cast<double>(c.steps - 1)
            : 0.0;
        next.min = std::max(o.min, b - step);
        next.max = std::min(o.max, b + step);
        if (next.max <= next.min)
            next.steps = 1;
        return next;
    };
    DesignSpace out = cur;
    out.solar_mw =
        zoom(orig.solar_mw, cur.solar_mw, best.solar_mw.value());
    out.wind_mw = zoom(orig.wind_mw, cur.wind_mw, best.wind_mw.value());
    out.battery_mwh = zoom(orig.battery_mwh, cur.battery_mwh,
                           best.battery_mwh.value());
    out.extra_capacity = zoom(orig.extra_capacity, cur.extra_capacity,
                              best.extra_capacity.value());
    return out;
}

/** Runs a callable when its scope ends, by return or by unwind. */
template <class Fn>
struct OnScopeExit
{
    Fn fn;
    ~OnScopeExit() { fn(); }
};

/** Coarse index list of one axis: 0, stride, 2*stride, ..., last. */
std::vector<size_t>
coarseIndices(size_t n, size_t stride)
{
    std::vector<size_t> out;
    for (size_t i = 0; i < n; i += stride)
        out.push_back(i);
    if (out.back() != n - 1)
        out.push_back(n - 1);
    return out;
}

/** Corner statistics of one cell, on the three bounded objectives. */
struct CellBounds
{
    double min_total = 0.0;
    double spread_total = 0.0;
    double min_embodied = 0.0;
    double spread_embodied = 0.0;
    double min_operational = 0.0;
    double spread_operational = 0.0;
};

/**
 * One hyper-rectangle between adjacent coarse indices (inclusive on
 * both faces; neighbors share faces, deduplicated by the evaluated
 * bitmap). order_key is the lo-corner's lattice linear index — the
 * deterministic tie-break of the refinement priority order.
 */
struct Cell
{
    LatticeIdx lo{};
    LatticeIdx hi{};
    CellBounds bounds;
    size_t order_key = 0;
};

} // namespace

AdaptiveSweeper::AdaptiveSweeper(const CarbonExplorer &explorer,
                                 AdaptiveSweepOptions options)
    : explorer_(explorer), options_(options)
{
    require(options_.coarse_stride >= 1,
            "sweep coarse stride must be >= 1");
}

AdaptiveSweepResult
AdaptiveSweeper::sweep(const DesignSpace &space, Strategy strategy) const
{
    return sweepPass(space, strategy, 0);
}

AdaptiveSweepResult
AdaptiveSweeper::sweepRefined(const DesignSpace &space,
                              Strategy strategy, int rounds) const
{
    require(rounds >= 0, "refinement rounds must be >= 0");
    CARBONX_SPAN("explorer/optimize_refined");
    AdaptiveSweepResult result = sweepPass(space, strategy, 0);

    DesignSpace current = space;
    for (int round = 0; round < rounds; ++round) {
        current = zoomedSpace(space, current, result.result.best.point);
        AdaptiveSweepResult pass =
            sweepPass(current, strategy, round + 1);
        obs::counter("explorer.refine_rounds").increment();
        if (pass.result.best.totalKg() < result.result.best.totalKg()) {
            inform("refinement round " + std::to_string(round + 1) +
                   " improved best total carbon to " +
                   formatFixed(pass.result.best.totalKg().value(), 0) +
                   " kg");
            result.result.best = pass.result.best;
        }
        for (auto &e : pass.result.evaluated)
            result.result.evaluated.push_back(std::move(e));
        result.stats.lattice_points += pass.stats.lattice_points;
        result.stats.simulated_points += pass.stats.simulated_points;
        result.stats.cache_hits += pass.stats.cache_hits;
        result.stats.points_skipped += pass.stats.points_skipped;
        result.stats.cells_total += pass.stats.cells_total;
        result.stats.cells_refined += pass.stats.cells_refined;
        result.stats.cells_excluded += pass.stats.cells_excluded;
        result.stats.margin_inflations += pass.stats.margin_inflations;
    }
    return result;
}

AdaptiveSweepResult
AdaptiveSweeper::sweepPass(const DesignSpace &space, Strategy strategy,
                           int pass) const
{
    CARBONX_SPAN("explorer/optimize");
    CARBONX_PROFILE("sweep/pass");
    static auto &c_passes = obs::counter("explorer.optimize_passes");
    static auto &c_skipped = obs::counter("sweep.points_skipped");
    static auto &c_refined = obs::counter("sweep.cells_refined");
    static auto &c_excluded = obs::counter("sweep.cells_excluded");
    static auto &c_inflated = obs::counter("sweep.margin_inflations");
    static auto &g_threads = obs::gauge("sweep.threads");
    static auto &g_pps = obs::gauge("sweep.points_per_sec");
    c_passes.increment();
    obs::DecisionJournal *journal = explorer_.journal();
    if (explorer_.runStatus() != nullptr)
        explorer_.runStatus()->setPhase("sweep");

    // The lattice in (solar, wind, battery, extra) linear order: axes
    // a strategy ignores collapse to {0}.
    const std::array<std::vector<double>, 4> axes = {
        space.solar_mw.samples(), space.wind_mw.samples(),
        strategyUsesBattery(strategy) ? space.battery_mwh.samples()
                                      : std::vector<double>{0.0},
        strategyUsesCas(strategy) ? space.extra_capacity.samples()
                                  : std::vector<double>{0.0}};
    const std::array<size_t, 4> dims = {
        axes[0].size(), axes[1].size(), axes[2].size(),
        axes[3].size()};
    const size_t total = dims[0] * dims[1] * dims[2] * dims[3];
    ensure(total > 0, "sweep has no design points");

    const auto linearIndex = [&dims](const LatticeIdx &idx) {
        return ((idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]) *
                   dims[3] +
               idx[3];
    };
    const auto pointAt = [&axes](const LatticeIdx &idx) {
        return DesignPoint{MegaWatts(axes[0][idx[0]]),
                           MegaWatts(axes[1][idx[1]]),
                           MegaWattHours(axes[2][idx[2]]),
                           Fraction(axes[3][idx[3]])};
    };
    const auto latticeIdxOf = [&dims](size_t linear) {
        LatticeIdx idx;
        idx[3] = linear % dims[3];
        linear /= dims[3];
        idx[2] = linear % dims[2];
        linear /= dims[2];
        idx[1] = linear % dims[1];
        idx[0] = linear / dims[1];
        return idx;
    };

    std::vector<uint8_t> evaluated(total, 0);
    std::vector<Evaluation> evals(total);

    SweepBatchEvaluator evaluator(explorer_, strategy);
    // Effective parallelism: the evaluator shards lane waves over the
    // workers, so a lattice of fewer waves leaves workers idle.
    const size_t lattice_waves =
        (total + SweepBatchEvaluator::kLanesPerWave - 1) /
        SweepBatchEvaluator::kLanesPerWave;
    g_threads.set(static_cast<double>(
        std::min(std::max<size_t>(threadCount(), 1), lattice_waves)));

    // Throughput over every point the pass evaluated, recorded on
    // every exit — the SweepAborted unwind too, since the aborting
    // batch was evaluated and checkpointed before the throw.
    const auto sweep_start = std::chrono::steady_clock::now();
    const OnScopeExit record_throughput{[&] {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - sweep_start;
        const size_t done =
            evaluator.simulatedPoints() + evaluator.cacheHits();
        if (elapsed.count() > 0.0 && done > 0)
            g_pps.set(static_cast<double>(done) / elapsed.count());
    }};

    // Coarse sub-lattice.
    std::array<std::vector<size_t>, 4> coarse;
    for (size_t a = 0; a < 4; ++a)
        coarse[a] = coarseIndices(dims[a], options_.coarse_stride);
    std::vector<size_t> coarse_points;
    coarse_points.reserve(coarse[0].size() * coarse[1].size() *
                          coarse[2].size() * coarse[3].size());
    for (const size_t i0 : coarse[0])
        for (const size_t i1 : coarse[1])
            for (const size_t i2 : coarse[2])
                for (const size_t i3 : coarse[3])
                    coarse_points.push_back(
                        linearIndex(LatticeIdx{i0, i1, i2, i3}));

    // Progress covers the whole pass; the total starts at the coarse
    // count and grows as refinement discovers work
    // (obs::SweepProgressEmitter::growTotal).
    obs::SweepProgressEmitter emitter(explorer_.progressCallback(),
                                      pass, coarse_points.size(),
                                      explorer_.progressUpdates());

    // Evaluate a sorted, unevaluated index list; scatter into evals.
    // @p ann, when non-null, annotates the journal rows of this wave
    // (one entry per id, in id order) with the triage verdict and the
    // prediction the decision was based on. A list of the whole
    // lattice (the stride-1 coarse pass) is 0..total-1, so it is
    // evaluated straight into evals with no scatter copy.
    std::vector<DesignPoint> wave_points;
    std::vector<Evaluation> wave_out;
    const auto evaluateIndices =
        [&](const std::vector<size_t> &ids,
            const SweepBatchEvaluator::PointAnnotation *ann) {
            if (ids.empty())
                return;
            const bool whole = ids.size() == total;
            wave_points.clear();
            wave_points.reserve(ids.size());
            for (const size_t li : ids)
                wave_points.push_back(pointAt(latticeIdxOf(li)));
            if (!whole)
                wave_out.resize(ids.size());
            if (ann != nullptr)
                evaluator.setPointAnnotations(ann);
            evaluator.evaluate(wave_points.data(), wave_points.size(),
                               whole ? evals.data() : wave_out.data(),
                               &emitter);
            for (size_t k = 0; k < ids.size(); ++k) {
                if (!whole)
                    evals[ids[k]] = std::move(wave_out[k]);
                evaluated[ids[k]] = 1;
            }
        };

    // Assemble the result in lattice linear order, restricted to the
    // evaluated subset. The strict < scan reproduces the exhaustive
    // tie-break (among equal totals the first in lattice order wins):
    // every skipped point is strictly worse than the best total, so
    // no skipped point could have won or tied.
    AdaptiveSweepStats stats;
    const auto finish = [&]() {
        emitter.finish();
        // Compact evals in place: the result takes over its storage.
        size_t kept = 0;
        for (size_t li = 0; li < total; ++li) {
            if (evaluated[li] != 0)
                evals[kept++] = evals[li];
        }
        evals.resize(kept);
        AdaptiveSweepResult out;
        out.result.evaluated = std::move(evals);
        out.result.best = out.result.evaluated.front();
        for (const Evaluation &ev : out.result.evaluated) {
            if (ev.totalKg() < out.result.best.totalKg())
                out.result.best = ev;
        }

        stats.lattice_points = total;
        stats.simulated_points = evaluator.simulatedPoints();
        stats.cache_hits = evaluator.cacheHits();
        stats.points_skipped = total - out.result.evaluated.size();
        c_skipped.increment(stats.points_skipped);
        c_refined.increment(stats.cells_refined);
        c_excluded.increment(stats.cells_excluded);
        out.stats = stats;
        return out;
    };

    evaluateIndices(coarse_points, nullptr);
    // Exhaustive mode (stride 1): the coarse pass was the whole
    // lattice, so there are no cells to build and nothing to triage.
    if (coarse_points.size() == total)
        return finish();

    // Global objective spreads over the coarse pass anchor the margin
    // floors; frozen here so margins evolve only through the audit's
    // inflation factor (deterministic and easy to reason about).
    double global_spread_total = 0.0;
    double global_spread_embodied = 0.0;
    double global_spread_operational = 0.0;
    double best_total = std::numeric_limits<double>::infinity();
    {
        double max_total = -std::numeric_limits<double>::infinity();
        double min_e = std::numeric_limits<double>::infinity();
        double max_e = -min_e;
        double min_o = min_e;
        double max_o = -min_e;
        for (const size_t li : coarse_points) {
            const Evaluation &ev = evals[li];
            best_total = std::min(best_total, ev.totalKg().value());
            max_total = std::max(max_total, ev.totalKg().value());
            min_e = std::min(min_e, ev.embodiedKg().value());
            max_e = std::max(max_e, ev.embodiedKg().value());
            min_o = std::min(min_o, ev.operational_kg.value());
            max_o = std::max(max_o, ev.operational_kg.value());
        }
        global_spread_total = max_total - best_total;
        global_spread_embodied = max_e - min_e;
        global_spread_operational = max_o - min_o;
    }

    // Build the cell partition with corner bounds (corners are coarse
    // points, all evaluated above).
    const auto segmentsOf = [](const std::vector<size_t> &marks) {
        std::vector<std::pair<size_t, size_t>> segs;
        if (marks.size() == 1) {
            segs.emplace_back(marks[0], marks[0]);
        } else {
            for (size_t j = 0; j + 1 < marks.size(); ++j)
                segs.emplace_back(marks[j], marks[j + 1]);
        }
        return segs;
    };
    std::array<std::vector<std::pair<size_t, size_t>>, 4> segments;
    for (size_t a = 0; a < 4; ++a)
        segments[a] = segmentsOf(coarse[a]);

    std::vector<Cell> pending;
    for (const auto &s0 : segments[0])
        for (const auto &s1 : segments[1])
            for (const auto &s2 : segments[2])
                for (const auto &s3 : segments[3]) {
                    Cell cell;
                    cell.lo = {s0.first, s1.first, s2.first, s3.first};
                    cell.hi = {s0.second, s1.second, s2.second,
                               s3.second};
                    cell.order_key = linearIndex(cell.lo);

                    CellBounds &b = cell.bounds;
                    b.min_total = std::numeric_limits<double>::infinity();
                    b.min_embodied = b.min_total;
                    b.min_operational = b.min_total;
                    double max_total = -b.min_total;
                    double max_e = -b.min_total;
                    double max_o = -b.min_total;
                    for (unsigned corner = 0; corner < 16; ++corner) {
                        LatticeIdx idx;
                        for (size_t a = 0; a < 4; ++a)
                            idx[a] = (corner & (1u << a)) != 0
                                ? cell.hi[a]
                                : cell.lo[a];
                        const Evaluation &ev =
                            evals[linearIndex(idx)];
                        const double t = ev.totalKg().value();
                        const double e = ev.embodiedKg().value();
                        const double o = ev.operational_kg.value();
                        b.min_total = std::min(b.min_total, t);
                        max_total = std::max(max_total, t);
                        b.min_embodied = std::min(b.min_embodied, e);
                        max_e = std::max(max_e, e);
                        b.min_operational =
                            std::min(b.min_operational, o);
                        max_o = std::max(max_o, o);
                    }
                    b.spread_total = max_total - b.min_total;
                    b.spread_embodied = max_e - b.min_embodied;
                    b.spread_operational = max_o - b.min_operational;
                    pending.push_back(cell);
                }
    stats.cells_total = pending.size();

    // Strict-domination query structure over the evaluated points'
    // (embodied, operational) pairs: sorted by embodied with a prefix
    // minimum of operational, so "does any evaluated point strictly
    // dominate (e, o)?" is one binary search.
    std::vector<std::pair<double, double>> eo;
    std::vector<double> prefix_min_op;
    const auto rebuildFrontier = [&]() {
        eo.clear();
        for (size_t li = 0; li < total; ++li) {
            if (evaluated[li] != 0)
                eo.emplace_back(evals[li].embodiedKg().value(),
                                evals[li].operational_kg.value());
        }
        std::sort(eo.begin(), eo.end());
        prefix_min_op.resize(eo.size());
        double running = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < eo.size(); ++i) {
            running = std::min(running, eo[i].second);
            prefix_min_op[i] = running;
        }
    };
    const auto strictlyDominated = [&](double e, double o) {
        const auto it = std::lower_bound(
            eo.begin(), eo.end(), e,
            [](const std::pair<double, double> &p, double v) {
                return p.first < v;
            });
        if (it == eo.begin())
            return false;
        return prefix_min_op[static_cast<size_t>(it - eo.begin()) - 1] <
               o;
    };
    rebuildFrontier();

    double inflation = 1.0;

    // Per-point predictions: multilinear interpolation of the owning
    // cell's corner evaluations, with margins from the cell's corner
    // spread plus the global floor. A point is skipped only when its
    // margin-padded estimate is strictly worse than the best so far
    // AND (when the frontier is preserved) some evaluated point
    // strictly dominates its margin-padded (embodied, operational)
    // estimate. The audit below checks every evaluated interior point
    // against its own prediction, so optimistic margins are caught on
    // the points we do simulate and cured by doubling `inflation`,
    // which re-tests every skipped point.
    struct PointPrediction
    {
        double e_hat = 0.0; ///< Interpolated embodied estimate.
        double o_hat = 0.0; ///< Interpolated operational estimate.
        double m_t = 0.0;   ///< Base total margin (pre-inflation).
        double m_e = 0.0;   ///< Base embodied margin.
        double m_o = 0.0;   ///< Base operational margin.
    };
    // 0 = undecided, 1 = queued for evaluation, 2 = skipped.
    std::vector<uint8_t> decided(total, 0);
    std::vector<PointPrediction> preds(total);
    std::vector<size_t> skipped_ids;

    // Journal plumbing for triage decisions: skipped points are
    // journaled immediately (they never reach the evaluator), and
    // simulated waves carry PointAnnotations so the evaluator's rows
    // record the triage verdict plus the prediction behind it. A
    // revived point therefore journals twice — Skipped when pruned,
    // ReArmed when the inflated margins bring it back — so readers
    // can replay the margin-inflation history.
    std::vector<SweepBatchEvaluator::PointAnnotation> wave_ann;
    const auto annotationsFor =
        [&](const std::vector<size_t> &ids,
            obs::DecisionVerdict verdict)
        -> const SweepBatchEvaluator::PointAnnotation * {
        if (journal == nullptr || ids.empty())
            return nullptr;
        wave_ann.clear();
        wave_ann.reserve(ids.size());
        for (const size_t li : ids) {
            const PointPrediction &p = preds[li];
            wave_ann.push_back(SweepBatchEvaluator::PointAnnotation{
                verdict, p.e_hat + p.o_hat, inflation * p.m_t});
        }
        return wave_ann.data();
    };
    const auto journalSkip = [&](const LatticeIdx &idx, size_t li,
                                 uint64_t ts) {
        obs::DecisionRow row;
        row.point_id = obs::decisionPointId(
            {axes[0][idx[0]], axes[1][idx[1]], axes[2][idx[2]],
             axes[3][idx[3]]});
        row.wave = journal->nextWave();
        row.verdict = obs::DecisionVerdict::Skipped;
        row.predicted_kg = preds[li].e_hat + preds[li].o_hat;
        row.actual_kg = std::numeric_limits<double>::quiet_NaN();
        row.margin_kg = inflation * preds[li].m_t;
        row.ts_us = ts;
        journal->sink(0).record(row);
    };

    const auto skippable = [&](const PointPrediction &p) {
        const double t_hat = p.e_hat + p.o_hat;
        if (!(t_hat - inflation * p.m_t > best_total))
            return false;
        return strictlyDominated(p.e_hat - inflation * p.m_e,
                                 p.o_hat - inflation * p.m_o);
    };
    // True when the simulated point undercuts its own margin-padded
    // prediction — the signal that margins are optimistic here.
    const auto auditFails = [&](size_t li) {
        const PointPrediction &p = preds[li];
        const Evaluation &ev = evals[li];
        const double t_hat = p.e_hat + p.o_hat;
        return ev.totalKg().value() < t_hat - inflation * p.m_t ||
               ev.embodiedKg().value() <
                   p.e_hat - inflation * p.m_e ||
               ev.operational_kg.value() <
                   p.o_hat - inflation * p.m_o;
    };

    const auto forEachCellIndex = [&](const Cell &cell,
                                      const auto &fn) {
        LatticeIdx idx;
        for (idx[0] = cell.lo[0]; idx[0] <= cell.hi[0]; ++idx[0])
            for (idx[1] = cell.lo[1]; idx[1] <= cell.hi[1]; ++idx[1])
                for (idx[2] = cell.lo[2]; idx[2] <= cell.hi[2];
                     ++idx[2])
                    for (idx[3] = cell.lo[3]; idx[3] <= cell.hi[3];
                         ++idx[3])
                        fn(idx, linearIndex(idx));
    };

    // Interpolate (embodied, operational) for @p idx inside @p cell
    // from the cell's 16 evaluated corners; weights are the usual
    // multilinear products of the fractional index offsets.
    const auto interpolate = [&](const Cell &cell,
                                 const LatticeIdx &idx,
                                 PointPrediction *p) {
        double frac[4];
        for (size_t a = 0; a < 4; ++a) {
            const size_t w = cell.hi[a] - cell.lo[a];
            frac[a] = w > 0 ? static_cast<double>(idx[a] -
                                                  cell.lo[a]) /
                    static_cast<double>(w)
                            : 0.0;
        }
        double e_hat = 0.0;
        double o_hat = 0.0;
        for (unsigned corner = 0; corner < 16; ++corner) {
            double weight = 1.0;
            LatticeIdx cidx;
            for (size_t a = 0; a < 4; ++a) {
                const bool hi = (corner & (1u << a)) != 0;
                cidx[a] = hi ? cell.hi[a] : cell.lo[a];
                weight *= hi ? frac[a] : 1.0 - frac[a];
            }
            if (weight == 0.0)
                continue;
            const Evaluation &ev = evals[linearIndex(cidx)];
            e_hat += weight * ev.embodiedKg().value();
            o_hat += weight * ev.operational_kg.value();
        }
        const CellBounds &b = cell.bounds;
        p->e_hat = e_hat;
        p->o_hat = o_hat;
        p->m_t = kMarginScale * b.spread_total +
            kMarginFloorRel * global_spread_total;
        p->m_e = kMarginScale * b.spread_embodied +
            kMarginFloorRel * global_spread_embodied;
        p->m_o = kMarginScale * b.spread_operational +
            kMarginFloorRel * global_spread_operational;
    };

    std::vector<size_t> wave_ids;
    std::vector<size_t> revived;
    const auto cellLowerBound = [&](const Cell &cell) {
        return cell.bounds.min_total -
            inflation *
                (kMarginScale * cell.bounds.spread_total +
                 kMarginFloorRel * global_spread_total);
    };
    while (!pending.empty()) {
        // Most promising cells first: lowest margin-padded corner
        // minimum, lo-corner lattice order as the deterministic
        // tie-break. Evaluating low cells early drives best_total
        // down, which lets later cells skip more of their interior.
        std::sort(pending.begin(), pending.end(),
                  [&](const Cell &a, const Cell &b) {
                      const double lba = cellLowerBound(a);
                      const double lbb = cellLowerBound(b);
                      if (lba != lbb)
                          return lba < lbb;
                      return a.order_key < b.order_key;
                  });
        const size_t take =
            std::min(kCellsPerWave, pending.size());
        std::vector<Cell> wave(pending.begin(),
                               pending.begin() +
                                   static_cast<ptrdiff_t>(take));
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<ptrdiff_t>(take));

        wave_ids.clear();
        // One timestamp per triage wave: skip rows are bookkeeping,
        // not timing samples, so a shared clock read keeps the triage
        // loop cheap.
        const uint64_t triage_ts =
            journal != nullptr ? journal->nowUs() : 0;
        for (const Cell &cell : wave) {
            bool any_needed = false;
            bool any_skipped = false;
            forEachCellIndex(cell, [&](const LatticeIdx &idx,
                                       size_t li) {
                if (evaluated[li] != 0 || decided[li] != 0)
                    return; // first decision wins (shared faces)
                interpolate(cell, idx, &preds[li]);
                if (skippable(preds[li])) {
                    decided[li] = 2;
                    skipped_ids.push_back(li);
                    if (journal != nullptr)
                        journalSkip(idx, li, triage_ts);
                    any_skipped = true;
                } else {
                    decided[li] = 1;
                    wave_ids.push_back(li);
                    any_needed = true;
                }
            });
            if (any_needed)
                ++stats.cells_refined;
            else if (any_skipped)
                ++stats.cells_excluded;
        }
        std::sort(wave_ids.begin(), wave_ids.end());

        emitter.growTotal(wave_ids.size());
        evaluateIndices(
            wave_ids,
            annotationsFor(wave_ids,
                           obs::DecisionVerdict::Interpolated));
        for (const size_t li : wave_ids)
            best_total =
                std::min(best_total, evals[li].totalKg().value());
        rebuildFrontier();

        // Audit-and-re-arm loop: any evaluated point undercutting its
        // own prediction makes every standing skip suspect. Double
        // the inflation, re-test all skipped points under the new
        // margins, and evaluate the ones that no longer pass. Repeats
        // until a round is clean; inflation growing past the global
        // spreads revives everything, so this terminates.
        std::vector<size_t> suspects = wave_ids;
        while (true) {
            bool violated = false;
            for (const size_t li : suspects) {
                if (auditFails(li)) {
                    violated = true;
                    break;
                }
            }
            if (!violated)
                break;
            inflation *= 2.0;
            ++stats.margin_inflations;
            c_inflated.increment();
            revived.clear();
            size_t keep = 0;
            for (const size_t li : skipped_ids) {
                if (skippable(preds[li])) {
                    skipped_ids[keep++] = li;
                } else {
                    decided[li] = 1;
                    revived.push_back(li);
                }
            }
            skipped_ids.resize(keep);
            if (revived.empty())
                break;
            std::sort(revived.begin(), revived.end());
            emitter.growTotal(revived.size());
            evaluateIndices(
                revived,
                annotationsFor(revived,
                               obs::DecisionVerdict::ReArmed));
            for (const size_t li : revived)
                best_total = std::min(best_total,
                                      evals[li].totalKg().value());
            rebuildFrontier();
            suspects = revived;
        }
    }
    AdaptiveSweepResult out = finish();
    inform("adaptive sweep: " + std::to_string(stats.simulated_points) +
           " simulated, " + std::to_string(stats.cache_hits) +
           " cache hits, " + std::to_string(stats.points_skipped) +
           "/" + std::to_string(total) + " lattice points skipped (" +
           std::to_string(stats.cells_excluded) + "/" +
           std::to_string(stats.cells_total) + " cells excluded, " +
           std::to_string(stats.margin_inflations) +
           " margin inflations)");
    return out;
}

} // namespace carbonx
