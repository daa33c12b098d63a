/**
 * @file
 * The design-space sweep driver and the typed sweep result cache.
 *
 * AdaptiveSweeper is the one driver behind every sweep: the exhaustive
 * search of the paper's Carbon Explorer (CarbonExplorer::optimize) is
 * this driver at coarse stride 1, which evaluates every lattice point
 * in its coarse pass and triages nothing. At larger strides it
 * exploits the smoothness of the carbon surface, on which most of the
 * lattice lies far above the optimum and far inside the
 * Pareto-dominated region: it evaluates a coarse sub-lattice, ranks
 * the cells between coarse points by how close their corners come to
 * the best total seen, and refines the promising cells first. Within
 * a cell, each lattice point gets a multilinear interpolation of the
 * corner evaluations; points whose margin-padded estimates are
 * provably irrelevant (strictly worse than the best so far, and
 * strictly dominated on the Pareto frontier) are skipped, the rest
 * are simulated. A bound audit checks every simulated point against
 * its own prediction and inflates the safety margins (re-testing
 * every previously skipped point) whenever they prove optimistic —
 * so the returned best point, best total, and Pareto frontier are
 * bit-identical to exhaustive mode while simulating a fraction of
 * the lattice.
 *
 * SweepResultCache wraps the generic on-disk ResultCache
 * (common/result_cache.h) with the Evaluation payload codec, giving
 * every sweep checkpoint/resume and cross-run reuse keyed by
 * CarbonExplorer::configDigest.
 */

#ifndef CARBONX_CORE_ADAPTIVE_SWEEP_H
#define CARBONX_CORE_ADAPTIVE_SWEEP_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result_cache.h"
#include "core/explorer.h"

namespace carbonx
{

/**
 * Persistent cache of design-point Evaluations. A thin, typed wrapper
 * over ResultCache: the key is the design point's four coordinates,
 * the payload is the nine carbon/energy outcome fields of Evaluation
 * (the point and strategy are reconstructed by the caller, which is
 * why find() takes both). One cache file serves one (configuration,
 * strategy) pair — the config digest folds the strategy in, so
 * attaching a cache built for a different study rebuilds it from
 * scratch rather than serving wrong results.
 *
 * Not thread-safe; call only from the sweep's coordinating thread
 * (see SweepBatchEvaluator).
 */
class SweepResultCache
{
  public:
    /** Evaluation outcome fields stored per record. */
    static constexpr uint32_t kPayloadWidth = 9;

    /**
     * Open or create the cache file at @p path for the study
     * identified by @p config_digest (CarbonExplorer::configDigest of
     * the swept strategy). @p provenance is embedded in newly written
     * files for `carbonx explain`-style forensics.
     */
    SweepResultCache(std::string path, uint64_t config_digest,
                     std::string provenance = "");

    /**
     * Look up @p point; on a hit, reconstruct the full Evaluation
     * (with @p strategy stamped) into @p out and return true.
     */
    bool find(const DesignPoint &point, Strategy strategy,
              Evaluation *out) const;

    /** Buffer @p eval for the next flush; false when already cached. */
    bool insert(const Evaluation &eval);

    /** Persist buffered records as one block (see ResultCache). */
    void flush();

    size_t size() const { return cache_.size(); }
    size_t loadedFromDisk() const { return cache_.loadedFromDisk(); }
    const std::string &rebuildReason() const
    {
        return cache_.rebuildReason();
    }
    const std::string &provenance() const { return cache_.provenance(); }
    const std::string &path() const { return cache_.path(); }
    uint64_t configDigest() const { return cache_.configDigest(); }

    /** The cache key of a design point (its four coordinates). */
    static ResultCache::Key keyFor(const DesignPoint &point);

  private:
    ResultCache cache_;
};

/**
 * The one setting of the sweep driver. The triage margins and the
 * refinement wave width are fixed constants of the driver
 * (adaptive_sweep.cc), so every run of a given stride makes the same
 * decisions.
 */
struct AdaptiveSweepOptions
{
    /**
     * Coarse sub-lattice stride: every stride-th index of each axis
     * (plus the last) is evaluated up front. 1 is exhaustive mode:
     * the coarse pass is the whole lattice, nothing is triaged, and
     * the driver returns right after it. 2 keeps the corner
     * interpolation tight, which empirically skips the most points
     * overall.
     */
    size_t coarse_stride = 2;
};

/**
 * Work accounting of one sweep. In exhaustive mode (stride 1) nothing
 * is skipped and no cells are built, so only lattice_points,
 * simulated_points and cache_hits are non-zero.
 */
struct AdaptiveSweepStats
{
    size_t lattice_points = 0;   ///< Full-resolution lattice size.
    size_t simulated_points = 0; ///< Freshly simulated (cache misses).
    size_t cache_hits = 0;       ///< Served from the result cache.
    size_t points_skipped = 0;   ///< Excluded by cell bounds.
    size_t cells_total = 0;      ///< Cells in the coarse partition.
    size_t cells_refined = 0;    ///< Cells scanned to full resolution.
    size_t cells_excluded = 0;   ///< Cells proven not to matter.
    size_t margin_inflations = 0; ///< Audit-triggered margin doublings.
};

/** Outcome of AdaptiveSweeper::sweep. */
struct AdaptiveSweepResult
{
    /**
     * best is bit-identical to the exhaustive-mode best; evaluated
     * holds only the points actually evaluated, in lattice order (all
     * of them at stride 1), so paretoSet() equals the frontier of the
     * full lattice.
     */
    OptimizationResult result;
    AdaptiveSweepStats stats;
};

/**
 * The coarse-to-fine sweep driver. Borrow an explorer (whose sweep
 * cache, journal, run status, abort hook and progress callback are
 * honored) and call sweep() or sweepRefined() per strategy.
 *
 * Algorithm: evaluate the coarse sub-lattice (at stride 1 that is the
 * whole lattice, and the sweep ends there); partition the space
 * into cells (hyper-rectangles between adjacent coarse indices);
 * repeatedly pop the most promising pending cells (lowest margin-
 * padded corner minimum first) and triage each interior point
 * against the current best-so-far and Pareto set using its
 * interpolated, margin-padded estimate: provably irrelevant points
 * are skipped, the rest are simulated in one parallel wave. After
 * each wave, audit every fresh evaluation against its own
 * prediction; a violation doubles the global margin inflation and
 * re-tests all previously skipped points, evaluating any that no
 * longer pass. The loop ends when no cell is pending; with margins
 * inflated past the global spread nothing can be skipped, so the
 * worst case degrades gracefully to the exhaustive sweep.
 *
 * Determinism: every decision (ordering, exclusion, wave membership)
 * happens on the coordinating thread from deterministic inputs;
 * parallelism only accelerates the point evaluations, which are
 * themselves bit-deterministic. Results are identical at any thread
 * count.
 */
class AdaptiveSweeper
{
  public:
    explicit AdaptiveSweeper(const CarbonExplorer &explorer,
                             AdaptiveSweepOptions options = {});

    /**
     * Sweep @p space. Throws SweepAborted when the explorer's abort
     * hook fires (progress is checkpointed to the attached cache
     * first).
     */
    AdaptiveSweepResult sweep(const DesignSpace &space,
                              Strategy strategy) const;

    /**
     * sweep() followed by @p rounds of zoom refinement: after each
     * pass every axis is narrowed to one current step either side of
     * the best point (clamped to @p space's bounds, sample counts
     * kept) and swept again. Each pass's best is bit-identical to its
     * exhaustive-mode twin, so the zoom trajectory — and the final
     * best — is the same at any stride. The evaluated set is the
     * union of all passes; stats are summed over passes.
     */
    AdaptiveSweepResult sweepRefined(const DesignSpace &space,
                                     Strategy strategy,
                                     int rounds = 2) const;

  private:
    AdaptiveSweepResult sweepPass(const DesignSpace &space,
                                  Strategy strategy, int pass) const;

    const CarbonExplorer &explorer_;
    AdaptiveSweepOptions options_;
};

} // namespace carbonx

#endif // CARBONX_CORE_ADAPTIVE_SWEEP_H
