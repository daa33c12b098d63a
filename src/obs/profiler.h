/**
 * @file
 * Hierarchical phase-profiler sink for CARBONX_SCOPE (obs/scope.h).
 *
 * Scopes that open while the profiler is on nest lexically per thread
 * into a call tree; every node accumulates count, total wall time,
 * and min/max per entry. Each thread owns its tree (no locking on the
 * hot path), and merged() folds all per-thread trees into one
 * aggregate keyed by scope name, with self time (total minus
 * children) computed on export. The same scopes feed the Chrome trace
 * (obs/trace.h) when that sink is on. The profiler is disabled by
 * default.
 *
 * reset() and merged() require quiescence: no thread may be inside a
 * scope while they run. The bench harness snapshots between
 * scenarios, after parallelFor has joined its workers.
 */

#ifndef CARBONX_OBS_PROFILER_H
#define CARBONX_OBS_PROFILER_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/scope.h"

namespace carbonx::obs
{

/** One node of the merged (cross-thread) phase tree. */
struct ProfileNode
{
    std::string name;
    uint64_t count = 0;    ///< Times the phase was entered.
    uint64_t total_ns = 0; ///< Wall time inside the phase, children included.
    uint64_t self_ns = 0;  ///< total_ns minus the children's total_ns.
    uint64_t min_ns = 0;   ///< Shortest single entry.
    uint64_t max_ns = 0;   ///< Longest single entry.
    std::vector<ProfileNode> children; ///< First-seen order, then merged.

    /** Depth-first lookup of a descendant by name; nullptr if absent. */
    const ProfileNode *find(const std::string &child_name) const;
};

/** Process-wide phase-timer registry. */
class PhaseProfiler
{
  public:
    static PhaseProfiler &instance();

    /** Collect scopes opened from now on; disabling keeps phases. */
    void setEnabled(bool on) { Scope::setSinkEnabled(kProfileSink, on); }
    bool enabled() const { return Scope::sinkEnabled(kProfileSink); }

    /**
     * Zero every node in every thread's tree (structure is kept, like
     * MetricsRegistry::reset). Requires quiescence.
     */
    void reset();

    /**
     * Fold all per-thread trees into one aggregate tree. The root is
     * a synthetic "root" node; phases that ran at the top of a worker
     * thread appear as its direct children even when the same phase
     * is nested deeper on the coordinating thread (the two paths are
     * distinct call-tree locations). Requires quiescence.
     */
    ProfileNode merged() const;

    /** Indented fixed-width table of merged(), one row per node. */
    void writeText(std::ostream &os) const;

    /** merged() as a JSON tree (the BENCH_*.json "profile" field). */
    void writeJson(std::ostream &os) const;

    /** Number of threads that have recorded at least one phase. */
    size_t threadCount() const;

    // Implementation details of obs::Scope; not for direct use.
    struct ThreadTree;
    PhaseNode *beginPhase(const char *name);
    void endPhase(PhaseNode *node, std::chrono::nanoseconds elapsed);

  private:
    PhaseProfiler() = default;

    ThreadTree &threadTree();

    mutable std::mutex registry_mutex_;
    std::vector<std::unique_ptr<ThreadTree>> threads_;
};

/** Serialize a ProfileNode subtree as JSON (used by the bench report). */
void writeProfileJson(std::ostream &os, const ProfileNode &node,
                      const std::string &indent);

} // namespace carbonx::obs

#endif // CARBONX_OBS_PROFILER_H
