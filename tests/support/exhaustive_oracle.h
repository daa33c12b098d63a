/**
 * @file
 * The exhaustive sweep written out the naive way, as a reference for
 * the sweep driver that is independent of its coarse pass, cells and
 * result assembly: enumerate the lattice, evaluate every point in one
 * SweepBatchEvaluator call, keep the first strict minimum.
 */

#ifndef CARBONX_TESTS_SUPPORT_EXHAUSTIVE_ORACLE_H
#define CARBONX_TESTS_SUPPORT_EXHAUSTIVE_ORACLE_H

#include "core/design_space.h"
#include "core/explorer.h"

namespace carbonx::testsupport
{

/**
 * Every point of DesignSpace::enumerate(@p strategy), evaluated in
 * enumeration order; best is the first point whose total no later
 * point undercuts (strict <, the exhaustive tie-break).
 */
OptimizationResult exhaustiveOracle(const CarbonExplorer &explorer,
                                    const DesignSpace &space,
                                    Strategy strategy);

} // namespace carbonx::testsupport

#endif // CARBONX_TESTS_SUPPORT_EXHAUSTIVE_ORACLE_H
