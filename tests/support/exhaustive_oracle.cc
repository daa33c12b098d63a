#include "support/exhaustive_oracle.h"

namespace carbonx::testsupport
{

OptimizationResult
exhaustiveOracle(const CarbonExplorer &explorer, const DesignSpace &space,
                 Strategy strategy)
{
    const std::vector<DesignPoint> points = space.enumerate(strategy);
    OptimizationResult result;
    result.evaluated.resize(points.size());
    SweepBatchEvaluator evaluator(explorer, strategy);
    evaluator.evaluate(points.data(), points.size(),
                       result.evaluated.data(), nullptr);
    result.best = result.evaluated.front();
    for (const Evaluation &eval : result.evaluated) {
        if (eval.totalKg() < result.best.totalKg())
            result.best = eval;
    }
    return result;
}

} // namespace carbonx::testsupport
