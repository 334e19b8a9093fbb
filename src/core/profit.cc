#include "core/profit.h"

#include <cmath>
#include <string>

#include "common/bit_vector.h"

namespace atpm {

double ProfitProblem::CostOfSet(std::span<const NodeId> nodes) const {
  double total = 0.0;
  for (NodeId u : nodes) total += costs[u];
  return total;
}

Status ProfitProblem::Validate() const {
  if (graph == nullptr) {
    return Status::InvalidArgument("ProfitProblem: graph is null");
  }
  if (costs.size() != graph->num_nodes()) {
    return Status::InvalidArgument(
        "ProfitProblem: costs has size " + std::to_string(costs.size()) +
        ", expected n = " + std::to_string(graph->num_nodes()));
  }
  for (double c : costs) {
    if (!std::isfinite(c)) {
      return Status::InvalidArgument("ProfitProblem: non-finite cost");
    }
    if (c < 0.0) {
      return Status::InvalidArgument("ProfitProblem: negative cost");
    }
  }
  BitVector seen(graph->num_nodes());
  for (NodeId u : targets) {
    if (u >= graph->num_nodes()) {
      return Status::InvalidArgument("ProfitProblem: target " +
                                     std::to_string(u) + " out of range");
    }
    if (seen.Test(u)) {
      return Status::InvalidArgument("ProfitProblem: duplicate target " +
                                     std::to_string(u));
    }
    seen.Set(u);
  }
  return Status::OK();
}

double RealizedProfit(const ProfitProblem& problem, const Realization& world,
                      std::span<const NodeId> seeds) {
  const uint32_t spread = world.Spread(seeds);
  return static_cast<double>(spread) - problem.CostOfSet(seeds);
}

double OracleProfit(const ProfitProblem& problem, SpreadOracle* oracle,
                    std::span<const NodeId> seeds, const BitVector* removed) {
  return oracle->ExpectedSpread(seeds, removed) - problem.CostOfSet(seeds);
}

double AverageRealizedProfit(const ProfitProblem& problem,
                             std::span<const Realization> worlds,
                             std::span<const NodeId> seeds) {
  if (worlds.empty()) return 0.0;
  double sum = 0.0;
  for (const Realization& world : worlds) {
    sum += RealizedProfit(problem, world, seeds);
  }
  return sum / static_cast<double>(worlds.size());
}

}  // namespace atpm
