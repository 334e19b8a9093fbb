// Oracle-model walkthrough on the paper's running example (Fig. 1).
//
// Reconstructs the 7-node graph of Fig. 1(a), verifies the paper's printed
// quantities (E[I({v1,v2,v6})] = 6.16, nonadaptive profit 1.66), replays
// the exact realization of Fig. 1(b)-(d) through ADG (profit 3 vs the
// nonadaptive 2.5 — the 20% adaptivity gain), and finally computes the
// exact expected profit of the ADG policy by enumerating all possible
// worlds.
//
// Build & run:  ./examples/oracle_walkthrough
#include <cstdio>

#include "core/adg.h"
#include "core/double_greedy.h"
#include "diffusion/spread_oracle.h"
#include "graph/generators.h"
#include "rris/sampling_engine.h"

namespace {

// All possible worlds of a tiny graph with their probabilities.
std::vector<std::pair<atpm::Realization, double>> EnumerateWorlds(
    const atpm::Graph& g) {
  const uint64_t m = g.num_edges();
  std::vector<float> probs(m);
  for (atpm::NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto p = g.OutProbs(u);
    for (uint32_t j = 0; j < p.size(); ++j) {
      probs[g.OutEdgeIndex(u, j)] = p[j];
    }
  }
  std::vector<std::pair<atpm::Realization, double>> worlds;
  for (uint64_t mask = 0; mask < (1ULL << m); ++mask) {
    double prob = 1.0;
    atpm::BitVector live(m);
    for (uint64_t e = 0; e < m; ++e) {
      if ((mask >> e) & 1ULL) {
        prob *= probs[e];
        live.Set(e);
      } else {
        prob *= 1.0 - probs[e];
      }
    }
    if (prob > 0.0) {
      worlds.emplace_back(atpm::Realization::FromLiveEdges(g, std::move(live)),
                          prob);
    }
  }
  return worlds;
}

}  // namespace

int main() {
  const atpm::Graph g = atpm::MakePaperFigure1Graph();
  std::printf("Fig. 1(a) graph: %u nodes, %llu edges\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  auto oracle_result = atpm::ExactSpreadOracle::Create(g);
  if (!oracle_result.ok()) return 1;
  atpm::ExactSpreadOracle* oracle = oracle_result.value().get();

  // T = {v1, v2, v6} (ids 0, 1, 5), every cost 1.5 — the paper's setup.
  atpm::ProfitProblem problem;
  problem.graph = &g;
  problem.targets = {1, 5, 0};  // examination order: v2, v6, v1
  problem.costs.assign(7, 0.0);
  for (atpm::NodeId t : problem.targets) problem.costs[t] = 1.5;

  const std::vector<atpm::NodeId> t_set = {0, 1, 5};
  std::printf("E[I(T)]          = %.2f   (paper: 6.16)\n",
              oracle->ExpectedSpread(t_set, nullptr));
  std::printf("rho(T)           = %.2f   (paper: 1.66)\n",
              atpm::OracleProfit(problem, oracle, t_set));

  // Cross-check the exact oracle against the sampling substrate the big
  // algorithms run on: a RisSpreadOracle estimates the same E[I(T)] from
  // RR sets drawn through a SamplingEngine.
  atpm::RRSamplingEngine engine(g);
  atpm::RisOracleOptions ris_options;
  ris_options.num_rr_sets = 1u << 16;
  atpm::RisSpreadOracle ris_oracle(&engine, ris_options);
  std::printf("E[I(T)] via RIS  = %.2f   (SamplingEngine estimate)\n",
              ris_oracle.ExpectedSpread(t_set, nullptr));

  // Replay the realization drawn in Fig. 1(b)-(d): v2's edges to v3, v4
  // succeed (v2->v1 fails), v3->v4 succeeds, v4->v5 fails; v6 activates
  // v5 and v7.
  atpm::BitVector live(g.num_edges());
  auto set_live = [&](atpm::NodeId u, atpm::NodeId v) {
    const auto neigh = g.OutNeighbors(u);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      if (neigh[j] == v) live.Set(g.OutEdgeIndex(u, j));
    }
  };
  set_live(1, 2);
  set_live(1, 3);
  set_live(2, 3);
  set_live(5, 4);
  set_live(5, 6);

  atpm::AdaptiveEnvironment env(
      atpm::Realization::FromLiveEdges(g, std::move(live)));
  atpm::AdgPolicy adg(oracle);
  atpm::Rng rng(1);
  atpm::Result<atpm::AdaptiveRunResult> run = adg.Run(problem, &env, &rng);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("\nADG on the Fig. 1 realization:\n");
  std::printf("  seeds: ");
  for (atpm::NodeId s : run.value().seeds) std::printf("v%u ", s + 1);
  std::printf("\n  realized profit  = %.1f   (paper: 3 = 6 - 3)\n",
              run.value().realized_profit);
  std::printf("  nonadaptive T    = %.1f   (paper: 2.5 = 7 - 4.5)\n",
              7.0 - 4.5);

  // Exact Λ(ADG): run the policy on every possible world.
  double lambda = 0.0;
  for (auto& [world, prob] : EnumerateWorlds(g)) {
    atpm::AdaptiveEnvironment world_env{atpm::Realization(world)};
    atpm::Rng world_rng(0);
    lambda +=
        prob * adg.Run(problem, &world_env, &world_rng).value().realized_profit;
  }
  std::printf("\nLambda(ADG) over all %u-edge worlds = %.3f\n",
              static_cast<unsigned>(g.num_edges()), lambda);

  // Reference: the oracle double greedy (nonadaptive, Alg 1).
  atpm::Result<atpm::DoubleGreedyResult> dg =
      atpm::RunDoubleGreedy(problem, oracle);
  if (dg.ok()) {
    std::printf("nonadaptive double greedy profit   = %.3f\n",
                dg.value().expected_profit);
    std::printf("adaptivity gain                    = %.1f%%\n",
                100.0 * (lambda / dg.value().expected_profit - 1.0));
  }
  return 0;
}
