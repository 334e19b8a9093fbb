// Cross-policy contract tests: every AdaptivePolicy implementation must
// honor the same invariants when driven through the base interface on a
// shared world — seeds come from T, accounting identities hold, the
// environment reflects exactly the policy's seedings, and skipped
// candidates are really activated.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/addatp.h"
#include "core/adg.h"
#include "core/ars.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "core/policy.h"
#include "core/target_selection.h"
#include "diffusion/spread_oracle.h"
#include "graph/generators.h"
#include "graph/weighting.h"

namespace atpm {
namespace {

struct PolicyFixture {
  Graph graph;
  ProfitProblem problem;
  std::unique_ptr<MonteCarloSpreadOracle> oracle;
  std::vector<std::unique_ptr<AdaptivePolicy>> policies;

  PolicyFixture() {
    Rng rng(31);
    BarabasiAlbertOptions options;
    options.num_nodes = 500;
    options.edges_per_node = 2;
    graph = GenerateBarabasiAlbert(options, &rng).value();
    ApplyWeightedCascade(&graph);

    problem.graph = &graph;
    problem.targets = {0, 1, 2, 3, 7, 11, 50, 200};
    problem.costs.assign(graph.num_nodes(), 0.0);
    for (NodeId t : problem.targets) problem.costs[t] = 2.0;

    MonteCarloOptions mc;
    mc.num_samples = 3000;
    mc.seed = 5;
    oracle = std::make_unique<MonteCarloSpreadOracle>(graph, mc);

    policies.push_back(std::make_unique<AdgPolicy>(oracle.get()));
    policies.push_back(
        std::make_unique<AdgPolicy>(oracle.get(), /*randomized=*/true));
    HatpOptions hatp_options;
    hatp_options.sampling.max_rr_sets_per_decision = 1ull << 15;
    policies.push_back(std::make_unique<HatpPolicy>(hatp_options));
    AddAtpOptions addatp_options;
    addatp_options.sampling.max_rr_sets_per_decision = 1ull << 15;
    addatp_options.fail_on_budget_exhausted = false;
    policies.push_back(std::make_unique<AddAtpPolicy>(addatp_options));
    AddAtpOptions dynamic_options = addatp_options;
    dynamic_options.dynamic_threshold = true;
    policies.push_back(std::make_unique<AddAtpPolicy>(dynamic_options));
    policies.push_back(std::make_unique<ArsPolicy>());
  }
};

TEST(PolicyContractTest, AllPoliciesHonorSharedInvariants) {
  PolicyFixture fixture;
  BitVector in_targets(fixture.graph.num_nodes());
  for (NodeId t : fixture.problem.targets) in_targets.Set(t);

  for (auto& policy : fixture.policies) {
    SCOPED_TRACE(std::string(policy->name()));
    Rng world_rng(77);
    AdaptiveEnvironment env(Realization::Sample(fixture.graph, &world_rng));
    Rng rng(3);
    Result<AdaptiveRunResult> run =
        policy->Run(fixture.problem, &env, &rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const AdaptiveRunResult& result = run.value();

    // Seeds come from T, without duplicates.
    BitVector seen(fixture.graph.num_nodes());
    for (NodeId s : result.seeds) {
      EXPECT_TRUE(in_targets.Test(s));
      EXPECT_FALSE(seen.Test(s));
      seen.Set(s);
    }

    // Accounting identities.
    EXPECT_EQ(result.realized_spread, env.num_activated());
    EXPECT_DOUBLE_EQ(result.seed_cost,
                     fixture.problem.CostOfSet(result.seeds));
    EXPECT_DOUBLE_EQ(result.realized_profit,
                     result.realized_spread - result.seed_cost);

    // One step per target, in examination order.
    ASSERT_EQ(result.steps.size(), fixture.problem.targets.size());
    uint32_t selected = 0;
    uint32_t spread_from_steps = 0;
    for (size_t i = 0; i < result.steps.size(); ++i) {
      EXPECT_EQ(result.steps[i].node, fixture.problem.targets[i]);
      if (result.steps[i].decision == SeedDecision::kSelected) {
        ++selected;
        spread_from_steps += result.steps[i].newly_activated;
        EXPECT_GE(result.steps[i].newly_activated, 1u);  // at least itself
      } else {
        EXPECT_EQ(result.steps[i].newly_activated, 0u);
      }
    }
    EXPECT_EQ(selected, result.seeds.size());
    EXPECT_EQ(spread_from_steps, result.realized_spread);

    // Every seed is activated in the final environment; skipped
    // candidates were activated before their turn.
    for (NodeId s : result.seeds) EXPECT_TRUE(env.IsActivated(s));
    for (const AdaptiveStepRecord& step : result.steps) {
      if (step.decision == SeedDecision::kSkippedActivated) {
        EXPECT_TRUE(env.IsActivated(step.node));
      }
    }
  }
}

TEST(PolicyContractTest, SamplingPoliciesReportRrTelemetry) {
  PolicyFixture fixture;
  for (auto& policy : fixture.policies) {
    const bool sampling =
        policy->name() == "HATP" || policy->name() == "ADDATP";
    if (!sampling) continue;
    SCOPED_TRACE(std::string(policy->name()));
    Rng world_rng(78);
    AdaptiveEnvironment env(Realization::Sample(fixture.graph, &world_rng));
    Rng rng(4);
    Result<AdaptiveRunResult> run =
        policy->Run(fixture.problem, &env, &rng);
    ASSERT_TRUE(run.ok());
    EXPECT_GT(run.value().total_rr_sets, 0u);
    EXPECT_LE(run.value().max_rr_sets_per_iteration,
              run.value().total_rr_sets);
    uint64_t steps_total = 0;
    for (const AdaptiveStepRecord& step : run.value().steps) {
      steps_total += step.rr_sets_used;
    }
    EXPECT_EQ(steps_total, run.value().total_rr_sets);
  }
}

TEST(PolicyContractTest, OracleAndArsPoliciesUseNoSamples) {
  PolicyFixture fixture;
  for (auto& policy : fixture.policies) {
    const bool sampling_free =
        policy->name() == "ADG" || policy->name() == "ADG-R" ||
        policy->name() == "ARS";
    if (!sampling_free) continue;
    SCOPED_TRACE(std::string(policy->name()));
    Rng world_rng(79);
    AdaptiveEnvironment env(Realization::Sample(fixture.graph, &world_rng));
    Rng rng(5);
    Result<AdaptiveRunResult> run =
        policy->Run(fixture.problem, &env, &rng);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().total_rr_sets, 0u);
  }
}

TEST(PolicyContractTest, EveryPolicyRejectsUsedEnvironment) {
  PolicyFixture fixture;
  for (auto& policy : fixture.policies) {
    SCOPED_TRACE(std::string(policy->name()));
    Rng world_rng(80);
    AdaptiveEnvironment env(Realization::Sample(fixture.graph, &world_rng));
    env.SeedAndObserve(400);  // not a target; environment no longer fresh
    Rng rng(6);
    EXPECT_FALSE(policy->Run(fixture.problem, &env, &rng).ok());
  }
}

TEST(FinalizeAdaptiveResultTest, ComputesIdentities) {
  const Graph g = MakePathGraph(4, 1.0);
  ProfitProblem problem;
  problem.graph = &g;
  problem.targets = {0};
  problem.costs = {1.5, 0.0, 0.0, 0.0};

  Rng world_rng(1);
  AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
  env.SeedAndObserve(0);  // activates the whole path

  AdaptiveRunResult result;
  result.seeds = {0};
  FinalizeAdaptiveResult(problem, env, &result);
  EXPECT_EQ(result.realized_spread, 4u);
  EXPECT_DOUBLE_EQ(result.seed_cost, 1.5);
  EXPECT_DOUBLE_EQ(result.realized_profit, 2.5);
}


// ---- Decision-loop goldens: exact fixed-seed outcomes of ADDATP, HATP and
// HNTP across their option variants, on the golden instance trace_test and
// failpoint_test pin for default HATP. Every value was recorded before the
// three policies shared one decision loop (HNTP's per-step records from
// that code instrumented to print them); a mismatch is a behaviour change,
// not a new baseline.

Graph GoldenGraph() {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = 300;
  options.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

std::string Exact(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

// Run-level telemetry shared by AdaptiveRunResult and HntpResult.
std::string RunSummary(const DecisionLoopTelemetry& r) {
  std::string s = "seeds=";
  for (NodeId v : r.seeds) s += std::to_string(v) + ",";
  s += " rr=" + std::to_string(r.total_rr_sets) +
       " queries=" + std::to_string(r.total_coverage_queries) +
       " pools=" + std::to_string(r.total_count_pools) +
       " max_iter=" + std::to_string(r.max_rr_sets_per_iteration) +
       " exhausted=" + std::to_string(r.budget_exhausted_decisions) +
       " truncated=" + std::to_string(r.budget_truncated_decisions) +
       " spec=" + std::to_string(r.speculation_hits) + "/" +
       std::to_string(r.speculation_rounds_served) + "/" +
       std::to_string(r.speculation_misses) + "/" +
       std::to_string(r.speculation_discarded) + "/" +
       std::to_string(r.speculative_queries) + " window=";
  for (uint32_t w : r.lookahead_window_trace) s += std::to_string(w) + ",";
  s += " degraded=";
  for (const DegradationEvent& e : r.degradation_events) {
    s += std::string(DegradationReasonName(e.reason)) + ":" +
         std::to_string(e.node) + ":" + std::to_string(e.rounds_completed) +
         ":" + std::to_string(e.requested_theta) + ":" +
         std::to_string(e.achieved_theta) + ";";
  }
  s += " eps=" + Exact(r.effective_epsilon) +
       " additive=" + Exact(r.achieved_additive_error) +
       " theta=" + std::to_string(r.achieved_theta);
  return s;
}

// node:decision:rounds:rr_sets_used:coverage_queries:first_round_speculative
std::string StepsSummary(const std::vector<AdaptiveStepRecord>& steps) {
  std::string s;
  for (const AdaptiveStepRecord& step : steps) {
    s += std::to_string(step.node) + ":" +
         std::to_string(static_cast<int>(step.decision)) + ":" +
         std::to_string(step.rounds) + ":" +
         std::to_string(step.rr_sets_used) + ":" +
         std::to_string(step.coverage_queries) + ":" +
         std::to_string(step.first_round_speculative ? 1 : 0) + " ";
  }
  return s;
}

struct LoopGoldenRun {
  std::string summary;
  std::string steps;
};

LoopGoldenRun RunAdaptiveGolden(AdaptivePolicy* policy, const Graph& g,
                                const ProfitProblem& problem) {
  Rng world_rng(42);
  AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
  Rng rng(1);
  Result<AdaptiveRunResult> run = policy->Run(problem, &env, &rng);
  if (!run.ok()) return {run.status().ToString(), ""};
  return {RunSummary(run.value()), StepsSummary(run.value().steps)};
}

LoopGoldenRun RunHatpGolden(const HatpOptions& options, const Graph& g,
                            const ProfitProblem& problem) {
  HatpPolicy policy(options);
  return RunAdaptiveGolden(&policy, g, problem);
}

LoopGoldenRun RunAddAtpGolden(const AddAtpOptions& options, const Graph& g,
                              const ProfitProblem& problem) {
  AddAtpPolicy policy(options);
  return RunAdaptiveGolden(&policy, g, problem);
}

LoopGoldenRun RunHntpGolden(const HatpOptions& options,
                            const ProfitProblem& problem) {
  Rng rng(1);
  Result<HntpResult> run = RunHntp(problem, options, &rng);
  if (!run.ok()) return {run.status().ToString(), ""};
  return {RunSummary(run.value()), StepsSummary(run.value().steps)};
}

struct LoopGoldenCase {
  const char* name;
  LoopGoldenRun (*run)(const Graph&, const ProfitProblem&);
  const char* summary;
  const char* steps;
};

void PrintTo(const LoopGoldenCase& golden, std::ostream* os) {
  *os << golden.name;
}

const LoopGoldenCase kLoopGoldens[] = {
    {"AddAtpFixedThreshold",
     [](const Graph& g, const ProfitProblem& problem) {
       return RunAddAtpGolden(AddAtpOptions{}, g, problem);
     },
     "seeds=2,7,18,17,9, rr=5516789 queries=196 pools=98 "
     "max_iter=1151561 exhausted=0 truncated=0 spec=0/0/0/0/0 window= "
     "degraded= eps=0 additive=1.9999999999999998 theta=115482",
     "2:0:11:367204:22:0 4:1:13:1151561:26:0 7:0:13:1151561:26:0 "
     "18:0:13:1020066:26:0 13:2:0:0:0:0 17:0:11:221502:22:0 "
     "8:1:12:396935:24:0 9:0:12:396935:24:0 41:1:13:811025:26:0 "
     "22:2:0:0:0:0 "},
    {"AddAtpDynamicThreshold",
     [](const Graph& g, const ProfitProblem& problem) {
       AddAtpOptions options;
       options.dynamic_threshold = true;
       options.dynamic_epsilon = 0.5;  // enough slack to raise the C2 bar
       return RunAddAtpGolden(options, g, problem);
     },
     "seeds=2,7,18,17,9, rr=4921536 queries=192 pools=96 "
     "max_iter=1151561 exhausted=0 truncated=0 spec=0/0/0/0/0 window= "
     "degraded= eps=0 additive=2.8284271247461876 theta=66343",
     "2:0:11:367204:22:0 4:1:10:126989:20:0 7:0:13:1151561:26:0 "
     "18:0:13:1020066:26:0 13:2:0:0:0:0 17:0:11:221502:22:0 "
     "8:1:12:396935:24:0 9:0:13:826254:26:0 41:1:13:811025:26:0 "
     "22:2:0:0:0:0 "},
    {"AddAtpRrCapTruncated",
     [](const Graph& g, const ProfitProblem& problem) {
       AddAtpOptions options;
       options.sampling.max_rr_sets_per_decision = 200000;
       options.fail_on_budget_exhausted = false;
       return RunAddAtpGolden(options, g, problem);
     },
     "seeds=2,4,17,9, rr=957206 queries=160 pools=80 max_iter=175759 "
     "exhausted=0 truncated=8 spec=0/0/0/0/0 window= "
     "degraded=rr-budget:2:10:191445:91824;"
     "rr-budget:4:10:138319:66343;rr-budget:7:10:127683:61242;"
     "rr-budget:18:10:127683:61242;rr-budget:17:10:127683:61242;"
     "rr-budget:8:10:110579:53038;rr-budget:9:10:110579:53038;"
     "rr-budget:41:10:108647:52111; "
     "eps=0 additive=2.8284271247461898 theta=52111",
     "2:0:10:175759:20:0 4:0:10:126989:20:0 7:1:10:117223:20:0 "
     "18:1:10:117223:20:0 13:2:0:0:0:0 17:0:10:117223:20:0 "
     "8:1:10:101521:20:0 9:0:10:101521:20:0 41:1:10:99747:20:0 "
     "22:2:0:0:0:0 "},
    {"Hntp",
     [](const Graph&, const ProfitProblem& problem) {
       return RunHntpGolden(HatpOptions{}, problem);
     },
     "seeds=2,18,9,22, rr=1182856 queries=218 pools=109 "
     "max_iter=128224 exhausted=0 truncated=0 spec=0/0/0/0/0 window= "
     "degraded= eps=0.050000000000000003 additive=1 theta=39094",
     "2:0:11:103714:22:0 4:1:11:122179:22:0 7:1:11:122179:22:0 "
     "18:0:11:122179:22:0 13:1:11:127000:22:0 17:1:11:127000:22:0 "
     "8:1:10:76381:20:0 9:0:11:127000:22:0 41:1:11:127000:22:0 "
     "22:0:11:128224:22:0 "},
    {"HntpLookahead4",
     [](const Graph&, const ProfitProblem& problem) {
       HatpOptions options;
       options.sampling.lookahead_window = 4;
       return RunHntpGolden(options, problem);
     },
     "seeds=2,18,17,9, rr=608117 queries=460 pools=55 max_iter=127000 "
     "exhausted=0 truncated=0 spec=5/53/5/4/350 "
     "window=4,4,4,4,4,4,4,4,4,4, degraded= eps=0.050000000000000003 "
     "additive=1.4142135623730949 theta=39094",
     "2:0:11:103714:110:0 4:1:11:122179:110:0 7:1:10:0:0:1 "
     "18:0:11:0:0:1 13:1:11:127000:110:0 17:0:11:0:0:1 "
     "8:1:10:77605:80:0 9:0:11:50619:6:1 41:1:11:127000:44:0 "
     "22:1:11:0:0:1 "},
    {"HatpUnbatched",
     [](const Graph& g, const ProfitProblem& problem) {
       HatpOptions options;
       options.sampling.batched_rounds = false;
       return RunHatpGolden(options, g, problem);
     },
     "seeds=2,7,18,17,9, rr=1324312 queries=168 pools=168 "
     "max_iter=207704 exhausted=0 truncated=0 spec=0/0/0/0/0 window= "
     "degraded= eps=0.050000000000000003 additive=1.9999999999999991 "
     "theta=7203",
     "2:0:11:207428:22:0 4:1:11:207704:22:0 7:0:11:207704:22:0 "
     "18:0:11:195488:22:0 13:2:0:0:0:0 17:0:8:28410:16:0 "
     "8:1:10:111758:20:0 9:0:11:182886:22:0 41:1:11:182934:22:0 "
     "22:2:0:0:0:0 "},
    {"HatpLookahead4",
     [](const Graph& g, const ProfitProblem& problem) {
       HatpOptions options;
       options.sampling.lookahead_window = 4;
       return RunHatpGolden(options, g, problem);
     },
     "seeds=2,7,17,9, rr=492695 queries=418 pools=55 max_iter=103714 "
     "exhausted=0 truncated=0 spec=3/30/5/4/308 "
     "window=4,4,4,4,4,4,4,4, degraded= eps=0.050000000000000003 "
     "additive=1.4142135623730949 theta=37289",
     "2:0:11:103714:110:0 4:1:11:103089:110:0 7:0:11:0:0:1 "
     "18:1:11:97027:110:0 13:2:0:0:0:0 17:0:9:0:0:1 8:1:11:94405:66:0 "
     "9:0:10:0:0:1 41:1:11:94460:22:0 22:2:0:0:0:0 "},
    {"HatpAdaptiveLookahead",
     [](const Graph& g, const ProfitProblem& problem) {
       HatpOptions options;
       options.sampling.lookahead_window = 2;
       options.sampling.adaptive_lookahead = true;
       options.sampling.lookahead_discard_threshold = 1.0;  // always widen
       return RunHatpGolden(options, g, problem);
     },
     "seeds=2,7,17,9, rr=492695 queries=286 pools=55 max_iter=103714 "
     "exhausted=0 truncated=0 spec=3/30/5/4/176 "
     "window=2,2,4,2,4,2,4,2, degraded= eps=0.050000000000000003 "
     "additive=1.4142135623730949 theta=37289",
     "2:0:11:103714:66:0 4:1:11:103089:66:0 7:0:11:0:0:1 "
     "18:1:11:97027:66:0 13:2:0:0:0:0 17:0:9:0:0:1 8:1:11:94405:66:0 "
     "9:0:10:0:0:1 41:1:11:94460:22:0 22:2:0:0:0:0 "},
    {"HatpRrCapTruncated",
     [](const Graph& g, const ProfitProblem& problem) {
       HatpOptions options;
       options.sampling.max_rr_sets_per_decision = 40000;
       options.fail_on_budget_exhausted = false;
       return RunHatpGolden(options, g, problem);
     },
     "seeds=2,7,17,9, rr=231853 queries=144 pools=72 max_iter=30931 "
     "exhausted=0 truncated=8 spec=0/0/0/0/0 window= "
     "degraded=rr-budget:2:9:24235:11580;rr-budget:4:9:29132:15879;"
     "rr-budget:7:9:29132:15879;rr-budget:18:9:27419:14945;"
     "rr-budget:17:9:27419:14945;rr-budget:8:9:29060:14122;"
     "rr-budget:9:9:29060:14122;rr-budget:41:9:28800:13995; "
     "eps=0.088388347648318405 additive=3.9999999999999996 theta=11580",
     "2:0:9:28860:18:0 4:1:9:30931:18:0 7:0:9:30931:18:0 "
     "18:1:9:29113:18:0 13:2:0:0:0:0 17:0:9:29113:18:0 "
     "8:1:9:27718:18:0 9:0:9:27718:18:0 41:1:9:27469:18:0 "
     "22:2:0:0:0:0 "},
};

class DecisionLoopGoldenTest
    : public ::testing::TestWithParam<LoopGoldenCase> {};

TEST_P(DecisionLoopGoldenTest, MatchesRecordedRun) {
  const Graph g = GoldenGraph();
  Result<TargetSelectionResult> selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  const LoopGoldenRun run = GetParam().run(g, selection.value().problem);
  EXPECT_EQ(run.summary, GetParam().summary);
  EXPECT_EQ(run.steps, GetParam().steps);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DecisionLoopGoldenTest, ::testing::ValuesIn(kLoopGoldens),
    [](const ::testing::TestParamInfo<LoopGoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace atpm
