// atpm_perfbench: the end-to-end and per-layer benchmark of atpm.
//
//   atpm_perfbench gen --workload W --dir D
//       writes the workload's inputs: per instance i, D/i/graph.txt (SNAP
//       edge list, unweighted) and D/i/graph.atpm (graph store packed from
//       it).
//   atpm_perfbench run --workload W --seed S --seconds N --trace 0|1
//                      --dir D --out O [--commit C]
//                      [--profit-ref X --profit-tol Y]
//       sets the workload up several times from D, then repeats its timed phase
//       while the next phase still fits in N seconds, checks every output
//       and prints one JSON result line last. --trace 1 alternates
//       untraced and traced phases and writes a Chrome trace plus a
//       per-layer self-time table into O.
//
// perfbench/run.py builds this binary and drives it; BENCHMARK.json lists
// the workloads and the metrics.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "core/nonadaptive_greedy.h"
#include "core/policy.h"
#include "core/target_selection.h"
#include "diffusion/adaptive_environment.h"
#include "diffusion/realization.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "graph/weighting.h"
#include "perfbench/spans.h"
#include "perfbench/timing_engine.h"
#include "rris/sampling_engine.h"

namespace atpm::perfbench {
namespace {

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  const char* name;
  /// HATP on sampled worlds (adaptive) vs NSG + NDG on one fixed pool.
  bool adaptive;
  /// Adaptive only: one HNTP run per phase, on the first instance.
  bool run_hntp;
  /// Setup memory-maps the graph store (else parses the text edge list
  /// and applies weighted cascade).
  bool load_store;
  /// Independent problem instances (graph, targets, worlds); a phase runs
  /// all of them, so one unusual instance moves it less.
  uint32_t instances;
  /// R-MAT generator: 2^scale node slots, avg_degree * 2^scale arcs drawn.
  uint32_t rmat_scale;
  double rmat_avg_degree;
  /// IMM top-k target set, degree-proportional costs.
  uint32_t k;
  /// Sampling threads, capped at the CPUs this process may use.
  uint32_t max_threads;
  /// Possible worlds per instance: HATP runs on each, nonadaptive seed
  /// sets are evaluated on each.
  uint32_t worlds;
  /// Fixed-pool size θ of NSG / NDG (0 for the adaptive workloads).
  uint64_t theta;
  /// Setups per run; setup_s is their median.
  uint32_t setup_reps;
};

// adaptive-parallel fans out over 2 threads, not 4: on a shared 4-vCPU VM,
// 3 or 4 busy threads stall together for ~1 s at a time (4 spin loops run
// 3-4x slower for a second after start), 2 threads do not.
constexpr WorkloadSpec kWorkloads[] = {
    {"adaptive-parallel", true, true, true, 4, 10, 13.4, 50, 2, 1, 0, 15},
    {"fixed-pool", false, false, false, 1, 17, 14.0, 200, 4, 8, 1ull << 21,
     9},
};

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint32_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

// The problem instances (graphs, target sets, worlds) come from one fixed
// seed, so every run measures the same problems; --seed drives the
// policies' random streams (HATP / HNTP count sampling, NSG / NDG pools).
// With the problems drawn from --seed as well, one HATP run's time moves by
// ~20% between target sets and worlds, which would bury any change worth
// measuring under the choice of seeds.
constexpr uint64_t kProblemSeed = 1;

// Sub-streams of an instance's problem seed and of its stream seed.
enum Stream : uint64_t {
  kGraphStream = 1,
  kTargetStream = 2,
  kWorldStream = 3,
  kHntpStream = 99,
  kHatpStreamBase = 100,
  kPoolStreamBase = 200,
};

uint64_t InstanceSeed(uint64_t seed, uint32_t instance) {
  return SplitSeed(seed, 1000 + instance);
}

uint64_t ProblemSeed(uint32_t instance) {
  return InstanceSeed(kProblemSeed, instance);
}

std::string InstanceDir(const std::string& dir, uint32_t instance) {
  return dir + "/" + std::to_string(instance);
}

// -------------------------------------------------------------- helpers

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Linear-interpolation percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double FileMiB(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 27);
}

void Accumulate(const SamplingStats& add, SamplingStats* sum) {
  sum->rr_sets_generated += add.rr_sets_generated;
  sum->edges_examined += add.edges_examined;
  sum->count_pools += add.count_pools;
  sum->coverage_queries += add.coverage_queries;
  sum->rng_draws += add.rng_draws;
}

/// Counts attempted and failed operations; the first few failures are
/// reported on stderr.
class Checker {
 public:
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void CheckStatus(const Status& status, const std::string& what) {
    Check(status.ok(), what + ": " + status.ToString());
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Seeds must be distinct members of the target set.
bool SeedsValid(const ProfitProblem& problem,
                const std::vector<NodeId>& seeds) {
  std::vector<NodeId> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return false;
  }
  std::vector<NodeId> targets = problem.targets;
  std::sort(targets.begin(), targets.end());
  return std::includes(targets.begin(), targets.end(), sorted.begin(),
                       sorted.end());
}

// -------------------------------------------------------------- inputs

Status WriteEdgeListText(const Graph& graph, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IOError("cannot open " + path);
  std::string buffer = "# R-MAT stand-in, unweighted\n";
  char digits[24];
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) {
      buffer.append(digits, std::to_chars(digits, digits + 24, u).ptr);
      buffer += '\t';
      buffer.append(digits, std::to_chars(digits, digits + 24, v).ptr);
      buffer += '\n';
    }
    if (buffer.size() > (1u << 20)) {
      std::fwrite(buffer.data(), 1, buffer.size(), file);
      buffer.clear();
    }
  }
  std::fwrite(buffer.data(), 1, buffer.size(), file);
  if (std::fclose(file) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Status GenerateInstance(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& dir) {
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create " + dir);
  }
  Rng rng(SplitSeed(seed, kGraphStream));
  RMatOptions options;
  options.scale = spec.rmat_scale;
  options.num_edges = static_cast<uint64_t>(
      static_cast<double>(1ull << spec.rmat_scale) * spec.rmat_avg_degree);
  Result<Graph> raw = GenerateRMat(options, &rng);
  if (!raw.ok()) return raw.status();
  const std::string text_path = dir + "/graph.txt";
  ATPM_RETURN_NOT_OK(WriteEdgeListText(raw.value(), text_path));
  // The store is packed from the parsed text so both inputs describe the
  // same graph, isolated trailing node ids included.
  Result<Graph> parsed = LoadEdgeList(text_path);
  if (!parsed.ok()) return parsed.status();
  Graph graph = std::move(parsed).value();
  ApplyWeightedCascade(&graph);
  return SaveGraphStore(graph, dir + "/graph.atpm");
}

// --------------------------------------------------------------- setup

struct SetupTimes {
  double load_s = 0.0;
  double weighting_s = 0.0;
  double select_s = 0.0;
  double world_sample_s = 0.0;
  double engine_build_s = 0.0;
  double total_s = 0.0;
};

/// One problem instance. Members are destroyed in reverse order, so the
/// engines go before the graph they are bound to.
struct Instance {
  /// Seeds the problem (target selection, worlds).
  uint64_t seed = 0;
  /// Seeds the policies run on it; from the run's --seed.
  uint64_t stream_seed = 0;
  std::unique_ptr<Graph> graph;
  TargetSelectionResult selection;
  std::vector<Realization> worlds;
  std::unique_ptr<SamplingEngine> engine;
  std::unique_ptr<TimingEngine> timing;

  const ProfitProblem& problem() const { return selection.problem; }
};

/// Everything one setup produces. The call log outlives the wrappers that
/// append to it.
struct Workbench {
  std::vector<EngineCall> calls;
  std::vector<std::unique_ptr<Instance>> instances;
};

Status SetupInstance(const WorkloadSpec& spec, const std::string& dir,
                     uint32_t threads, SpanLog* log, SetupTimes* times,
                     Instance* instance) {
  const uint64_t t0 = NowNs();
  {
    SpanLog::Scope span(log,
                        spec.load_store ? "LoadGraphStore" : "LoadEdgeList",
                        "graph.load");
    Result<Graph> graph = spec.load_store
                              ? LoadGraphStore(dir + "/graph.atpm")
                              : LoadEdgeList(dir + "/graph.txt");
    if (!graph.ok()) return graph.status();
    instance->graph = std::make_unique<Graph>(std::move(graph).value());
  }
  const uint64_t t1 = NowNs();
  if (!spec.load_store) {
    SpanLog::Scope span(log, "ApplyWeightedCascade", "graph.weighting");
    ApplyWeightedCascade(instance->graph.get());
  }
  const uint64_t t2 = NowNs();
  {
    SpanLog::Scope span(log, "BuildTopKTargetProblem", "target.select");
    TargetSelectionOptions options;
    options.seed = SplitSeed(instance->seed, kTargetStream);
    options.num_threads = threads;
    Result<TargetSelectionResult> selection = BuildTopKTargetProblem(
        *instance->graph, spec.k, CostScheme::kDegreeProportional, options);
    if (!selection.ok()) return selection.status();
    instance->selection = std::move(selection).value();
  }
  const uint64_t t3 = NowNs();
  {
    Rng rng(SplitSeed(instance->seed, kWorldStream));
    for (uint32_t w = 0; w < spec.worlds; ++w) {
      SpanLog::Scope span(log, "Realization::Sample",
                          "diffusion.world_sample", "world", w);
      instance->worlds.push_back(Realization::Sample(*instance->graph, &rng));
    }
  }
  const uint64_t t4 = NowNs();
  times->load_s += Seconds(t1 - t0);
  times->weighting_s += Seconds(t2 - t1);
  times->select_s += Seconds(t3 - t2);
  times->world_sample_s += Seconds(t4 - t3);
  return Status::OK();
}

Status Setup(const WorkloadSpec& spec, const std::string& dir, uint64_t seed,
             uint32_t threads, SpanLog* log, SetupTimes* times,
             Workbench* bench) {
  SpanLog::Scope setup_span(log, "setup", "bench.setup");
  const uint64_t start = NowNs();
  for (uint32_t i = 0; i < spec.instances; ++i) {
    auto instance = std::make_unique<Instance>();
    instance->seed = ProblemSeed(i);
    instance->stream_seed = InstanceSeed(seed, i);
    ATPM_RETURN_NOT_OK(SetupInstance(spec, InstanceDir(dir, i), threads, log,
                                     times, instance.get()));
    bench->instances.push_back(std::move(instance));
  }
  const uint64_t engines_start = NowNs();
  for (const std::unique_ptr<Instance>& instance : bench->instances) {
    SpanLog::Scope span(log, "CreateSamplingEngine", "rris.engine_build");
    SamplingEngineOptions options;
    options.num_threads = threads;
    instance->engine = CreateSamplingEngine(
        *instance->graph, DiffusionModel::kIndependentCascade, options);
    instance->timing =
        std::make_unique<TimingEngine>(instance->engine.get(), &bench->calls);
  }
  const uint64_t end = NowNs();
  times->engine_build_s = Seconds(end - engines_start);
  times->total_s = Seconds(end - start);
  return Status::OK();
}

// --------------------------------------------------------------- phase

/// One policy run, located on the engine-call timeline.
struct PolicyRun {
  bool adaptive = true;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  size_t call_begin = 0;
  size_t call_end = 0;
  uint64_t decisions = 0;
  uint64_t rounds = 0;
  uint64_t rr_sets = 0;
  uint64_t count_pools = 0;
  uint64_t degraded = 0;
};

struct PhaseRecord {
  bool traced = false;
  double wall_s = 0.0;
  double evaluate_s = 0.0;
  double pool_mib = 0.0;
  SamplingStats stats;
  std::vector<PolicyRun> runs;
  /// Digest of every decision of the phase; identical phases repeat it.
  uint64_t digest = 0;
  /// Σ realized profit / c(T) and the number of terms.
  double profit_ratio_sum = 0.0;
  uint64_t profit_terms = 0;
};

double PoolMiB(const RRCollection& pool) {
  double bytes = static_cast<double>(pool.total_nodes()) * sizeof(NodeId) +
                 static_cast<double>(pool.num_sets() + 1) * sizeof(uint64_t);
  if (pool.index_built()) {
    bytes += static_cast<double>(pool.total_nodes()) * sizeof(uint32_t) +
             static_cast<double>(pool.num_nodes() + 1) * sizeof(uint64_t);
  }
  return bytes / (1024.0 * 1024.0);
}

/// Runs the timed phase: every instance's policies, with their outputs
/// checked. Phases are identical work (same worlds, same policy seeds).
class PhaseRunner {
 public:
  PhaseRunner(const WorkloadSpec& spec, uint32_t threads, Workbench* bench,
              SpanLog* log, Checker* checker)
      : spec_(spec), bench_(bench), log_(log), checker_(checker) {
    options_.sampling.num_threads = threads;
  }

  PhaseRecord Run(uint32_t index) {
    PhaseRecord record;
    record.traced = log_->enabled();
    for (const auto& instance : bench_->instances) {
      instance->engine->ResetStats();
    }
    const size_t first_call = bench_->calls.size();
    const uint64_t start = NowNs();
    {
      SpanLog::Scope span(log_, "phase", "bench.phase", "phase", index);
      for (const auto& instance : bench_->instances) {
        if (spec_.adaptive) {
          for (uint32_t w = 0; w < spec_.worlds; ++w) {
            RunHatp(*instance, w, &record);
          }
          if (spec_.run_hntp && instance == bench_->instances.front()) {
            RunHntpOnce(*instance, &record);
          }
        } else {
          RunFixedPool(*instance, false, &record);
          RunFixedPool(*instance, true, &record);
        }
      }
    }
    record.wall_s = Seconds(NowNs() - start);
    for (const auto& instance : bench_->instances) {
      Accumulate(instance->engine->stats(), &record.stats);
    }
    log_->AddEngineCalls(bench_->calls, first_call);
    return record;
  }

 private:
  PolicyRun BeginRun(bool adaptive) const {
    PolicyRun run;
    run.adaptive = adaptive;
    run.call_begin = bench_->calls.size();
    run.start_ns = NowNs();
    return run;
  }

  void EndRun(PolicyRun* run, PhaseRecord* record) const {
    run->end_ns = NowNs();
    run->call_end = bench_->calls.size();
    record->runs.push_back(*run);
  }

  // Realized spread of `seeds` on world w, timed as diffusion evaluation.
  uint32_t Evaluate(const Instance& instance, uint32_t w,
                    const std::vector<NodeId>& seeds, PhaseRecord* record) {
    SpanLog::Scope span(log_, "Realization::Spread", "diffusion.evaluate",
                        "world", w);
    const uint64_t start = NowNs();
    const uint32_t spread = instance.worlds[w].Spread(seeds);
    record->evaluate_s += Seconds(NowNs() - start);
    return spread;
  }

  void RunHatp(const Instance& instance, uint32_t w, PhaseRecord* record) {
    const ProfitProblem& problem = instance.problem();
    HatpPolicy hatp(options_);
    hatp.set_engine(instance.timing.get());
    AdaptiveEnvironment env(instance.worlds[w]);
    Rng rng(SplitSeed(instance.stream_seed, kHatpStreamBase + w));
    PolicyRun run = BeginRun(true);
    Result<AdaptiveRunResult> result = [&] {
      SpanLog::Scope span(log_, "HatpPolicy::Run", "core.policy", "world", w);
      return hatp.Run(problem, &env, &rng);
    }();
    const std::string where = "HATP world " + std::to_string(w);
    if (!result.ok()) {
      EndRun(&run, record);
      checker_->CheckStatus(result.status(), where);
      return;
    }
    const AdaptiveRunResult& r = result.value();
    run.decisions = r.steps.size();
    for (const AdaptiveStepRecord& step : r.steps) {
      run.rounds += step.rounds;
      record->digest = Mix(record->digest, step.node);
      record->digest =
          Mix(record->digest, static_cast<uint64_t>(step.decision));
    }
    run.rr_sets = r.total_rr_sets;
    run.count_pools = r.total_count_pools;
    run.degraded = r.degradation_events.size() + r.budget_exhausted_decisions;
    EndRun(&run, record);

    checker_->Check(run.degraded == 0, where + ": degraded decisions");
    checker_->Check(SeedsValid(problem, r.seeds),
                    where + ": seeds not distinct members of T");
    checker_->Check(env.num_seedings() == r.seeds.size(),
                    where + ": num_seedings != |seeds|");
    const uint32_t spread = Evaluate(instance, w, r.seeds, record);
    checker_->Check(spread == r.realized_spread,
                    where + ": realized_spread != Realization::Spread");
    record->profit_ratio_sum +=
        r.realized_profit / problem.TotalTargetCost();
    ++record->profit_terms;
  }

  void RunHntpOnce(const Instance& instance, PhaseRecord* record) {
    const ProfitProblem& problem = instance.problem();
    Rng rng(SplitSeed(instance.stream_seed, kHntpStream));
    PolicyRun run = BeginRun(true);
    Result<HntpResult> result = [&] {
      SpanLog::Scope span(log_, "RunHntp", "core.policy");
      return RunHntp(problem, options_, &rng, instance.timing.get());
    }();
    if (!result.ok()) {
      EndRun(&run, record);
      checker_->CheckStatus(result.status(), "HNTP");
      return;
    }
    const HntpResult& r = result.value();
    run.decisions = problem.k();
    run.rounds = r.total_count_pools;
    run.rr_sets = r.total_rr_sets;
    run.count_pools = r.total_count_pools;
    run.degraded = r.degradation_events.size() + r.budget_exhausted_decisions;
    EndRun(&run, record);
    for (NodeId s : r.seeds) record->digest = Mix(record->digest, s);
    checker_->Check(run.degraded == 0, "HNTP: degraded decisions");
    checker_->Check(SeedsValid(problem, r.seeds),
                    "HNTP: seeds not distinct members of T");
    for (uint32_t w = 0; w < spec_.worlds; ++w) {
      Evaluate(instance, w, r.seeds, record);
    }
  }

  void RunFixedPool(const Instance& instance, bool double_greedy,
                    PhaseRecord* record) {
    const ProfitProblem& problem = instance.problem();
    Rng rng(SplitSeed(instance.stream_seed, kPoolStreamBase + double_greedy));
    PolicyRun run = BeginRun(false);
    Result<NonadaptiveResult> result = [&] {
      SpanLog::Scope span(log_, double_greedy ? "RunNdg" : "RunNsg",
                          "core.selection");
      return double_greedy ? RunNdg(problem, spec_.theta, &rng,
                                    instance.timing.get())
                           : RunNsg(problem, spec_.theta, &rng,
                                    instance.timing.get());
    }();
    run.decisions = problem.k();
    EndRun(&run, record);
    const std::string name = double_greedy ? "NDG" : "NSG";
    if (!result.ok()) {
      checker_->CheckStatus(result.status(), name);
      return;
    }
    const NonadaptiveResult& r = result.value();
    const RRCollection& pool = instance.timing->pool();
    record->pool_mib = std::max(record->pool_mib, PoolMiB(pool));
    checker_->Check(pool.num_sets() == spec_.theta,
                    name + ": pool does not hold theta sets");
    checker_->Check(r.num_rr_sets == spec_.theta,
                    name + ": num_rr_sets != theta");
    checker_->Check(SeedsValid(problem, r.seeds),
                    name + ": seeds not distinct members of T");
    for (NodeId s : r.seeds) record->digest = Mix(record->digest, s);
    double profit = 0.0;
    for (uint32_t w = 0; w < spec_.worlds; ++w) {
      profit += static_cast<double>(Evaluate(instance, w, r.seeds, record)) -
                problem.CostOfSet(r.seeds);
    }
    record->profit_ratio_sum +=
        profit / spec_.worlds / problem.TotalTargetCost();
    ++record->profit_terms;
  }

  const WorkloadSpec& spec_;
  Workbench* bench_;
  SpanLog* log_;
  Checker* checker_;
  HatpOptions options_;
};

/// Text-loaded (and weighted) and store-loaded graphs must agree on nodes,
/// arcs and probabilities.
void CheckInputsAgree(const std::string& dir, Checker* checker) {
  Result<Graph> text = LoadEdgeList(dir + "/graph.txt");
  Result<Graph> store = LoadGraphStore(dir + "/graph.atpm");
  checker->Check(text.ok() && store.ok(), "reload inputs of " + dir);
  if (!text.ok() || !store.ok()) return;
  Graph weighted = std::move(text).value();
  ApplyWeightedCascade(&weighted);
  const Graph& mapped = store.value();
  bool same = weighted.num_nodes() == mapped.num_nodes() &&
              weighted.num_edges() == mapped.num_edges();
  for (NodeId u = 0; same && u < weighted.num_nodes(); ++u) {
    const auto a = weighted.OutNeighbors(u), b = mapped.OutNeighbors(u);
    const auto pa = weighted.OutProbs(u), pb = mapped.OutProbs(u);
    same = std::equal(a.begin(), a.end(), b.begin(), b.end()) &&
           std::equal(pa.begin(), pa.end(), pb.begin(), pb.end());
  }
  checker->Check(same, "text-loaded and store-loaded graphs differ in " + dir);
}

// ------------------------------------------------------------- metrics

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

/// Per-decision latencies of an adaptive run, in ms: a decision spans from
/// the first count call for candidate u to the first call for the next
/// candidate (the run's end for the last one). Candidates decided without
/// a call (already activated) have no sample.
void DecisionLatencies(const std::vector<EngineCall>& calls,
                       const PolicyRun& run, std::vector<double>* out) {
  bool open = false;
  NodeId open_node = 0;
  uint64_t open_start = 0;
  for (size_t i = run.call_begin; i < run.call_end; ++i) {
    const EngineCall& call = calls[i];
    if (call.kind != EngineCall::kCountBatch) continue;
    if (open && call.node == open_node) continue;
    if (open) out->push_back(Millis(call.start_ns - open_start));
    open = true;
    open_node = call.node;
    open_start = call.start_ns;
  }
  if (open) out->push_back(Millis(run.end_ns - open_start));
}

/// Totals of one phase, from its policy runs and their engine calls.
struct PhaseSummary {
  double wall_s = 0.0;
  double evaluate_s = 0.0;
  double count_s = 0.0, pool_s = 0.0;
  double count_calls = 0.0, pool_calls = 0.0;
  double count_sets = 0.0, pool_sets = 0.0;
  double policy_self_s = 0.0, selection_s = 0.0, policy_wall_s = 0.0;
  double decisions = 0.0, rounds = 0.0, rr_sets = 0.0, count_pools = 0.0;
  double degraded = 0.0;
};

PhaseSummary Summarize(const PhaseRecord& record,
                       const std::vector<EngineCall>& calls) {
  PhaseSummary s;
  s.wall_s = record.wall_s;
  s.evaluate_s = record.evaluate_s;
  for (const PolicyRun& run : record.runs) {
    double engine_s = 0.0;
    for (size_t i = run.call_begin; i < run.call_end; ++i) {
      const EngineCall& call = calls[i];
      const double call_s = Seconds(call.end_ns - call.start_ns);
      const double sets = static_cast<double>(call.sampled);
      engine_s += call_s;
      if (call.kind == EngineCall::kCountBatch) {
        s.count_s += call_s;
        s.count_calls += 1.0;
        s.count_sets += sets;
      } else {
        s.pool_s += call_s;
        s.pool_calls += 1.0;
        s.pool_sets += sets;
      }
    }
    const double wall = Seconds(run.end_ns - run.start_ns);
    s.policy_wall_s += wall;
    (run.adaptive ? s.policy_self_s : s.selection_s) += wall - engine_s;
    s.decisions += static_cast<double>(run.decisions);
    s.rounds += static_cast<double>(run.rounds);
    s.rr_sets += static_cast<double>(run.rr_sets);
    s.count_pools += static_cast<double>(run.count_pools);
    s.degraded += static_cast<double>(run.degraded);
  }
  return s;
}

/// End-to-end timings that tolerate a noisy host. Measured phases repeat
/// identical work: each policy run makes the same engine calls in every
/// phase (checked through the decision digests and call counts), and a
/// shared host only ever slows a piece of work down. So every policy run is
/// rebuilt on a timeline where each engine call, and each stretch of policy
/// work between calls, takes its fastest time over the phases. run_s sums
/// the rebuilt runs plus the fastest rest of a phase (evaluation, checks);
/// decision latencies are read off the rebuilt timelines.
struct RobustTimes {
  double run_s = 0.0;
  double policy_wall_s = 0.0;
  double decisions = 0.0;
  /// One latency per decision (adaptive) or per nonadaptive run, in ms.
  std::vector<double> decision_ms;
};

size_t CallCount(const PolicyRun& run) {
  return run.call_end - run.call_begin;
}

RobustTimes FastestOverPhases(const std::vector<const PhaseRecord*>& phases,
                              const std::vector<EngineCall>& calls) {
  RobustTimes times;
  std::vector<double> rest;
  for (const PhaseRecord* phase : phases) {
    double runs_s = 0.0;
    for (const PolicyRun& run : phase->runs) {
      runs_s += Seconds(run.end_ns - run.start_ns);
    }
    rest.push_back(phase->wall_s - runs_s);
  }
  times.run_s = *std::min_element(rest.begin(), rest.end());
  for (size_t j = 0; j < phases.front()->runs.size(); ++j) {
    const PolicyRun& first = phases.front()->runs[j];
    const size_t n = CallCount(first);
    // stretch_ns[c] is the policy work that ends where call c starts;
    // stretch_ns[n] the work after the last call.
    std::vector<uint64_t> call_ns(n, UINT64_MAX);
    std::vector<uint64_t> stretch_ns(n + 1, UINT64_MAX);
    for (const PhaseRecord* phase : phases) {
      const PolicyRun& run = phase->runs[j];
      if (CallCount(run) != n) continue;  // counted as a failed check
      uint64_t at = run.start_ns;
      for (size_t c = 0; c < n; ++c) {
        const EngineCall& call = calls[run.call_begin + c];
        stretch_ns[c] = std::min(stretch_ns[c], call.start_ns - at);
        call_ns[c] = std::min(call_ns[c], call.end_ns - call.start_ns);
        at = call.end_ns;
      }
      stretch_ns[n] = std::min(stretch_ns[n], run.end_ns - at);
    }
    std::vector<EngineCall> timeline(calls.begin() + first.call_begin,
                                     calls.begin() + first.call_end);
    uint64_t at = 0;
    for (size_t c = 0; c < n; ++c) {
      timeline[c].start_ns = at += stretch_ns[c];
      timeline[c].end_ns = at += call_ns[c];
    }
    PolicyRun fastest = first;
    fastest.start_ns = 0;
    fastest.end_ns = at + stretch_ns[n];
    fastest.call_begin = 0;
    fastest.call_end = n;
    const double wall = Seconds(fastest.end_ns);
    times.run_s += wall;
    times.policy_wall_s += wall;
    times.decisions += static_cast<double>(fastest.decisions);
    if (fastest.adaptive) {
      DecisionLatencies(timeline, fastest, &times.decision_ms);
    } else {
      // A nonadaptive policy decides its whole seed batch at once.
      times.decision_ms.push_back(Millis(fastest.end_ns));
    }
  }
  return times;
}

template <typename Record, typename Get>
double MedianOf(const std::vector<Record>& records, Get get) {
  std::vector<double> values;
  for (const Record& record : records) values.push_back(get(record));
  return Median(values);
}

Status WriteSelfTimeTable(const std::string& path,
                          const std::map<std::string, double>& run_self,
                          double run_s,
                          const std::map<std::string, double>& setup_self,
                          double setup_s) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IOError("cannot open " + path);
  std::fprintf(file,
               "# self time per layer: of one traced phase (scope run, "
               "share of its wall time) and of one setup (scope setup)\n"
               "scope\tlayer\tself_s\tshare\n");
  for (const auto& [layer, self_s] : run_self) {
    std::fprintf(file, "run\t%s\t%.6f\t%.4f\n", layer.c_str(), self_s,
                 Ratio(self_s, run_s));
  }
  for (const auto& [layer, self_s] : setup_self) {
    std::fprintf(file, "setup\t%s\t%.6f\t%.4f\n", layer.c_str(), self_s,
                 Ratio(self_s, setup_s));
  }
  if (std::fclose(file) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

void PrintJsonString(const std::string& value) {
  std::putchar('"');
  for (char c : value) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) >= 0x20) std::putchar(c);
  }
  std::putchar('"');
}

// ---------------------------------------------------------------- main

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string out = ".";
  std::string commit = "unknown";
  double profit_ref = std::nan("");
  double profit_tol = 0.0;
};

int Run(const RunArgs& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const uint32_t nproc = UsableCpus();
  const uint32_t threads = std::min(spec->max_threads, nproc);
  SpanLog log;
  log.set_enabled(args.trace);
  Checker checker;

  // Set up several times; the last workbench is the one measured. Each
  // earlier one is released first, so peak RSS holds one workbench.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Workbench> bench;
  for (uint32_t rep = 0; rep < spec->setup_reps; ++rep) {
    bench.reset();
    bench = std::make_unique<Workbench>();
    SetupTimes times;
    const Status status =
        Setup(*spec, args.dir, args.seed, threads, &log, &times, bench.get());
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 2;
    }
    setups.push_back(times);
  }
  double target_rr_sets = 0.0, input_mib = 0.0;
  for (uint32_t i = 0; i < spec->instances; ++i) {
    target_rr_sets += static_cast<double>(
        bench->instances[i]->selection.sampling_stats.rr_sets_generated);
    input_mib += FileMiB(InstanceDir(args.dir, i) +
                         (spec->load_store ? "/graph.atpm" : "/graph.txt"));
  }

  // Timed phases: start another while it still fits in the run, at least
  // one (two with tracing: the traced run alternates untraced and traced
  // phases, so the tracing overhead is measured in one process).
  PhaseRunner runner(*spec, threads, bench.get(), &log, &checker);
  std::vector<PhaseRecord> records;
  const uint32_t min_phases = args.trace ? 2 : 1;
  const uint64_t run_start = NowNs();
  for (uint32_t p = 0;; ++p) {
    const double elapsed = Seconds(NowNs() - run_start);
    if (p >= min_phases && elapsed + records.back().wall_s > args.seconds) {
      break;
    }
    log.set_enabled(args.trace && p % 2 == 1);
    records.push_back(runner.Run(p));
  }
  log.set_enabled(false);

  const std::vector<EngineCall>& calls = bench->calls;
  std::vector<PhaseSummary> measured, untraced;
  std::vector<const PhaseRecord*> measured_records;
  std::vector<double> count_call_ms;
  double profit_ratio_sum = 0.0, pool_mib = 0.0;
  uint64_t profit_terms = 0;
  SamplingStats stats;  // of the last measured phase
  std::fprintf(stderr, "%s seed %llu: phase walls", spec->name,
               static_cast<unsigned long long>(args.seed));
  for (const PhaseRecord& record : records) {
    std::fprintf(stderr, " %.3f%s", record.wall_s, record.traced ? "T" : "");
    bool same_calls = record.runs.size() == records.front().runs.size();
    for (size_t j = 0; same_calls && j < record.runs.size(); ++j) {
      same_calls = CallCount(record.runs[j]) ==
                   CallCount(records.front().runs[j]);
    }
    checker.Check(record.digest == records.front().digest && same_calls,
                  "phase decisions or engine calls differ from the first "
                  "phase");
    profit_ratio_sum += record.profit_ratio_sum;
    profit_terms += record.profit_terms;
    const PhaseSummary summary = Summarize(record, calls);
    if (!record.traced) untraced.push_back(summary);
    if (record.traced != args.trace) continue;
    measured.push_back(summary);
    measured_records.push_back(&record);
    stats = record.stats;
    pool_mib = std::max(pool_mib, record.pool_mib);
    for (const PolicyRun& run : record.runs) {
      for (size_t i = run.call_begin; i < run.call_end; ++i) {
        if (calls[i].kind == EngineCall::kCountBatch) {
          count_call_ms.push_back(Millis(calls[i].end_ns - calls[i].start_ns));
        }
      }
    }
  }
  std::fprintf(stderr, " s\n");

  // Output checks that do not belong to one phase.
  const double profit_ratio =
      Ratio(profit_ratio_sum, static_cast<double>(profit_terms));
  if (!std::isnan(args.profit_ref)) {
    char what[160];
    std::snprintf(what, sizeof(what),
                  "mean realized profit / c(T) = %.4f outside %.4f +- %.4f",
                  profit_ratio, args.profit_ref, args.profit_tol);
    checker.Check(std::fabs(profit_ratio - args.profit_ref) <= args.profit_tol,
                  what);
  }
  for (uint32_t i = 0; i < spec->instances; ++i) {
    CheckInputsAgree(InstanceDir(args.dir, i), &checker);
  }

  // ------------------------------------------------------------ report
  const RobustTimes robust = FastestOverPhases(measured_records, calls);
  const PhaseSummary& last = measured.back();
  const double setup_s = MedianOf(setups, [](auto& t) { return t.total_s; });
  const std::vector<double>& decision_ms = robust.decision_ms;

  std::vector<Metric> metrics;
  auto add = [&metrics](const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  if (!args.trace) {
    add("setup_s", setup_s, "s");
    add("run_s", robust.run_s, "s");
    add("decisions_per_s", Ratio(robust.decisions, robust.policy_wall_s),
        "1/s");
    add("decision_ms_p50", Percentile(decision_ms, 0.5), "ms");
    add("decision_ms_p90", Percentile(decision_ms, 0.9), "ms");
    // Peak of the whole run, output checks included: they reload the
    // inputs while the workload's state is still held, which makes the
    // peak repeatable; the transient peak of the pool fills alone varies
    // by ~20% with allocator timing.
    add("peak_rss_mb", PeakRssMiB(), "MiB");
  } else {
    const double count_s =
        MedianOf(measured, [](auto& s) { return s.count_s; });
    const double pool_s = MedianOf(measured, [](auto& s) { return s.pool_s; });
    add("graph.load_s", MedianOf(setups, [](auto& t) { return t.load_s; }),
        "s");
    add("graph.weighting_s",
        MedianOf(setups, [](auto& t) { return t.weighting_s; }), "s");
    add("graph.input_mb", input_mib, "MiB");
    add("target.select_s",
        MedianOf(setups, [](auto& t) { return t.select_s; }), "s");
    add("target.rr_sets", target_rr_sets, "count");
    add("diffusion.world_sample_s",
        MedianOf(setups, [](auto& t) { return t.world_sample_s; }), "s");
    add("diffusion.evaluate_s",
        MedianOf(measured, [](auto& s) { return s.evaluate_s; }), "s");
    add("rris.engine_build_s",
        MedianOf(setups, [](auto& t) { return t.engine_build_s; }), "s");
    add("rris.count_batch_s", count_s, "s");
    add("rris.count_batch_calls", last.count_calls, "count");
    add("rris.count_batch_ms_p50", Percentile(count_call_ms, 0.5), "ms");
    add("rris.count_batch_ms_p90", Percentile(count_call_ms, 0.9), "ms");
    add("rris.count_rr_sets", last.count_sets, "count");
    add("rris.count_sets_per_s", Ratio(last.count_sets, count_s), "1/s");
    add("rris.pool_fill_s", pool_s, "s");
    add("rris.pool_fill_calls", last.pool_calls, "count");
    add("rris.pool_rr_sets", last.pool_sets, "count");
    add("rris.pool_sets_per_s", Ratio(last.pool_sets, pool_s), "1/s");
    add("rris.pool_mb", pool_mib, "MiB");
    add("rris.edges_examined", static_cast<double>(stats.edges_examined),
        "count");
    add("rris.rng_draws", static_cast<double>(stats.rng_draws), "count");
    add("rris.draws_per_edge", stats.DrawsPerEdge(), "ratio");
    add("rris.coverage_queries", static_cast<double>(stats.coverage_queries),
        "count");
    add("rris.queries_per_pool", stats.ReuseRatio(), "ratio");
    add("core.policy_self_s",
        MedianOf(measured, [](auto& s) { return s.policy_self_s; }), "s");
    add("core.selection_s",
        MedianOf(measured, [](auto& s) { return s.selection_s; }), "s");
    add("core.rounds", last.rounds, "count");
    add("core.rr_sets_per_decision", Ratio(last.rr_sets, last.decisions),
        "ratio");
    add("core.pools_per_decision", Ratio(last.count_pools, last.decisions),
        "ratio");
    add("core.degraded_decisions", last.degraded, "count");

    // Span-derived self times. The layer self times of a traced phase add
    // up to its wall time; bench.phase is the benchmark loop's own share.
    std::map<std::string, double> run_self =
        SelfSecondsByLayer(log.spans(), "phase");
    std::map<std::string, double> setup_self =
        SelfSecondsByLayer(log.spans(), "setup");
    double mean_phase_s = 0.0, mean_setup_s = 0.0;
    for (const PhaseSummary& s : measured) mean_phase_s += s.wall_s;
    mean_phase_s /= static_cast<double>(measured.size());
    for (const SetupTimes& t : setups) mean_setup_s += t.total_s;
    mean_setup_s /= static_cast<double>(setups.size());
    for (auto& entry : run_self) {
      entry.second /= static_cast<double>(measured.size());
    }
    for (auto& entry : setup_self) {
      entry.second /= static_cast<double>(setups.size());
    }
    const double traced_run_s =
        MedianOf(measured, [](auto& s) { return s.wall_s; });
    add("trace.run_s", traced_run_s, "s");
    add("trace.overhead_s",
        traced_run_s - MedianOf(untraced, [](auto& s) { return s.wall_s; }),
        "s");
    add("trace.bench_self_s", run_self["bench.phase"], "s");

    const std::string stem = args.out + "/" + spec->name + "-seed" +
                             std::to_string(args.seed);
    checker.CheckStatus(WriteChromeTrace(log.spans(), stem + ".trace.json"),
                        "write trace");
    checker.CheckStatus(WriteSelfTimeTable(stem + ".selftime.tsv", run_self,
                                           mean_phase_s, setup_self,
                                           mean_setup_s),
                        "write self-time table");
    std::fprintf(stderr, "trace %s.trace.json, self times %s.selftime.tsv\n",
                 stem.c_str(), stem.c_str());
    for (const auto& [layer, self_s] : run_self) {
      std::fprintf(stderr, "  run  %-24s %9.4f s %7.2f%%\n", layer.c_str(),
                   self_s, 100.0 * Ratio(self_s, mean_phase_s));
    }
    add("failed_ratio",
        Ratio(static_cast<double>(checker.failed()),
              static_cast<double>(checker.attempted())),
        "ratio");
  }

  // Run context, then the result object as the last line.
  std::printf("{\"context\": {\"workload\": ");
  PrintJsonString(spec->name);
  std::printf(", \"seed\": %llu, \"threads\": %u, \"nproc\": %u, "
              "\"compiler\": ",
              static_cast<unsigned long long>(args.seed), threads, nproc);
  PrintJsonString(std::string("g++ ") + __VERSION__);
  std::printf(", \"commit\": ");
  PrintJsonString(args.commit);
  std::printf(", \"ndebug\": true, \"trace\": %d, \"setup_reps\": %zu, "
              "\"phases\": %zu, \"measured_phases\": %zu, "
              "\"decision_samples\": %zu, \"profit_ratio\": %.6f}}\n",
              args.trace ? 1 : 0, setups.size(), records.size(),
              measured.size(), decision_ms.size(), profit_ratio);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checker.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return checker.failed() == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: atpm_perfbench gen --workload W --dir D\n"
               "       atpm_perfbench run --workload W --seed S --seconds N "
               "--trace 0|1 --dir D --out O [--commit C] "
               "[--profit-ref X --profit-tol Y]\n");
  return 2;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  // Same test as micro_substrates' atpm_build_type context: timings of a
  // build with assertions on are not atpm's timings.
  std::fprintf(stderr,
               "atpm_perfbench: refusing to run a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--profit-ref") {
      args.profit_ref = std::strtod(value, nullptr);
    } else if (key == "--profit-tol") {
      args.profit_tol = std::strtod(value, nullptr);
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.dir.empty()) return Usage();
  if (command == "gen") {
    const WorkloadSpec* spec = FindWorkload(args.workload);
    if (spec == nullptr) return Usage();
    for (uint32_t i = 0; i < spec->instances; ++i) {
      const Status status =
          GenerateInstance(*spec, ProblemSeed(i), InstanceDir(args.dir, i));
      if (!status.ok()) {
        std::fprintf(stderr, "gen failed: %s\n", status.ToString().c_str());
        return 2;
      }
    }
    return 0;
  }
  if (command == "run") return Run(args);
  return Usage();
}

}  // namespace
}  // namespace atpm::perfbench

int main(int argc, char** argv) { return atpm::perfbench::Main(argc, argv); }
