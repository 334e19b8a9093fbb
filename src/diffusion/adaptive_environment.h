#ifndef ATPM_DIFFUSION_ADAPTIVE_ENVIRONMENT_H_
#define ATPM_DIFFUSION_ADAPTIVE_ENVIRONMENT_H_

#include <vector>

#include "common/bit_vector.h"
#include "diffusion/realization.h"
#include "graph/graph.h"

namespace atpm {

/// The feedback loop of the adaptive seeding model (Section II-B of the
/// paper). An environment owns a ground-truth realization φ and the set of
/// nodes activated so far. A policy interacts with it only through
/// SeedAndObserve(u), which seeds u, reveals the set A(u) of nodes u
/// actually activates in φ among the not-yet-activated nodes, and removes
/// them from the residual graph G_i.
///
/// The activated bitmap doubles as the "removed" mask for every residual-
/// graph computation (spread estimation, RR-set generation), so algorithms
/// never copy the graph.
class AdaptiveEnvironment {
 public:
  /// Creates an environment over `realization` with no node activated.
  explicit AdaptiveEnvironment(Realization realization)
      : realization_(std::move(realization)),
        activated_(realization_.graph().num_nodes()) {}

  /// Seeds node `u` (which must not be activated yet), observes the newly
  /// activated set A(u) — u itself plus every inactive node reachable from
  /// u over live edges of φ — marks those nodes activated, and returns them.
  /// The returned reference is valid until the next call.
  const std::vector<NodeId>& SeedAndObserve(NodeId u);

  /// True iff `u` has been activated by a previous seeding.
  bool IsActivated(NodeId u) const { return activated_.Test(u); }

  /// Bitmap of activated nodes == nodes removed from the residual graph G_i.
  const BitVector& activated() const { return activated_; }

  /// Total nodes activated so far (the realized spread of all seeds).
  uint32_t num_activated() const { return num_activated_; }

  /// Seeding interactions so far (SeedAndObserve calls) — the environment's
  /// own accounting of how many decisions actually deployed a seed, used to
  /// cross-check policy telemetry (result.seeds) after a run.
  uint32_t num_seedings() const { return num_seedings_; }

  /// n_i: nodes remaining in the residual graph.
  uint32_t num_remaining() const {
    return realization_.graph().num_nodes() - num_activated_;
  }

  /// The underlying graph G.
  const Graph& graph() const { return realization_.graph(); }
  /// The ground-truth world φ (exposed for evaluation and tests; policies
  /// must not peek).
  const Realization& realization() const { return realization_; }

 private:
  Realization realization_;
  BitVector activated_;
  uint32_t num_activated_ = 0;
  uint32_t num_seedings_ = 0;
  std::vector<NodeId> last_observed_;
};

}  // namespace atpm

#endif  // ATPM_DIFFUSION_ADAPTIVE_ENVIRONMENT_H_
