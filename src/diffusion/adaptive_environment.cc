#include "diffusion/adaptive_environment.h"

namespace atpm {

const std::vector<NodeId>& AdaptiveEnvironment::SeedAndObserve(NodeId u) {
  ATPM_CHECK(u < graph().num_nodes());
  ATPM_CHECK(!activated_.Test(u));
  last_observed_.clear();
  // BFS from u over live edges, restricted to inactive nodes. Passing the
  // current activation bitmap as the removed mask yields exactly A(u) on
  // the residual graph G_i.
  realization_.Spread({&u, 1}, &activated_, &last_observed_);
  for (NodeId v : last_observed_) activated_.Set(v);
  num_activated_ += static_cast<uint32_t>(last_observed_.size());
  ++num_seedings_;
  return last_observed_;
}

}  // namespace atpm
