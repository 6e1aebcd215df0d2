#pragma once

#include "flb/util/rng.hpp"
#include "flb/workloads/workloads.hpp"

/// \file weight_drawer.hpp
/// Internal helper shared by the workload generators: draws computation and
/// communication costs according to WorkloadParams (uniform with means 1
/// and CCR, or deterministic).

namespace flb::detail {

class WeightDrawer {
 public:
  /// `who` names the generator in the error a bad CCR raises.
  WeightDrawer(const WorkloadParams& params, const char* who)
      : params_(params), rng_(params.seed) {
    require_valid_params(params, who);
  }

  Cost comp() {
    return params_.random_weights ? draw_weight(rng_, 1.0) : 1.0;
  }

  Cost comm() {
    return params_.random_weights ? draw_weight(rng_, params_.ccr)
                                  : params_.ccr;
  }

  Rng& rng() { return rng_; }

 private:
  WorkloadParams params_;
  Rng rng_;
};

}  // namespace flb::detail
