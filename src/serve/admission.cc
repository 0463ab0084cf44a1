#include "serve/admission.hh"

namespace vstream
{

void
ServeConfig::validate() const
{
    // Negated compare: NaN fails every ordering, so it is rejected.
    if (!(bandwidth_budget_mbps > 0.0)) {
        vs_fatal("serve bandwidth budget must be positive, got ",
                 bandwidth_budget_mbps, " MB/s");
    }
    if (framebuffer_budget_bytes == 0) {
        vs_fatal("serve frame-buffer budget must be positive");
    }
    if (max_active == 0) {
        vs_fatal("serve max_active must be >= 1");
    }
}

Demand
Demand::of(const PipelineConfig &cfg)
{
    return Demand{sessionDemandMBps(cfg), sessionFramebufferBytes(cfg)};
}

} // namespace vstream
