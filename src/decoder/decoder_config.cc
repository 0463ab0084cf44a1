#include "decoder/decoder_config.hh"

#include "sim/logging.hh"

namespace vstream
{

void
DecoderConfig::validate() const
{
    power.validate();
    cache.validate();
    if (read_prefetch_bytes < cache.line_bytes ||
        (read_prefetch_bytes & (read_prefetch_bytes - 1)) != 0) {
        vs_fatal("read_prefetch_bytes must be a power of two no smaller "
                 "than the cache line, got ", read_prefetch_bytes);
    }
    if (encoded_ring_bytes < (1 << 16)) {
        vs_fatal("encoded ring too small");
    }
    if (cost.jitter < 0.0 || cost.jitter >= 1.0) {
        vs_fatal("per-mab jitter must be in [0, 1)");
    }
}

} // namespace vstream
