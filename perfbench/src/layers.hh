/**
 * @file
 * Per-layer measurement from outside the program.
 *
 * The layer driver builds the public components a Playback builds
 * (MemorySystem, FrameBufferManager, MachArray + MachWriteback or
 * LinearWriteback, VideoDecoder, DisplayController, SyntheticVideo)
 * and, per frame, generates, decodes, finishes the writeback and
 * scans out, recording a span around each call.  Layers the decoder
 * calls internally (VD cache, DRAM, digests) cannot be spanned from
 * outside, so each gets a replay: the layer's public entry point
 * timed on an access stream shaped like the workload's, giving a
 * per-call cost to multiply by the pipeline's event counts.
 */

#ifndef VSTREAM_PERFBENCH_LAYERS_HH
#define VSTREAM_PERFBENCH_LAYERS_HH

#include <cstdint>
#include <vector>

#include "bench_core.hh"
#include "core/mach_array.hh"
#include "core/pipeline_config.hh"
#include "core/writeback_stage.hh"

namespace perfbench
{

/** Steady-clock nanoseconds. */
std::int64_t nowNs();

/**
 * Timing decorator around a WritebackStage, recording "writeback"
 * spans.  beginFrame and finishFrame each get one; the per-mab
 * writeMab calls of one frame are collapsed into a single span whose
 * duration is their summed time, which keeps the span count per frame
 * constant.
 */
class TimedWriteback final : public vstream::WritebackStage
{
  public:
    TimedWriteback(vstream::WritebackStage &inner, SpanRecorder &rec);

    /** Parent span of the next frame's beginFrame/writeMab spans. */
    void setDecodeSpan(std::int32_t span) { decode_span_ = span; }
    /** Parent span of finishFrame. */
    void setUnitSpan(std::int32_t span) { unit_span_ = span; }

    void beginFrame(const vstream::Frame &frame,
                    vstream::BufferSlot &slot, vstream::Tick now,
                    vstream::FrameLayout &layout) override;
    void writeMab(const vstream::Macroblock &mab, std::uint32_t idx,
                  vstream::Tick now) override;
    void finishFrame(vstream::Tick now) override;

  private:
    vstream::WritebackStage &inner_;
    SpanRecorder &rec_;
    std::uint32_t name_;
    std::int32_t decode_span_ = -1;
    std::int32_t unit_span_ = -1;
    std::int64_t mabs_first_ns_ = -1;
    std::int64_t mabs_ns_ = 0;
};

/** What one driven unit did. */
struct DriveResult
{
    vstream::WritebackTotals writeback;
    vstream::MachStats mach;
    /** Frames decoded, each scanned out once. */
    std::uint64_t frames = 0;
    /** VD-cache line probes and misses of this unit. */
    std::uint64_t cache_probes = 0;
    std::uint64_t cache_misses = 0;
    /** Wall time of the whole unit, construction included. */
    double seconds = 0.0;
};

/**
 * Drive one unit frame by frame in decode-then-scan-out order.  With
 * @p rec non-null every call is spanned under one "unit" root span;
 * with it null nothing but the unit's wall time is measured.  The
 * config is finalized here, as VideoPipeline does.
 */
DriveResult driveUnit(vstream::PipelineConfig cfg, SpanRecorder *rec);

/** Content-determined writeback/MACH counts of two runs agree. */
bool sameWork(const DriveResult &d, const vstream::PipelineResult &r);

/** Host cost of one replay: calls made and time taken. */
struct Replay
{
    std::uint64_t events = 0;
    double seconds = 0.0;

    double nsPerEvent() const
    {
        return events ? seconds * 1e9 / static_cast<double>(events)
                      : 0.0;
    }
};

/** MemorySystem::write/read on framebuffer-shaped streams: each frame
 * stored in 64 B write-combined requests, then read back in 64 B
 * scan-out requests.  Events are DRAM bursts. */
Replay replayDram(vstream::PipelineConfig cfg,
                  std::uint32_t frames);

/** SetAssocCache::accessInto on the decoder's read stream: encoded
 * bytes plus one motion-compensation reference per mab, widened to
 * the prefetch granularity.  Events are line probes. */
Replay replayCache(vstream::PipelineConfig cfg,
                   std::uint32_t frames);

/** crc32Batch over the mab bytes of @p cfg's own video, one call per
 * frame.  Events are blocks hashed. */
Replay replayHash(vstream::PipelineConfig cfg,
                  std::uint32_t frames);

} // namespace perfbench

#endif // VSTREAM_PERFBENCH_LAYERS_HH
