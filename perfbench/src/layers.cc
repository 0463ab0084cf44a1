#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "cache/set_assoc_cache.hh"
#include "core/frame_buffer_manager.hh"
#include "core/surface_pool.hh"
#include "decoder/video_decoder.hh"
#include "display/display_controller.hh"
#include "hash/crc.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "video/synthetic_video.hh"

namespace perfbench
{

using namespace vstream;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---- timing decorator ---------------------------------------------------

TimedWriteback::TimedWriteback(WritebackStage &inner, SpanRecorder &rec)
    : inner_(inner), rec_(rec),
      name_(rec.intern("writeback"))
{
}

void
TimedWriteback::beginFrame(const Frame &frame, BufferSlot &slot,
                           Tick now, FrameLayout &layout)
{
    const std::int64_t t0 = nowNs();
    inner_.beginFrame(frame, slot, now, layout);
    rec_.add(name_, t0, nowNs(), decode_span_);
    mabs_first_ns_ = -1;
    mabs_ns_ = 0;
}

void
TimedWriteback::writeMab(const Macroblock &mab, std::uint32_t idx,
                         Tick now)
{
    const std::int64_t t0 = nowNs();
    inner_.writeMab(mab, idx, now);
    const std::int64_t t1 = nowNs();
    if (mabs_first_ns_ < 0) {
        mabs_first_ns_ = t0;
    }
    mabs_ns_ += t1 - t0;
}

void
TimedWriteback::finishFrame(Tick now)
{
    if (mabs_first_ns_ >= 0) {
        rec_.add(name_, mabs_first_ns_, mabs_first_ns_ + mabs_ns_,
                 decode_span_);
    }
    const std::int64_t t0 = nowNs();
    inner_.finishFrame(now);
    rec_.add(name_, t0, nowNs(), unit_span_);
}

// ---- layer driver ---------------------------------------------------------

namespace
{

/** Spans one call when a recorder is present. */
class Scope
{
  public:
    Scope(SpanRecorder *rec, std::uint32_t name, std::int32_t parent)
        : rec_(rec)
    {
        if (rec_ != nullptr) {
            idx_ = rec_->open(name, nowNs(), parent);
        }
    }
    ~Scope()
    {
        if (rec_ != nullptr) {
            rec_->close(idx_, nowNs());
        }
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int32_t index() const { return idx_; }

  private:
    SpanRecorder *rec_;
    std::int32_t idx_ = -1;
};

} // namespace

DriveResult
driveUnit(PipelineConfig cfg, SpanRecorder *rec)
{
    const std::int64_t t_start = nowNs();
    cfg.finalize(); // as the VideoPipeline constructor does
    const std::uint32_t unit_id = rec ? rec->intern("unit") : 0;
    const std::uint32_t video_id = rec ? rec->intern("video") : 0;
    const std::uint32_t decode_id = rec ? rec->intern("decoder") : 0;
    const std::uint32_t display_id = rec ? rec->intern("display") : 0;
    DriveResult out;
    {
        Scope unit(rec, unit_id, -1);

        EventQueue queue;
        MemorySystem mem("mem", &queue, cfg.dram);
        const VideoProfile &p = cfg.profile;
        FrameBufferManager fbm(
            mem, p.mabsPerFrame(), p.mab_dim * p.mab_dim * kBytesPerPixel,
            cfg.scheme.mach ? static_cast<std::uint64_t>(cfg.mach.entries) *
                                  (cfg.mach.digest_bytes +
                                   cfg.mach.pointer_bytes)
                            : 0);
        std::unique_ptr<MachArray> machs;
        std::unique_ptr<WritebackStage> wb;
        if (cfg.scheme.mach) {
            machs = std::make_unique<MachArray>(cfg.mach);
            wb = std::make_unique<MachWriteback>(
                mem, fbm, *machs, cfg.scheme.layout, cfg.scheme.dcc);
        } else {
            wb = std::make_unique<LinearWriteback>(mem, fbm);
        }
        VideoDecoder vd("vd", &queue, mem, cfg.decoder, p);
        vd.setFrequency(cfg.scheme.freq);
        DisplayController dc("dc", &queue, mem, fbm, cfg.display);
        SyntheticVideo video(p);

        std::unique_ptr<TimedWriteback> timed;
        if (rec != nullptr) {
            timed = std::make_unique<TimedWriteback>(*wb, *rec);
            timed->setUnitSpan(unit.index());
        }
        WritebackStage &stage = timed ? *timed : *wb;

        // Frames stay resident as long as the pipeline keeps them:
        // two vsyncs plus the MACH window, which inter-frame
        // pointers reach into.
        const std::uint32_t window =
            cfg.scheme.mach ? cfg.mach.num_machs - 1 : 0;
        const Tick period = p.framePeriodTicks();
        SurfacePool<FrameLayout> layout_pool("perfbench.layouts");
        std::vector<FrameLayout *> layouts(p.frame_count, nullptr);
        std::vector<BufferSlot *> slots(p.frame_count, nullptr);
        Frame frame;
        Tick t = 0;
        for (std::uint32_t i = 0; i < p.frame_count; ++i) {
            if (i >= 2 + window) {
                const std::uint32_t j = i - 2 - window;
                fbm.release(j);
                layout_pool.release(*layouts[j]);
                layouts[j] = nullptr;
            }
            {
                Scope s(rec, video_id, unit.index());
                video.nextFrameInto(frame);
            }
            BufferSlot &slot = fbm.acquire(i);
            slots[i] = &slot;
            FrameLayout &layout = layout_pool.acquire();
            layouts[i] = &layout;
            FrameDecodeResult r;
            {
                Scope s(rec, decode_id, unit.index());
                if (timed) {
                    timed->setDecodeSpan(s.index());
                }
                r = vd.decodeFrame(frame, stage, slot,
                                   i > 0 ? slots[i - 1] : nullptr, t,
                                   layout);
            }
            stage.finishFrame(r.finish);
            const Tick vsync = std::max(r.finish, (i + 1) * period);
            {
                Scope s(rec, display_id, unit.index());
                dc.scanOut(layout, vsync);
            }
            t = vsync;
        }
        out.frames = p.frame_count;
        out.cache_probes = vd.cache().hitCount() + vd.cache().missCount();
        out.cache_misses = vd.cache().missCount();
        out.writeback = wb->totals();
        if (machs) {
            out.mach = machs->stats();
        }
    }
    out.seconds = static_cast<double>(nowNs() - t_start) * 1e-9;
    return out;
}

bool
sameWork(const DriveResult &d, const PipelineResult &r)
{
    const WritebackTotals &a = d.writeback;
    const WritebackTotals &b = r.writeback;
    return a.mabs == b.mabs && a.unique_blocks == b.unique_blocks &&
           a.intra_matches == b.intra_matches &&
           a.inter_matches == b.inter_matches &&
           a.data_bytes == b.data_bytes && a.meta_bytes == b.meta_bytes &&
           d.mach.lookups == r.mach.lookups &&
           d.mach.hits() == r.mach.hits() &&
           d.mach.inserts == r.mach.inserts;
}

// ---- replays ----------------------------------------------------------------

namespace
{

std::uint32_t
mabBytes(const VideoProfile &p)
{
    return p.mab_dim * p.mab_dim * kBytesPerPixel;
}

} // namespace

Replay
replayDram(PipelineConfig cfg, std::uint32_t frames)
{
    cfg.finalize();
    EventQueue queue;
    MemorySystem mem("replay.mem", &queue, cfg.dram);
    const std::uint64_t frame_bytes =
        static_cast<std::uint64_t>(cfg.profile.mabsPerFrame()) *
        mabBytes(cfg.profile);
    // Two buffers, so consecutive frames do not share rows trivially.
    const Addr bufs[2] = {mem.allocate(frame_bytes, "replay.fb0"),
                          mem.allocate(frame_bytes, "replay.fb1")};
    constexpr std::uint32_t kLine = 64;
    const Tick period = cfg.profile.framePeriodTicks();

    const std::int64_t t0 = nowNs();
    Tick t = 0;
    for (std::uint32_t f = 0; f < frames; ++f) {
        const Addr base = bufs[f % 2];
        for (std::uint64_t off = 0; off < frame_bytes; off += kLine) {
            t = mem.write(base + off, kLine, Requester::kVideoDecoder, t)
                    .finish_tick;
        }
        t = std::max(t, (f + 1) * period);
        for (std::uint64_t off = 0; off < frame_bytes; off += kLine) {
            t = mem.read(base + off, kLine,
                         Requester::kDisplayController, t)
                    .finish_tick;
        }
    }
    Replay r;
    r.seconds = static_cast<double>(nowNs() - t0) * 1e-9;
    const DramActivityCounts c = mem.energy().totalCounts();
    r.events = c.read_bursts + c.write_bursts;
    return r;
}

Replay
replayCache(PipelineConfig cfg, std::uint32_t frames)
{
    cfg.finalize();
    SetAssocCache cache("replay.cache", cfg.decoder.cache);
    const VideoProfile &p = cfg.profile;
    const std::uint32_t mab_count = p.mabsPerFrame();
    const std::uint32_t mab_bytes = mabBytes(p);
    const Addr pf = cfg.decoder.read_prefetch_bytes;
    const std::uint64_t ring = cfg.decoder.encoded_ring_bytes;
    const auto enc_per_mab = static_cast<std::uint64_t>(
        std::max(1.0, p.encoded_bytes_per_mab));
    const std::int64_t reach = cfg.decoder.mc_reach_mabs;
    // Encoded ring first, then two reference buffers, as allocated
    // by the decoder and the frame-buffer pool.
    const Addr ref_base[2] = {ring, ring + mab_count * mab_bytes};
    Random rng(p.seed);
    CacheAccessSummary s;
    std::uint64_t cursor = 0;

    const auto widened = [&](Addr addr, std::uint64_t size) {
        const Addr lo = addr / pf * pf;
        const Addr hi = (addr + size + pf - 1) / pf * pf;
        cache.accessInto(lo, static_cast<std::uint32_t>(hi - lo),
                         MemOp::kRead, s);
        return s.lines;
    };

    Replay r;
    const std::int64_t t0 = nowNs();
    for (std::uint32_t f = 0; f < frames; ++f) {
        const Addr prev = ref_base[f % 2];
        for (std::uint32_t i = 0; i < mab_count; ++i) {
            r.events += widened(cursor % ring, enc_per_mab);
            cursor += enc_per_mab;
            const std::int64_t ref = std::clamp<std::int64_t>(
                static_cast<std::int64_t>(i) +
                    static_cast<std::int64_t>(
                        rng.uniformInt(0, 2 * static_cast<std::uint64_t>(
                                                  reach))) -
                    reach,
                0, mab_count - 1);
            r.events += widened(prev + static_cast<Addr>(ref) * mab_bytes,
                                mab_bytes);
        }
    }
    r.seconds = static_cast<double>(nowNs() - t0) * 1e-9;
    return r;
}

Replay
replayHash(PipelineConfig cfg, std::uint32_t frames)
{
    cfg.finalize();
    SyntheticVideo video(cfg.profile);
    const std::uint32_t mab_bytes = mabBytes(cfg.profile);
    Frame frame;
    std::vector<const std::uint8_t *> blocks;
    std::vector<std::uint32_t> digests;
    Replay r;
    for (std::uint32_t f = 0; f < frames && !video.done(); ++f) {
        video.nextFrameInto(frame);
        blocks.clear();
        for (std::uint32_t i = 0; i < frame.mabCount(); ++i) {
            blocks.push_back(frame.mab(i).bytes().data());
        }
        digests.resize(blocks.size());
        const std::int64_t t0 = nowNs();
        crc32Batch(blocks.data(), mab_bytes, blocks.size(),
                   digests.data());
        r.seconds += static_cast<double>(nowNs() - t0) * 1e-9;
        r.events += blocks.size();
    }
    return r;
}

} // namespace perfbench
