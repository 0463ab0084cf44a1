/**
 * @file
 * Synthetic video source.
 *
 * Generates decoded frames whose macroblock-level content statistics
 * are controlled by a VideoProfile: exact intra-frame repeats, exact
 * inter-frame repeats (within a bounded window), constant-offset
 * "gradient" repeats that only the gab representation can catch,
 * pure-colour and smooth-ramp blocks, and unique noise blocks.
 * Deterministic for a given profile (seed included).
 */

#ifndef VSTREAM_VIDEO_SYNTHETIC_VIDEO_HH
#define VSTREAM_VIDEO_SYNTHETIC_VIDEO_HH

#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "video/frame.hh"
#include "video/gop.hh"
#include "video/video_profile.hh"

namespace vstream
{

/** Stream of synthetic decoded frames. */
class SyntheticVideo
{
  public:
    explicit SyntheticVideo(const VideoProfile &profile);

    /** All frames emitted? */
    bool done() const { return next_index_ >= profile_.frame_count; }

    /**
     * Generate the next frame (fatal when done()).  The frame is
     * built in place in the window ring, so the reference stays
     * valid only until the next call to nextFrame(),
     * nextFrameInto() or reset().
     */
    const Frame &nextFrame();

    /** Generate the next frame and copy it into @p out, reusing
     * @p out's storage (fatal when done()). */
    void nextFrameInto(Frame &out);

    std::uint64_t framesEmitted() const { return next_index_; }

    /** Restart the stream from frame 0 (same content). */
    void reset();

    const VideoProfile &profile() const { return profile_; }

  private:
    Pixel paletteColor();
    void uniqueMabInto(Macroblock &mab);
    void smoothMabInto(Macroblock &mab);
    /** Index of an earlier mab of the current frame to copy from
     * (locality-biased). */
    std::uint32_t intraSource(std::uint32_t i);
    /** A mab from a recent window frame, near position @p i. */
    const Macroblock &windowMabNear(std::uint32_t i);

    /** Frame @p i of the logical window, 0 = oldest. */
    const Frame &windowAt(std::size_t i) const;
    /** Make the frame just generated in the free slot the newest
     * window entry. */
    void pushWindow();

    VideoProfile profile_;
    GopStructure gop_;
    Random rng_;
    std::uint64_t next_index_ = 0;
    /**
     * inter_window + 1 frame slots, sized at construction: the most
     * recent inter_window frames plus the free slot win_next_ that
     * the next frame is generated into.  Empty slots own no pixels;
     * each gets its macroblock storage on its first reinit and keeps
     * it, so the steady-state ring never allocates, and no slot ever
     * moves while a frame is copied from another.  win_size_ is the
     * live logical window (reset on scene cuts).
     */
    std::vector<Frame> window_ring_;
    std::size_t win_next_ = 0;
    std::size_t win_size_ = 0;
    /** Cached ramp patterns (gradient blocks with zero base). */
    std::vector<Macroblock> ramps_;
};

} // namespace vstream

#endif // VSTREAM_VIDEO_SYNTHETIC_VIDEO_HH
