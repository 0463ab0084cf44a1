#include "video/synthetic_video.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "video/gop.hh"

namespace vstream
{

SyntheticVideo::SyntheticVideo(const VideoProfile &profile)
    : profile_(profile), gop_(profile.gop_pattern), rng_(profile.seed),
      window_ring_(profile.inter_window + std::size_t{1})
{
    profile_.validate();

    // Similarity rates are calibrated for 4x4 blocks.  A larger
    // block only recurs if all of its 4x4 tiles recur together, so
    // the match probability decays with block area; smaller blocks
    // recur more (paper Fig. 12c's trade-off against metadata).
    const double area_ratio =
        static_cast<double>(profile_.mab_dim) * profile_.mab_dim /
        16.0;
    if (area_ratio != 1.0) {
        auto scale = [&](double rate) {
            return rate > 0.0 ? std::pow(rate, area_ratio) : 0.0;
        };
        profile_.intra_match_rate = scale(profile_.intra_match_rate);
        profile_.inter_match_rate = scale(profile_.inter_match_rate);
        profile_.gradient_shift_rate =
            scale(profile_.gradient_shift_rate);
        profile_.pure_color_rate = scale(profile_.pure_color_rate);
        profile_.smooth_rate = scale(profile_.smooth_rate);

        // Tiny blocks push the copy rates toward 1; keep the three
        // exclusive categories a valid partition.
        const double sum = profile_.intra_match_rate +
                           profile_.inter_match_rate +
                           profile_.gradient_shift_rate;
        if (sum > 0.95) {
            const double f = 0.95 / sum;
            profile_.intra_match_rate *= f;
            profile_.inter_match_rate *= f;
            profile_.gradient_shift_rate *= f;
        }
    }

    // Pre-build the ramp palette: gradient patterns shared by smooth
    // blocks.  Bases vary per block, so these collide only under gab.
    Random ramp_rng(profile_.seed ^ 0x52414d50ULL);
    for (std::uint32_t r = 0; r < profile_.ramp_palette; ++r) {
        Macroblock gab(profile_.mab_dim);
        const auto dx = static_cast<std::uint8_t>(ramp_rng.uniformInt(0, 6));
        const auto dy = static_cast<std::uint8_t>(ramp_rng.uniformInt(0, 6));
        for (std::uint32_t y = 0; y < profile_.mab_dim; ++y) {
            for (std::uint32_t x = 0; x < profile_.mab_dim; ++x) {
                const auto v =
                    static_cast<std::uint8_t>(x * dx + y * dy);
                gab.setPixel(y * profile_.mab_dim + x, Pixel{v, v, v});
            }
        }
        ramps_.push_back(gab);
    }
}

void
SyntheticVideo::reset()
{
    rng_.seed(profile_.seed);
    next_index_ = 0;
    win_next_ = 0;
    win_size_ = 0;
}

const Frame &
SyntheticVideo::windowAt(std::size_t i) const
{
    vs_assert(i < win_size_, "window index out of range");
    const std::size_t slots = window_ring_.size();
    return window_ring_[(win_next_ + slots - win_size_ + i) % slots];
}

void
SyntheticVideo::pushWindow()
{
    win_next_ = (win_next_ + 1) % window_ring_.size();
    win_size_ = std::min<std::size_t>(win_size_ + 1, profile_.inter_window);
}

Pixel
SyntheticVideo::paletteColor()
{
    // Quantized palette so the same colour recurs across the video.
    // Heavily skewed toward colour 0 (black): letterbox bars, dark
    // scenes and test-card fields dominate real pure-colour content,
    // which is what concentrates matches on a single digest
    // (paper Fig. 9b).
    const std::uint64_t idx =
        rng_.chance(0.25)
            ? 0
            : rng_.uniformInt(0, profile_.color_palette - 1);
    std::uint64_t h = idx * 0x9e3779b97f4a7c15ULL + profile_.seed;
    h = splitMix64(h);
    return Pixel{static_cast<std::uint8_t>(h),
                 static_cast<std::uint8_t>(h >> 8),
                 static_cast<std::uint8_t>(h >> 16)};
}

// vstream:hot
void
SyntheticVideo::uniqueMabInto(Macroblock &mab)
{
    auto &bytes = mab.bytes();
    rng_.fillLowBytes(bytes.data(), bytes.size());
}

// vstream:hot
void
SyntheticVideo::smoothMabInto(Macroblock &mab)
{
    const auto ramp_idx = rng_.uniformInt(0, ramps_.size() - 1);
    Macroblock::fromGradientInto(ramps_[ramp_idx], paletteColor(), mab);
}

std::uint32_t
SyntheticVideo::intraSource(std::uint32_t i)
{
    vs_assert(i > 0, "no earlier mab to copy");
    if (rng_.chance(profile_.intra_locality)) {
        // Spatially near: a short geometric hop backwards.
        const std::uint64_t reach =
            std::min<std::uint64_t>(profile_.locality_reach, i);
        const std::uint64_t d = rng_.burstLength(0.97, reach);
        return i - static_cast<std::uint32_t>(d);
    }
    return static_cast<std::uint32_t>(rng_.uniformInt(0, i - 1));
}

const Macroblock &
SyntheticVideo::windowMabNear(std::uint32_t i)
{
    vs_assert(win_size_ > 0, "no window frame to copy from");
    // Bias toward recent frames: the paper finds matches beyond 16
    // frames are <1%, and most inter matches are near.
    const std::size_t which =
        win_size_ - 1 -
        std::min<std::size_t>(static_cast<std::size_t>(
                                  rng_.burstLength(0.6, win_size_) - 1),
                              win_size_ - 1);
    const Frame &f = windowAt(which);

    // Mostly the co-located block (still content / slow pans), with
    // a small motion offset; occasionally anywhere in the frame.
    std::uint64_t mab_idx;
    if (rng_.chance(profile_.intra_locality)) {
        const std::int64_t off =
            static_cast<std::int64_t>(rng_.uniformInt(0, 64)) - 32;
        std::int64_t idx = static_cast<std::int64_t>(i) + off;
        idx = std::clamp<std::int64_t>(idx, 0, f.mabCount() - 1);
        mab_idx = static_cast<std::uint64_t>(idx);
    } else {
        mab_idx = rng_.uniformInt(0, f.mabCount() - 1);
    }
    return f.mab(static_cast<std::uint32_t>(mab_idx));
}

// vstream:hot
void
SyntheticVideo::nextFrameInto(Frame &out)
{
    out = nextFrame();
}

// vstream:hot
const Frame &
SyntheticVideo::nextFrame()
{
    vs_assert(!done(), "video '", profile_.key, "' exhausted");

    const std::uint64_t idx = next_index_++;
    Frame &frame = window_ring_[win_next_];

    // Scene cut: clear the copy window so following frames start
    // fresh (drives the I-frame-heavy trailer workloads).
    if (idx > 0 && rng_.chance(profile_.scene_change_rate)) {
        win_size_ = 0;
    }

    // Static frame: a verbatim repeat of the previous frame (the
    // content class that checksum-based display schemes eliminate).
    if (idx > 0 && win_size_ > 0 &&
        rng_.chance(profile_.static_frame_rate)) {
        const Frame &prev = windowAt(win_size_ - 1);
        // Re-stamp the per-frame metadata for this position.
        frame.reinit(idx, gop_.frameType(idx), profile_.mabsX(),
                     profile_.mabsY(), profile_.mab_dim);
        for (std::uint32_t i = 0; i < frame.mabCount(); ++i) {
            frame.mab(i) = prev.mab(i);
            frame.setOrigin(i, MabOrigin::kInterCopy);
        }
        frame.setComplexity(0.6); // repeats decode cheaply
        frame.setEncodedBytes(static_cast<std::uint64_t>(
            profile_.mabsPerFrame() * profile_.encoded_bytes_per_mab *
            0.2));
        pushWindow();
        return frame;
    }

    frame.reinit(idx, gop_.frameType(idx), profile_.mabsX(),
                 profile_.mabsY(), profile_.mab_dim);

    // Per-frame decode complexity: lognormal with unit mean, capped.
    const double mu =
        -0.5 * profile_.complexity_sigma * profile_.complexity_sigma;
    double complexity = rng_.logNormal(mu, profile_.complexity_sigma);
    complexity = std::min(complexity, profile_.complexity_cap);
    // (I frames' larger decode effort is modelled by the cost
    // model's per-type weights, not here.)
    frame.setComplexity(complexity);

    const double i_size_factor =
        (frame.type() == FrameType::kI) ? 3.0 : 1.0;
    frame.setEncodedBytes(static_cast<std::uint64_t>(
        profile_.mabsPerFrame() * profile_.encoded_bytes_per_mab *
        i_size_factor * complexity));

    const double p_intra = profile_.intra_match_rate;
    const double p_inter = p_intra + profile_.inter_match_rate;
    const double p_grad = p_inter + profile_.gradient_shift_rate;

    for (std::uint32_t i = 0; i < frame.mabCount(); ++i) {
        const double r = rng_.uniform();

        if (r < p_intra && i > 0) {
            const auto src = intraSource(i);
            frame.mab(i) = frame.mab(src);
            frame.setOrigin(i, MabOrigin::kIntraCopy);
        } else if (r < p_inter && win_size_ > 0) {
            frame.mab(i) = windowMabNear(i);
            frame.setOrigin(i, MabOrigin::kInterCopy);
        } else if (r < p_grad && i > 0) {
            // Same gradient, different base: pick an earlier mab of
            // this frame and shift all pixels by a non-zero constant.
            const auto src = intraSource(i);
            const auto dr = static_cast<std::uint8_t>(
                rng_.uniformInt(1, 255));
            const auto dg = static_cast<std::uint8_t>(
                rng_.uniformInt(0, 255));
            const auto db = static_cast<std::uint8_t>(
                rng_.uniformInt(0, 255));
            frame.mab(src).shiftedInto(dr, dg, db, frame.mab(i));
            frame.setOrigin(i, MabOrigin::kGradientShift);
        } else if (rng_.chance(profile_.pure_color_rate)) {
            frame.mab(i).fill(paletteColor());
            frame.setOrigin(i, MabOrigin::kPureColor);
        } else if (rng_.chance(profile_.smooth_rate)) {
            smoothMabInto(frame.mab(i));
            frame.setOrigin(i, MabOrigin::kGradientShift);
        } else {
            uniqueMabInto(frame.mab(i));
            frame.setOrigin(i, MabOrigin::kUnique);
        }
    }

    pushWindow();
    return frame;
}

} // namespace vstream
