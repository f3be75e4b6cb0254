#pragma once
// Image scaling and the case study's "scaling level" abstraction.
//
// The embedded system cannot process full-resolution camera images under
// its timing constraints, so each task works on a scaled-down version. The
// paper divides the scaled image into Q_i levels; the level controls the
// size (hence setup/transfer/compute times) and the residual quality
// (PSNR of down-then-up-scaled image vs the original).

#include "img/image.hpp"

namespace rt::img {

enum class ScaleFilter {
  kNearest,
  kBilinear,
};

/// Resizes to new_w x new_h. Throws on non-positive target dimensions or an
/// empty source.
///
/// Output pixel (x, y) maps to the center-aligned source coordinate
///   fx = (x + 0.5f) * sx - 0.5f,  fy = (y + 0.5f) * sy - 0.5f
/// with sx = src.width() / new_w and sy = src.height() / new_h in float.
/// Contract, bit for bit: a kBilinear pixel equals
/// src.sample_bilinear(fx, fy), and a kNearest pixel equals
/// src.at_clamped(lround(fx), lround(fy)). The bilinear kernel is separable
/// (each source row is interpolated horizontally once and reused by every
/// output row that needs it) but evaluates the same float expressions on
/// the same operands, so PSNRs and the reports built on them do not move.
Image resize(const Image& src, int new_w, int new_h,
             ScaleFilter filter = ScaleFilter::kBilinear);

/// The linear size fraction of scaling level `level` out of `num_levels`:
/// level 1 is the smallest usable size, level == num_levels is the original
/// size (fraction 1.0). Throws unless 1 <= level <= num_levels.
double level_fraction(int level, int num_levels);

/// Downscales `src` to the given level (linear dimensions scaled by
/// level_fraction, at least 1 pixel).
Image scale_to_level(const Image& src, int level, int num_levels,
                     ScaleFilter filter = ScaleFilter::kBilinear);

/// Round trip: downscale to the level, upscale back to the original size.
/// PSNR(src, round_trip(src, ...)) is the paper's quality measure per level.
Image round_trip(const Image& src, int level, int num_levels,
                 ScaleFilter filter = ScaleFilter::kBilinear);

/// Approximate payload in bytes when transmitting the level-scaled image
/// (8-bit pixels, no compression).
std::size_t level_payload_bytes(int width, int height, int level, int num_levels);

}  // namespace rt::img
