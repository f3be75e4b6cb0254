#include "img/scale.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace rt::img {

namespace {

// Center-aligned source coordinate of output index i, in float as
// resize's contract states (scale = src_len / out_len).
float source_coord(int i, float scale) {
  return (static_cast<float>(i) + 0.5f) * scale - 0.5f;
}

// The bilinear taps of one output axis: the two clamped source neighbours
// and the weight of the second, computed exactly as Image::sample_bilinear
// computes them from the same coordinate.
struct BilinearTaps {
  std::vector<int> lo;
  std::vector<int> hi;
  std::vector<float> weight;
};

BilinearTaps bilinear_taps(int out_len, int src_len) {
  const float scale = static_cast<float>(src_len) / static_cast<float>(out_len);
  const auto n = static_cast<std::size_t>(out_len);
  BilinearTaps taps{std::vector<int>(n), std::vector<int>(n), std::vector<float>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const float f = source_coord(static_cast<int>(i), scale);
    const int i0 = static_cast<int>(std::floor(f));
    taps.lo[i] = std::clamp(i0, 0, src_len - 1);
    taps.hi[i] = std::clamp(i0 + 1, 0, src_len - 1);
    taps.weight[i] = f - static_cast<float>(i0);
  }
  return taps;
}

// The clamped nearest source index of each output index along one axis.
std::vector<int> nearest_taps(int out_len, int src_len) {
  const float scale = static_cast<float>(src_len) / static_cast<float>(out_len);
  std::vector<int> taps(static_cast<std::size_t>(out_len));
  for (std::size_t i = 0; i < taps.size(); ++i) {
    taps[i] = std::clamp(
        static_cast<int>(std::lround(source_coord(static_cast<int>(i), scale))), 0,
        src_len - 1);
  }
  return taps;
}

const float* row_ptr(const Image& im, int y) {
  return im.data().data() +
         static_cast<std::size_t>(y) * static_cast<std::size_t>(im.width());
}

void resize_nearest(const Image& src, Image& out) {
  const std::vector<int> cols = nearest_taps(out.width(), src.width());
  const std::vector<int> rows = nearest_taps(out.height(), src.height());
  float* o = out.data().data();
  for (const int r : rows) {
    const float* in = row_ptr(src, r);
    for (const int c : cols) *o++ = in[c];
  }
}

// Separable bilinear: each needed source row is interpolated horizontally
// once into a two-row cache, and each output row is the vertical lerp of
// its two cached rows. Per pixel this evaluates sample_bilinear's
// expressions on the same operands in the same order, so the result is
// bit-identical; only the repeated tap and row work is gone.
void resize_bilinear(const Image& src, Image& out) {
  const BilinearTaps cols = bilinear_taps(out.width(), src.width());
  const BilinearTaps rows = bilinear_taps(out.height(), src.height());
  const std::size_t w = cols.weight.size();
  std::array<std::vector<float>, 2> cache{std::vector<float>(w),
                                          std::vector<float>(w)};
  std::array<int, 2> cached_row{-1, -1};
  // Returns the horizontal lerp of source row r, evicting the slot that
  // does not hold row `keep` (the other row the current output row needs).
  auto lerp_row = [&](int r, int keep) -> const float* {
    for (std::size_t s = 0; s < 2; ++s) {
      if (cached_row[s] == r) return cache[s].data();
    }
    const std::size_t s = cached_row[0] == keep ? 1 : 0;
    const float* in = row_ptr(src, r);
    float* line = cache[s].data();
    for (std::size_t x = 0; x < w; ++x) {
      const float v0 = in[cols.lo[x]];
      const float v1 = in[cols.hi[x]];
      line[x] = v0 + cols.weight[x] * (v1 - v0);
    }
    cached_row[s] = r;
    return line;
  };
  float* o = out.data().data();
  for (std::size_t y = 0; y < rows.weight.size(); ++y) {
    const float* top = lerp_row(rows.lo[y], rows.hi[y]);
    const float* bot = lerp_row(rows.hi[y], rows.lo[y]);
    const float wy = rows.weight[y];
    for (std::size_t x = 0; x < w; ++x) *o++ = top[x] + wy * (bot[x] - top[x]);
  }
}

}  // namespace

Image resize(const Image& src, int new_w, int new_h, ScaleFilter filter) {
  if (new_w <= 0 || new_h <= 0) {
    throw std::invalid_argument("resize: non-positive target dimensions");
  }
  if (src.empty()) throw std::invalid_argument("resize: empty source");
  Image out(new_w, new_h);
  if (filter == ScaleFilter::kNearest) {
    resize_nearest(src, out);
  } else {
    resize_bilinear(src, out);
  }
  return out;
}

double level_fraction(int level, int num_levels) {
  if (num_levels < 1) throw std::invalid_argument("level_fraction: num_levels < 1");
  if (level < 1 || level > num_levels) {
    throw std::invalid_argument("level_fraction: level out of range");
  }
  if (num_levels == 1) return 1.0;
  // Smallest level keeps 1/num_levels of the linear size; the largest keeps
  // everything.
  return static_cast<double>(level) / static_cast<double>(num_levels);
}

Image scale_to_level(const Image& src, int level, int num_levels,
                     ScaleFilter filter) {
  const double f = level_fraction(level, num_levels);
  const int w = std::max(1, static_cast<int>(std::lround(src.width() * f)));
  const int h = std::max(1, static_cast<int>(std::lround(src.height() * f)));
  if (w == src.width() && h == src.height()) return src;
  return resize(src, w, h, filter);
}

Image round_trip(const Image& src, int level, int num_levels, ScaleFilter filter) {
  const Image down = scale_to_level(src, level, num_levels, filter);
  if (down.width() == src.width() && down.height() == src.height()) return down;
  return resize(down, src.width(), src.height(), filter);
}

std::size_t level_payload_bytes(int width, int height, int level, int num_levels) {
  const double f = level_fraction(level, num_levels);
  const auto w = static_cast<std::size_t>(
      std::max(1, static_cast<int>(std::lround(width * f))));
  const auto h = static_cast<std::size_t>(
      std::max(1, static_cast<int>(std::lround(height * f))));
  return w * h;  // one byte per pixel
}

}  // namespace rt::img
