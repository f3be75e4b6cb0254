#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "img/quality.hpp"
#include "img/scale.hpp"

namespace rt::img {
namespace {

TEST(Resize, TargetDimensionsRespected) {
  const Image src = make_scene(100, 80, {.seed = 1});
  const Image down = resize(src, 25, 20);
  EXPECT_EQ(down.width(), 25);
  EXPECT_EQ(down.height(), 20);
  EXPECT_THROW(resize(src, 0, 10), std::invalid_argument);
  EXPECT_THROW(resize(Image{}, 10, 10), std::invalid_argument);
}

TEST(Resize, IdentitySizeKeepsContentApproximately) {
  const Image src = make_scene(64, 64, {.seed = 2});
  const Image same = resize(src, 64, 64);
  EXPECT_GT(psnr(src, same), 50.0);  // bilinear at 1:1 is near-lossless
}

TEST(Resize, NearestPreservesValueSet) {
  Image src(2, 2);
  src.at(0, 0) = 0.0f;
  src.at(1, 0) = 1.0f;
  src.at(0, 1) = 0.25f;
  src.at(1, 1) = 0.75f;
  const Image up = resize(src, 8, 8, ScaleFilter::kNearest);
  for (const float p : up.data()) {
    EXPECT_TRUE(p == 0.0f || p == 1.0f || p == 0.25f || p == 0.75f);
  }
}

// The per-pixel definition of resize: the center-aligned source coordinate
// sampled bilinearly, or rounded to the nearest clamped pixel.
float oracle_pixel(const Image& src, int new_w, int new_h, int x, int y,
                   ScaleFilter filter) {
  const float sx = static_cast<float>(src.width()) / static_cast<float>(new_w);
  const float sy = static_cast<float>(src.height()) / static_cast<float>(new_h);
  const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
  const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
  if (filter == ScaleFilter::kNearest) {
    return src.at_clamped(static_cast<int>(std::lround(fx)),
                          static_cast<int>(std::lround(fy)));
  }
  return src.sample_bilinear(fx, fy);
}

// Resizes src to new_w x new_h with both filters and expects every output
// pixel to equal the oracle bit for bit.
void expect_matches_oracle(const Image& src, int new_w, int new_h) {
  for (const ScaleFilter filter : {ScaleFilter::kBilinear, ScaleFilter::kNearest}) {
    const Image out = resize(src, new_w, new_h, filter);
    ASSERT_EQ(out.width(), new_w);
    ASSERT_EQ(out.height(), new_h);
    int mismatches = 0;
    for (int y = 0; y < new_h; ++y) {
      for (int x = 0; x < new_w; ++x) {
        const float want = oracle_pixel(src, new_w, new_h, x, y, filter);
        if (std::bit_cast<std::uint32_t>(out.at(x, y)) !=
            std::bit_cast<std::uint32_t>(want)) {
          if (mismatches++ == 0) {
            ADD_FAILURE() << src.width() << "x" << src.height() << " -> " << new_w
                          << "x" << new_h
                          << (filter == ScaleFilter::kNearest ? " nearest" : " bilinear")
                          << ": first mismatch at (" << x << ", " << y << "): "
                          << out.at(x, y) << " vs " << want;
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0);
  }
}

TEST(ResizeOracle, TinyAndDegenerateShapes) {
  // Every pair of small axis lengths, both ways: covers 1x1, 1xN, Nx1, 2x2
  // and the clamped edge taps on each side.
  const std::vector<int> lengths{1, 2, 3, 5, 8};
  for (const int sw : lengths) {
    for (const int sh : lengths) {
      const Image src = make_scene(sw, sh, {.seed = 11});
      for (const int dw : lengths) {
        for (const int dh : lengths) expect_matches_oracle(src, dw, dh);
      }
    }
  }
}

TEST(ResizeOracle, PrimeIdentityAndExactRatios) {
  const Image prime = make_scene(37, 29, {.seed = 12});
  expect_matches_oracle(prime, 37, 29);  // identity size
  expect_matches_oracle(prime, 17, 13);
  expect_matches_oracle(prime, 101, 53);
  expect_matches_oracle(prime, 29, 37);  // transposed aspect

  const Image even = make_scene(48, 32, {.seed = 13});
  expect_matches_oracle(even, 96, 64);  // exact 2x up
  expect_matches_oracle(even, 24, 16);  // exact 2x down
  expect_matches_oracle(even, 48, 32);
}

TEST(ResizeOracle, NonIntegerRatios) {
  const Image src = make_scene(70, 45, {.seed = 14});
  expect_matches_oracle(src, 33, 20);   // ~0.47x
  expect_matches_oracle(src, 99, 61);   // ~1.4x
  expect_matches_oracle(src, 71, 44);   // one pixel off identity
  expect_matches_oracle(src, 210, 17);  // up on one axis, down on the other
}

TEST(ResizeOracle, CaseStudyLevelRatiosOnACrop) {
  // The case study scales 1600x1200 to levels 1..4 of 5 (linear 1/5 .. 4/5)
  // and back; the same ratios on a 160x120 crop of a textured scene.
  const Image src = crop(make_scene(400, 300, {.seed = 15}), 120, 90, 160, 120);
  for (int level = 1; level < 5; ++level) {
    const Image down = scale_to_level(src, level, 5);
    expect_matches_oracle(src, down.width(), down.height());
    expect_matches_oracle(down, src.width(), src.height());
  }
}

TEST(LevelFraction, EndpointsAndValidation) {
  EXPECT_DOUBLE_EQ(level_fraction(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(level_fraction(1, 5), 0.2);
  EXPECT_DOUBLE_EQ(level_fraction(1, 1), 1.0);
  EXPECT_THROW(level_fraction(0, 5), std::invalid_argument);
  EXPECT_THROW(level_fraction(6, 5), std::invalid_argument);
  EXPECT_THROW(level_fraction(1, 0), std::invalid_argument);
}

TEST(ScaleToLevel, TopLevelIsOriginal) {
  const Image src = make_scene(60, 40, {.seed = 3});
  const Image top = scale_to_level(src, 5, 5);
  EXPECT_EQ(top, src);
  const Image small = scale_to_level(src, 1, 5);
  EXPECT_EQ(small.width(), 12);
  EXPECT_EQ(small.height(), 8);
}

TEST(RoundTrip, TopLevelIsLossless) {
  const Image src = make_scene(60, 40, {.seed = 4});
  EXPECT_DOUBLE_EQ(psnr(src, round_trip(src, 5, 5)), kPsnrCap);
}

TEST(RoundTrip, QualityIncreasesWithLevel) {
  // The core empirical fact behind Table 1: PSNR rises with scaling level.
  const Image src = make_scene(120, 90, {.seed = 5});
  double prev = 0.0;
  for (int level = 1; level <= 5; ++level) {
    const double q = psnr(src, round_trip(src, level, 5));
    EXPECT_GT(q, prev) << "level " << level;
    prev = q;
  }
  EXPECT_DOUBLE_EQ(prev, kPsnrCap);  // full resolution: capped
}

TEST(LevelPayloadBytes, ScalesQuadratically) {
  EXPECT_EQ(level_payload_bytes(100, 100, 5, 5), 10'000u);
  EXPECT_EQ(level_payload_bytes(100, 100, 1, 5), 400u);  // (20x20)
  EXPECT_GT(level_payload_bytes(100, 100, 3, 5),
            level_payload_bytes(100, 100, 2, 5));
}

TEST(Mse, ZeroForIdenticalImages) {
  const Image a = make_scene(32, 32, {.seed = 6});
  EXPECT_DOUBLE_EQ(mse(a, a), 0.0);
  EXPECT_DOUBLE_EQ(psnr(a, a), kPsnrCap);
}

TEST(Mse, KnownValue) {
  Image a(2, 1, 0.0f), b(2, 1);
  b.at(0, 0) = 0.5f;
  b.at(1, 0) = 0.0f;
  EXPECT_DOUBLE_EQ(mse(a, b), 0.125);
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(8.0), 1e-9);
}

TEST(Mse, DimensionMismatchThrows) {
  EXPECT_THROW(mse(Image(2, 2), Image(3, 2)), std::invalid_argument);
  EXPECT_THROW(mse(Image{}, Image{}), std::invalid_argument);
  EXPECT_THROW(psnr(Image(2, 2), Image(2, 3)), std::invalid_argument);
}

TEST(Psnr, MonotoneInNoise) {
  const Image src = make_scene(48, 48, {.seed = 7});
  Image mild = src, strong = src;
  for (std::size_t i = 0; i < src.size(); ++i) {
    mild.data()[i] += (i % 2 ? 0.01f : -0.01f);
    strong.data()[i] += (i % 2 ? 0.1f : -0.1f);
  }
  EXPECT_GT(psnr(src, mild), psnr(src, strong));
}

TEST(SsimGlobal, BoundsAndIdentity) {
  const Image a = make_scene(32, 32, {.seed = 8});
  EXPECT_NEAR(ssim_global(a, a), 1.0, 1e-9);
  Image noisy = a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    noisy.data()[i] = 1.0f - noisy.data()[i];  // inverted: anti-correlated
  }
  EXPECT_LT(ssim_global(a, noisy), 0.5);
}

}  // namespace
}  // namespace rt::img
