// Image-kernel throughput (google-benchmark, BENCH_img.json).
//
// Table 1 and Figure 2 take their benefits from the PSNR of down-then-up
// scaled 1600x1200 camera images: each case study runs 16 non-trivial
// bilinear round trips and 20 PSNR passes, which is most of its build time.
// This suite times the two kernels on one case-study scene:
//
//   * BM_RoundTrip/<level> -- img::round_trip to level 1..4 of 5 and back;
//   * BM_Psnr              -- img::psnr of two 1600x1200 images.
//
// bytes_per_second counts the float pixels each call reads and writes.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "img/image.hpp"
#include "img/quality.hpp"
#include "img/scale.hpp"
#include "json_summary_gbench.hpp"

namespace {

constexpr int kWidth = 1600;
constexpr int kHeight = 1200;
constexpr int kNumLevels = 5;

// The edge-detection task's scene in the default case study (seed 2014,
// task index 1).
const rt::img::Image& scene() {
  static const rt::img::Image im =
      rt::img::make_scene(kWidth, kHeight, {.seed = 2015});
  return im;
}

std::int64_t image_bytes(const rt::img::Image& im) {
  return static_cast<std::int64_t>(im.size() * sizeof(float));
}

void BM_RoundTrip(benchmark::State& state) {
  const rt::img::Image& src = scene();
  const int level = static_cast<int>(state.range(0));
  const rt::img::Image down = rt::img::scale_to_level(src, level, kNumLevels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::img::round_trip(src, level, kNumLevels));
  }
  // Downscale reads src and writes down; upscale reads down and writes a
  // full-size image.
  state.SetBytesProcessed(state.iterations() *
                          2 * (image_bytes(src) + image_bytes(down)));
}
BENCHMARK(BM_RoundTrip)->DenseRange(1, kNumLevels - 1)->Unit(benchmark::kMillisecond);

void BM_Psnr(benchmark::State& state) {
  const rt::img::Image& src = scene();
  const rt::img::Image approx = rt::img::round_trip(src, 1, kNumLevels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::img::psnr(src, approx));
  }
  state.SetBytesProcessed(state.iterations() *
                          (image_bytes(src) + image_bytes(approx)));
}
BENCHMARK(BM_Psnr)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rtbench::run_with_json_summary(argc, argv, "BENCH_img.json");
}
