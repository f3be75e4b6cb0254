#include "casestudy/case_study.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "core/schedulability.hpp"

namespace rt::casestudy {
namespace {

TEST(WeightPermutations, TwentyFourUniqueLexicographic) {
  const auto perms = weight_permutations();
  ASSERT_EQ(perms.size(), 24u);
  std::set<std::array<double, 4>> unique(perms.begin(), perms.end());
  EXPECT_EQ(unique.size(), 24u);
  // Each permutation uses exactly the weights {1,2,3,4}.
  for (const auto& p : perms) {
    std::array<double, 4> sorted = p;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::array<double, 4>{1.0, 2.0, 3.0, 4.0}));
  }
  // Lexicographic order: first is identity, last is reversed.
  EXPECT_EQ(perms.front(), (std::array<double, 4>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(perms.back(), (std::array<double, 4>{4.0, 3.0, 2.0, 1.0}));
}

TEST(CaseStudy, TaskSetIsLocallyFeasibleAndValid) {
  CaseStudyConfig cfg;
  cfg.image_width = 320;
  cfg.image_height = 240;
  cfg.samples_per_level = 32;
  const CaseStudy study = build_case_study(cfg);
  const core::TaskSet tasks = study.task_set();
  ASSERT_EQ(tasks.size(), 4u);
  EXPECT_NO_THROW(core::validate_task_set(tasks));
  // Paper Section 6.1.3: deadlines are chosen so all tasks fit locally.
  EXPECT_TRUE(core::theorem3_feasible(tasks, core::all_local(4)));
}

TEST(CaseStudy, RequestProfileAlignsWithBenefitLevels) {
  CaseStudyConfig cfg;
  cfg.image_width = 320;
  cfg.image_height = 240;
  cfg.samples_per_level = 32;
  const CaseStudy study = build_case_study(cfg);
  const sim::RequestProfile profile = study.request_profile();
  ASSERT_EQ(profile.size(), study.tasks.size());
  for (std::size_t i = 0; i < profile.size(); ++i) {
    ASSERT_EQ(profile[i].size(), study.tasks[i].task.benefit.size());
    EXPECT_EQ(profile[i][0].payload_bytes, 0u);  // local level carries nothing
    for (std::size_t j = 1; j < profile[i].size(); ++j) {
      EXPECT_GT(profile[i][j].payload_bytes, 0u);
      EXPECT_TRUE(profile[i][j].compute_time.is_positive());
      EXPECT_EQ(profile[i][j].stream_id, i);
    }
  }
}

TEST(CaseStudy, PerLevelSetupWcetsGrowWithPayload) {
  CaseStudyConfig cfg;
  cfg.image_width = 320;
  cfg.image_height = 240;
  cfg.samples_per_level = 32;
  const CaseStudy study = build_case_study(cfg);
  for (const auto& t : study.tasks) {
    const auto& setup = t.task.setup_wcet_per_level;
    ASSERT_EQ(setup.size(), t.task.benefit.size());
    for (std::size_t j = 2; j < setup.size(); ++j) {
      EXPECT_GT(setup[j], setup[j - 1]) << t.task.name;
    }
    // Compensation is the local-version WCET at every level (paper's rule).
    for (std::size_t j = 1; j < t.task.compensation_wcet_per_level.size(); ++j) {
      EXPECT_EQ(t.task.compensation_wcet_per_level[j], t.task.local_wcet);
    }
  }
}

TEST(CaseStudy, ConfigValidation) {
  CaseStudyConfig cfg;
  cfg.num_levels = 1;
  EXPECT_THROW(build_case_study(cfg), std::invalid_argument);
}

// The default study feeds Table 1 and Figure 2. Its per-level PSNRs and
// estimated response times are pinned bit for bit, so a change to the image
// kernels, the scene generator or the estimator that flips a single bit of
// the reports fails here rather than only in the report digests.
TEST(CaseStudy, DefaultConfigPsnrAndResponsesArePinned) {
  const CaseStudy study = build_case_study();
  const std::array<std::vector<double>, 4> psnr{{
      {0x1.d94a4c9eb3207p+4, 0x1.fa075e92ed69p+4, 0x1.02a620a611cap+5,
       0x1.0c25cbdf72b74p+5, 0x1.8cp+6},
      {0x1.9a13931f2a755p+4, 0x1.ad583ade966e3p+4, 0x1.b21183a23c98fp+4,
       0x1.c22d178477917p+4, 0x1.8cp+6},
      {0x1.9625c4073823p+4, 0x1.ab38cba79fc56p+4, 0x1.b0cfd5ff90c8dp+4,
       0x1.c15996c3bf75dp+4, 0x1.8cp+6},
      {0x1.1d65d18246f48p+5, 0x1.3a502c8823026p+5, 0x1.4ba3c880fdd83p+5,
       0x1.5d8ece28b98b4p+5, 0x1.8cp+6},
  }};
  const std::array<std::vector<std::int64_t>, 4> response_ns{{
      {0, 201013719, 445418334, 779269097, 1220287749},
      {0, 172166162, 381642393, 675600334, 1046539673},
      {0, 193216327, 422803661, 742710263, 1166953686},
      {0, 169059428, 370494022, 650582850, 997402820},
  }};
  ASSERT_EQ(study.tasks.size(), 4u);
  for (std::size_t i = 0; i < study.tasks.size(); ++i) {
    const CaseStudyTask& t = study.tasks[i];
    EXPECT_EQ(t.psnr, psnr[i]) << t.task.name;
    ASSERT_EQ(t.task.benefit.size(), response_ns[i].size()) << t.task.name;
    for (std::size_t j = 0; j < t.task.benefit.size(); ++j) {
      EXPECT_EQ(t.task.benefit.point(j).response_time.ns(), response_ns[i][j])
          << t.task.name << " level point " << j;
    }
  }
}

}  // namespace
}  // namespace rt::casestudy
