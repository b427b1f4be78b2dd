#include "telescope/noise.h"

#include <gtest/gtest.h>

#include "attack/schedule.h"
#include "telescope/feed.h"

namespace ddos::telescope {
namespace {

using netsim::IPv4Addr;

TEST(IbrNoise, GeneratesExpectedVolume) {
  IbrNoiseParams params;
  const auto noise =
      generate_ibr_noise(params, 0, 999, Darknet::ucsd_like());
  // ~43 sources/window over 1000 windows.
  EXPECT_GT(noise.size(), 35000u);
  EXPECT_LT(noise.size(), 52000u);
  for (const auto& bw : noise) {
    EXPECT_GE(bw.window, 0);
    EXPECT_LE(bw.window, 999);
    EXPECT_GT(bw.packets, 0u);
    EXPECT_GE(bw.distinct_slash16, 1u);
  }
}

TEST(IbrNoise, ThresholdsRejectAlmostEverything) {
  IbrNoiseParams params;
  const auto noise =
      generate_ibr_noise(params, 0, 1999, Darknet::ucsd_like());
  const double rate = rejection_rate(noise, InferenceParams{});
  // Moore et al.'s thresholds exist for this: >= 99.8% of IBR noise falls
  // below them; only the rare flicker survives.
  EXPECT_GT(rate, 0.998);
  EXPECT_LT(rate, 1.0);  // the false-positive floor is not zero
}

TEST(IbrNoise, MisconfigurationsFailTheSpreadThreshold) {
  IbrNoiseParams params;
  params.residual_sources_per_window = 0.0;
  params.flicker_sources_per_window = 0.0;
  const auto noise =
      generate_ibr_noise(params, 0, 499, Darknet::ucsd_like());
  ASSERT_FALSE(noise.empty());
  for (const auto& bw : noise) {
    EXPECT_FALSE(passes_thresholds(bw, InferenceParams{}))
        << "packets=" << bw.packets << " spread=" << bw.distinct_slash16;
  }
}

TEST(IbrNoise, ResidualsFailThePacketThreshold) {
  IbrNoiseParams params;
  params.misconfig_sources_per_window = 0.0;
  params.flicker_sources_per_window = 0.0;
  const auto noise =
      generate_ibr_noise(params, 0, 199, Darknet::ucsd_like());
  ASSERT_FALSE(noise.empty());
  for (const auto& bw : noise) {
    EXPECT_FALSE(passes_thresholds(bw, InferenceParams{}));
  }
}

TEST(IbrNoise, NoiseDoesNotPerturbAttackInference) {
  // A real attack plus a sea of noise: the feed must recover the attack
  // and nothing but the attack (modulo the tiny flicker floor).
  attack::AttackSchedule schedule;
  attack::AttackSpec spec;
  spec.target = IPv4Addr(7, 7, 7, 7);
  spec.start = netsim::SimTime(0);
  spec.duration_s = 3600;
  spec.peak_pps = 80e3;
  spec.steady = true;
  schedule.add(spec);

  RSDoSFeed feed{InferenceParams{}, attack::BackscatterModelParams{}};
  feed.ingest(schedule, Darknet::ucsd_like(), 3);
  const std::size_t clean_records = feed.records().size();

  IbrNoiseParams noise_params;
  noise_params.flicker_sources_per_window = 0.0;
  for (const auto& bw :
       generate_ibr_noise(noise_params, 0, 11, Darknet::ucsd_like())) {
    if (passes_thresholds(bw, feed.inference())) {
      const RSDoSRecord rec = to_record(bw);
      feed.add_records({&rec, 1});
    }
  }
  EXPECT_EQ(feed.records().size(), clean_records);  // all noise rejected
  const auto events = feed.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].victim, IPv4Addr(7, 7, 7, 7));
}

TEST(IbrNoise, Deterministic) {
  IbrNoiseParams params;
  const auto a = generate_ibr_noise(params, 0, 99, Darknet::ucsd_like());
  const auto b = generate_ibr_noise(params, 0, 99, Darknet::ucsd_like());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].victim, b[i].victim);
    EXPECT_EQ(a[i].packets, b[i].packets);
  }
}

TEST(IbrNoise, RejectionRateEdgeCases) {
  EXPECT_DOUBLE_EQ(rejection_rate({}, InferenceParams{}), 0.0);
}

}  // namespace
}  // namespace ddos::telescope
