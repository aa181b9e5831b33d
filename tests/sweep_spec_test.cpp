// Sweep-spec parsing, canonicalization and cache keying
// (service/sweep_spec.hpp, service/artifact_cache.hpp).
#include "service/sweep_spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "service/artifact_cache.hpp"
#include "util/hash.hpp"
#include "util/ini.hpp"

namespace m2hew::service {
namespace {

constexpr const char* kBaseSpec = R"(
[experiment]
name = spec_test
algorithm = alg3
delta-est = 4
trials = 5
seed = 9
max-slots = 200000
sweep-key = overlap
sweep-values = 4 2

[scenario]
topology = line
channels = chain
n = 8
set-size = 4
)";

[[nodiscard]] SweepSpec parse_or_die(const std::string& text) {
  const util::IniFile ini = util::IniFile::parse_string(text);
  SweepSpec spec;
  std::string error;
  EXPECT_TRUE(parse_sweep_spec(ini, spec, &error)) << error;
  return spec;
}

[[nodiscard]] std::string parse_error_of(const std::string& text) {
  const util::IniFile ini = util::IniFile::parse_string(text);
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(parse_sweep_spec(ini, spec, &error));
  return error;
}

TEST(SweepSpec, ParsesEveryField) {
  const SweepSpec spec = parse_or_die(kBaseSpec);
  EXPECT_EQ(spec.name, "spec_test");
  EXPECT_EQ(spec.algorithm, "alg3");
  EXPECT_EQ(spec.delta_est, 4u);
  EXPECT_EQ(spec.trials, 5u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.max_slots, 200000u);
  EXPECT_EQ(spec.kernel, runner::SyncKernel::kEngine);
  EXPECT_EQ(spec.sweep_key, "overlap");
  ASSERT_EQ(spec.sweep_values.size(), 2u);
  EXPECT_EQ(spec.scenario.n, 8u);
  EXPECT_EQ(spec.scenario.channels, runner::ChannelKind::kChainOverlap);
}

TEST(SweepSpec, RejectsBadInput) {
  EXPECT_NE(parse_error_of("[experiment]\nalgorithm = alg9\n"), "");
  EXPECT_NE(parse_error_of("[experiment]\ntrials = 0\n"), "");
  EXPECT_NE(parse_error_of("[experiment]\ntrials = many\n"), "");
  EXPECT_NE(parse_error_of("[experiment]\nmax-slots = 0\n"), "");
  EXPECT_NE(parse_error_of("[experiment]\nkernel = gpu\n"), "");
  EXPECT_NE(parse_error_of("[experiment]\nkernel = soa\n"
                           "algorithm = adaptive\n"),
            "");
  EXPECT_NE(parse_error_of("[experiment]\nbanana = 1\n"), "");
  EXPECT_NE(parse_error_of("[scenario]\nbanana = 1\n"), "");
  EXPECT_NE(parse_error_of("[scenario]\nn = minus-two\n"), "");
  EXPECT_NE(parse_error_of("[scenario]\ntopology = moebius\n"), "");
  EXPECT_NE(parse_error_of("[faults]\nbanana = 1\n"), "");
  EXPECT_NE(parse_error_of("[experimnet]\nname = typo\n"), "");
  EXPECT_NE(parse_error_of("name = outside-any-section\n"), "");
  // Sweep points are validated at parse time, not mid-run.
  EXPECT_NE(parse_error_of("[experiment]\nsweep-key = banana\n"
                           "sweep-values = 1 2\n"),
            "");
}

TEST(SweepSpec, CanonicalizationIgnoresFormattingOnly) {
  const SweepSpec base = parse_or_die(kBaseSpec);

  // Reordered keys and sections, comments, blank lines, crazy whitespace.
  const SweepSpec shuffled = parse_or_die(R"(
; a comment
[scenario]
set-size  =   4
n=8
channels = chain
topology = line

# comment between sections
[experiment]
sweep-values =    4     2
sweep-key = overlap
max-slots = 200000
seed=9
trials = 5
delta-est = 4
algorithm = alg3
name = spec_test
)");
  EXPECT_EQ(base.canonical(), shuffled.canonical());
  EXPECT_EQ(scenario_hash(base), scenario_hash(shuffled));

  // Writing a default out explicitly is the same spec.
  const SweepSpec with_default =
      parse_or_die(std::string(kBaseSpec) + "universe = 8\n");
  EXPECT_EQ(scenario_hash(base), scenario_hash(with_default));
}

TEST(SweepSpec, HashCoversEveryEffectiveParameter) {
  const std::uint64_t base = scenario_hash(parse_or_die(kBaseSpec));
  const auto changed = [&](const std::string& extra) {
    return scenario_hash(parse_or_die(std::string(kBaseSpec) + extra));
  };
  EXPECT_NE(base, changed("universe = 16\n"));
  EXPECT_NE(base, changed("[experiment]\nseed = 10\n"));
  EXPECT_NE(base, changed("[experiment]\ntrials = 6\n"));
  EXPECT_NE(base, changed("[experiment]\nkernel = soa\n"));
  EXPECT_NE(base, changed("[experiment]\nname = other\n"));
  EXPECT_NE(base, changed("[faults]\ncrash-prob = 0.2\n"));
  // ini parse keeps the LAST assignment of a repeated key, so the
  // appended [experiment]/[scenario] lines above genuinely took effect.
}

TEST(SweepSpec, HashCoversBinaryVersion) {
  const SweepSpec spec = parse_or_die(kBaseSpec);
  const std::uint64_t before = scenario_hash(spec);
  ::setenv("M2HEW_BINARY_VERSION", "spec-test-fake-version", 1);
  const std::uint64_t after = scenario_hash(spec);
  ::unsetenv("M2HEW_BINARY_VERSION");
  EXPECT_NE(before, after);
  EXPECT_EQ(scenario_hash(spec), before);  // env restored -> key restored
}

constexpr const char* kMobileSpec = R"(
[experiment]
name = mobile_test
algorithm = alg3
delta-est = 8
trials = 4
seed = 3
max-slots = 2000
sweep-key = ud-radius
sweep-values = 0.3 0.4

[scenario]
topology = unit-disk
channels = uniform
n = 12
universe = 8
set-size = 4

[mobility]
epochs = 4
epoch-slots = 100
speed-min = 0.01
speed-max = 0.05
pause-epochs = 1
duty-on = 1
duty-period = 2
)";

TEST(SweepSpec, MobilityParsesAndCanonicalizes) {
  const SweepSpec spec = parse_or_die(kMobileSpec);
  EXPECT_TRUE(spec.mobility.enabled);
  EXPECT_EQ(spec.mobility.epochs, 4u);
  EXPECT_EQ(spec.mobility.epoch_slots, 100u);
  EXPECT_DOUBLE_EQ(spec.mobility.speed_min, 0.01);
  EXPECT_DOUBLE_EQ(spec.mobility.speed_max, 0.05);
  EXPECT_EQ(spec.mobility.pause_epochs, 1u);
  EXPECT_EQ(spec.mobility.duty_on, 1u);
  EXPECT_EQ(spec.mobility.duty_period, 2u);

  // The canonical form renders the mobility block, so mobile and static
  // specs can never alias in the artifact cache; a section written in a
  // different key order canonicalizes identically.
  EXPECT_NE(spec.canonical().find("[mobility]"), std::string::npos);
  EXPECT_NE(spec.canonical().find("epoch-slots = 100"), std::string::npos);
  const SweepSpec reordered = parse_or_die(R"(
[mobility]
duty-period = 2
duty-on = 1
pause-epochs = 1
speed-max = 0.05
speed-min = 0.01
epoch-slots = 100
epochs = 4

[scenario]
set-size = 4
universe = 8
n = 12
channels = uniform
topology = unit-disk

[experiment]
sweep-values = 0.3 0.4
sweep-key = ud-radius
max-slots = 2000
seed = 3
trials = 4
delta-est = 8
algorithm = alg3
name = mobile_test
)");
  EXPECT_EQ(spec.canonical(), reordered.canonical());
  EXPECT_EQ(scenario_hash(spec), scenario_hash(reordered));
}

TEST(SweepSpec, MobilityAffectsTheCacheKey) {
  const std::uint64_t base = scenario_hash(parse_or_die(kMobileSpec));
  const auto changed = [&](const std::string& extra) {
    return scenario_hash(parse_or_die(std::string(kMobileSpec) + extra));
  };
  EXPECT_NE(base, changed("[mobility]\nspeed-max = 0.1\n"));
  EXPECT_NE(base, changed("[mobility]\nepochs = 8\n"));
  EXPECT_NE(base, changed("[mobility]\nduty-period = 4\n"));
}

TEST(SweepSpec, MobilityValidation) {
  // The provider needs the unit-disk square and position-independent
  // channels; duty cycling wraps policy objects so it needs the engine
  // kernel; topology/channel-kind sweeps make no sense while mobility
  // regenerates the link set.
  EXPECT_NE(parse_error_of("[scenario]\ntopology = line\n"
                           "[mobility]\nepochs = 2\n"),
            "");
  EXPECT_NE(parse_error_of("[scenario]\ntopology = unit-disk\n"
                           "channels = chain\n"
                           "[mobility]\nepochs = 2\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[experiment]\nkernel = soa\n"),
            "");
  // Full-duty soa IS allowed: the restriction is only the duty wrapper.
  const SweepSpec soa_full_duty = parse_or_die(
      std::string(kMobileSpec) + "[experiment]\nkernel = soa\n"
                                 "[mobility]\nduty-period = 1\n");
  EXPECT_EQ(soa_full_duty.kernel, runner::SyncKernel::kSoa);
  // Bad mobility ranges fail at submission.
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[mobility]\nepoch-slots = 0\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[mobility]\nspeed-min = 0.2\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[mobility]\nduty-on = 3\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kMobileSpec) +
                           "[mobility]\nbanana = 1\n"),
            "");
}

constexpr const char* kAdversarySpec = R"(
[experiment]
name = adversary_test
algorithm = alg3
delta-est = 24
trials = 4
seed = 7
max-slots = 4000
sweep-key = ud-radius
sweep-values = 0.4 0.5

[scenario]
topology = unit-disk
channels = uniform
n = 12
universe = 6
set-size = 6

[adversary]
fraction = 0.25
attack = byzantine
byzantine-tx = 0.9
victim-fraction = 0.5
trust = 1
trust-threshold = 0.3
trust-reward = 0.02
trust-rate-penalty = 0.35
trust-decay = 0.999
trust-rate-window = 128
trust-max-per-window = 6
trust-block-slots = 4000
trust-entry-window = 8000
)";

TEST(SweepSpec, AdversaryParsesAndCanonicalizes) {
  const SweepSpec spec = parse_or_die(kAdversarySpec);
  EXPECT_DOUBLE_EQ(spec.faults.adversary.fraction, 0.25);
  EXPECT_EQ(spec.faults.adversary.attack, sim::AdversaryAttack::kByzantine);
  EXPECT_DOUBLE_EQ(spec.faults.adversary.byzantine_tx, 0.9);
  EXPECT_DOUBLE_EQ(spec.faults.adversary.victim_fraction, 0.5);
  EXPECT_TRUE(spec.trust.enabled);
  EXPECT_DOUBLE_EQ(spec.trust.threshold, 0.3);
  EXPECT_DOUBLE_EQ(spec.trust.reward, 0.02);
  EXPECT_DOUBLE_EQ(spec.trust.rate_penalty, 0.35);
  EXPECT_DOUBLE_EQ(spec.trust.decay, 0.999);
  EXPECT_EQ(spec.trust.rate_window, 128u);
  EXPECT_EQ(spec.trust.max_per_window, 6u);
  EXPECT_EQ(spec.trust.block_slots, 4000u);
  EXPECT_EQ(spec.trust.entry_window, 8000u);

  // The canonical form renders the adversary block, so attacked and clean
  // specs can never alias in the artifact cache; a section written in a
  // different key order canonicalizes identically.
  EXPECT_NE(spec.canonical().find("[adversary]"), std::string::npos);
  EXPECT_NE(spec.canonical().find("attack = byzantine"), std::string::npos);
  EXPECT_NE(spec.canonical().find("trust = 1"), std::string::npos);
  const SweepSpec reordered = parse_or_die(R"(
[adversary]
trust-entry-window = 8000
trust-block-slots = 4000
trust-max-per-window = 6
trust-rate-window = 128
trust-decay = 0.999
trust-rate-penalty = 0.35
trust-reward = 0.02
trust-threshold = 0.3
trust = 1
victim-fraction = 0.5
byzantine-tx = 0.9
attack = byzantine
fraction = 0.25

[scenario]
set-size = 6
universe = 6
n = 12
channels = uniform
topology = unit-disk

[experiment]
sweep-values = 0.4 0.5
sweep-key = ud-radius
max-slots = 4000
seed = 7
trials = 4
delta-est = 24
algorithm = alg3
name = adversary_test
)");
  EXPECT_EQ(spec.canonical(), reordered.canonical());
  EXPECT_EQ(scenario_hash(spec), scenario_hash(reordered));
}

TEST(SweepSpec, AdversaryAffectsTheCacheKey) {
  const std::uint64_t base = scenario_hash(parse_or_die(kAdversarySpec));
  const auto changed = [&](const std::string& extra) {
    return scenario_hash(parse_or_die(std::string(kAdversarySpec) + extra));
  };
  EXPECT_NE(base, changed("[adversary]\nfraction = 0.4\n"));
  EXPECT_NE(base, changed("[adversary]\nattack = mix\n"));
  EXPECT_NE(base, changed("[adversary]\nbyzantine-tx = 0.5\n"));
  EXPECT_NE(base, changed("[adversary]\ntrust = 0\n"));
  EXPECT_NE(base, changed("[adversary]\ntrust-threshold = 0.4\n"));
}

TEST(SweepSpec, AdversaryValidation) {
  // Unknown keys and malformed values must come back as recoverable
  // diagnostics — a daemon-submitted spec must never reach the aborting
  // CHECKs inside validate_fault_plan / validate_trust_config.
  EXPECT_NE(parse_error_of("[adversary]\nbanana = 1\n"), "");
  EXPECT_NE(parse_error_of("[adversary]\nfraction = lots\n"), "");
  EXPECT_NE(parse_error_of("[adversary]\nfraction = 1.5\n"), "");
  EXPECT_NE(parse_error_of("[adversary]\nattack = meteor\n"), "");
  EXPECT_NE(parse_error_of("[adversary]\nfraction = 0.2\n"
                           "byzantine-tx = 0\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kAdversarySpec) +
                           "[adversary]\ntrust-decay = 0\n"),
            "");
  EXPECT_NE(parse_error_of(std::string(kAdversarySpec) +
                           "[adversary]\ntrust-rate-window = 0\n"),
            "");
  // The trust wrapper needs per-node policy objects, which only the engine
  // kernel materializes.
  EXPECT_NE(parse_error_of(std::string(kAdversarySpec) +
                           "[experiment]\nkernel = soa\n"),
            "");
  // Untrusted adversaries on the SoA kernel ARE allowed: the adversary
  // model itself is honored by every execution path.
  const SweepSpec soa_untrusted = parse_or_die(
      std::string(kAdversarySpec) + "[experiment]\nkernel = soa\n"
                                    "[adversary]\ntrust = 0\n");
  EXPECT_EQ(soa_untrusted.kernel, runner::SyncKernel::kSoa);
  EXPECT_DOUBLE_EQ(soa_untrusted.faults.adversary.fraction, 0.25);
}

TEST(SweepSpec, FormatSweepValue) {
  EXPECT_EQ(format_sweep_value(4.0), "4");
  EXPECT_EQ(format_sweep_value(0.25), "0.25");
  EXPECT_EQ(format_sweep_value(-3.0), "-3");
}

TEST(SweepSpec, CheckedInSpecsKeepTheirCacheKeys) {
  // fnv1a64 of canonical() for every checked-in spec and the experiment
  // tool's smoke spec. Both front ends parse with parse_sweep_spec, so
  // this also proves both accept all of them; a change to a value here
  // re-keys every cached artifact of that spec.
  const std::pair<std::string, std::uint64_t> kPins[] = {
      {M2HEW_SOURCE_DIR "/experiments/asymmetry_sweep.ini",
       0x4b38bb237fb45d93},
      {M2HEW_SOURCE_DIR "/experiments/churn_stress.ini", 0xb7e9f45e66be19cd},
      {M2HEW_SOURCE_DIR "/experiments/density_sweep.ini",
       0xd9ba2826cdce0540},
      {M2HEW_SOURCE_DIR "/experiments/mobility_contact.ini",
       0x548c713396cd0444},
      {M2HEW_SOURCE_DIR "/experiments/rho_sweep.ini", 0x4e9a0b1a1d0aa02d},
      {M2HEW_SOURCE_DIR "/experiments/tournament.ini", 0x478ac804e898ef42},
      {M2HEW_SMOKE_SWEEP_INI, 0xaae952e61a824e90},
  };
  for (const auto& [path, pin] : kPins) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    util::IniParseError parse_error;
    const util::IniFile ini = util::IniFile::parse(in, &parse_error);
    ASSERT_TRUE(parse_error.ok()) << path << ": " << parse_error.message;
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(parse_sweep_spec(ini, spec, &error)) << path << ": " << error;
    EXPECT_EQ(util::fnv1a64(spec.canonical()), pin) << path;
  }
}

TEST(ArtifactCache, HitMissStoreAndInvalidation) {
  char tmpl[] = "/tmp/m2hew_cache_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = std::string(tmpl) + "/cache";
  const ArtifactCache cache(dir);

  const SweepSpec spec = parse_or_die(kBaseSpec);
  const std::string key = scenario_hash_hex(spec);
  EXPECT_FALSE(cache.contains(key));  // cold cache: miss

  ASSERT_TRUE(cache.store(key, "{\"bench\": \"spec_test\"}\n"));
  EXPECT_TRUE(cache.contains(key));  // warm cache: hit
  {
    std::ifstream in(cache.path_for(key));
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content, "{\"bench\": \"spec_test\"}");
  }

  // A different effective spec — and the same spec under a different
  // binary version — address different entries (natural invalidation).
  const SweepSpec other =
      parse_or_die(std::string(kBaseSpec) + "[experiment]\nseed = 10\n");
  EXPECT_FALSE(cache.contains(scenario_hash_hex(other)));
  ::setenv("M2HEW_BINARY_VERSION", "rebuilt", 1);
  EXPECT_FALSE(cache.contains(scenario_hash_hex(spec)));
  ::unsetenv("M2HEW_BINARY_VERSION");
  EXPECT_TRUE(cache.contains(scenario_hash_hex(spec)));
}

}  // namespace
}  // namespace m2hew::service
