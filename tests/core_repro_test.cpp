// Tests for the reproducibility kernel: SHA-256 vectors, manifests, the
// hash-chained journal, tolerance comparison, environment capture, and the
// provenance graph.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "treu/core/compare.hpp"
#include "treu/core/env.hpp"
#include "treu/core/journal_io.hpp"
#include "treu/core/manifest.hpp"
#include "treu/core/provenance.hpp"
#include "treu/core/rng.hpp"
#include "treu/core/sha256.hpp"

namespace tc = treu::core;

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(tc::sha256("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(tc::sha256("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlockMessage) {
  EXPECT_EQ(
      tc::sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  tc::Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  tc::Sha256 h;
  h.update("hello ").update("world");
  EXPECT_EQ(h.finish().hex(), tc::sha256("hello world").hex());
}

TEST(Sha256, SplitAtBlockBoundary) {
  const std::string msg(130, 'x');
  tc::Sha256 h;
  h.update(std::string_view(msg).substr(0, 64));
  h.update(std::string_view(msg).substr(64));
  EXPECT_EQ(h.finish().hex(), tc::sha256(msg).hex());
}

// ---------------------------------------------------------------------------
// Two compression paths. The SHA-NI kernel and the portable loop must give
// the same digest for every input; the Fips180 tests above run whichever
// path this host selected, these pin the other one too.

std::vector<std::uint8_t> seeded_bytes(std::size_t n, std::uint64_t seed) {
  tc::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto &b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

tc::Digest digest_with(tc::detail::Sha256Compress compress,
                       std::span<const std::uint8_t> data) {
  return tc::Sha256(compress).update(data).finish();
}

TEST(Sha256TwoPath, DefaultIsShaNiWhenUsableElsePortable) {
  const auto shani = tc::detail::sha256_shani_compress();
  EXPECT_EQ(tc::detail::sha256_compress(),
            shani != nullptr ? shani : tc::detail::sha256_portable_compress());
}

TEST(Sha256TwoPath, PortableMatchesFipsVectors) {
  const auto portable = tc::detail::sha256_portable_compress();
  const auto text = [](std::string_view s) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
  };
  EXPECT_EQ(digest_with(portable, text("")).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_with(portable, text("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      digest_with(portable,
                  text("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256TwoPath, AgreeOnEveryLengthUpTo1024) {
  const auto shani = tc::detail::sha256_shani_compress();
  if (shani == nullptr) GTEST_SKIP() << "no SHA extensions on this host/build";
  const auto portable = tc::detail::sha256_portable_compress();
  const std::vector<std::uint8_t> msg = seeded_bytes(1024, 11);
  for (std::size_t n = 0; n <= msg.size(); ++n) {
    // An exact-size copy, so an overread past the message is a sanitizer
    // error rather than a read of the rest of `msg`.
    const std::vector<std::uint8_t> exact(msg.begin(), msg.begin() + n);
    ASSERT_EQ(digest_with(shani, exact), digest_with(portable, exact))
        << "length " << n;
  }
}

TEST(Sha256TwoPath, AgreeOnOneMebibyte) {
  const auto shani = tc::detail::sha256_shani_compress();
  if (shani == nullptr) GTEST_SKIP() << "no SHA extensions on this host/build";
  const std::vector<std::uint8_t> msg = seeded_bytes(std::size_t{1} << 20, 12);
  EXPECT_EQ(digest_with(shani, msg),
            digest_with(tc::detail::sha256_portable_compress(), msg));
}

TEST(Sha256TwoPath, AgreeOnSeededRandomUpdateSplits) {
  const auto shani = tc::detail::sha256_shani_compress();
  if (shani == nullptr) GTEST_SKIP() << "no SHA extensions on this host/build";
  const auto portable = tc::detail::sha256_portable_compress();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    tc::Rng rng(seed, 99);
    const std::vector<std::uint8_t> msg =
        seeded_bytes(rng.uniform_index(4096), seed);
    const tc::Digest want = digest_with(portable, msg);
    // The same split fed to both paths, each chunk 0..199 bytes.
    tc::Sha256 a(shani);
    tc::Sha256 b(portable);
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take = std::min<std::size_t>(
          msg.size() - off, rng.uniform_index(200));
      const auto chunk = std::span<const std::uint8_t>(msg).subspan(off, take);
      a.update(chunk);
      b.update(chunk);
      off += take;
    }
    const tc::Digest got_a = a.finish();
    const tc::Digest got_b = b.finish();
    EXPECT_EQ(got_a, want) << "seed " << seed << ", " << msg.size() << " B";
    EXPECT_EQ(got_b, want) << "seed " << seed << ", " << msg.size() << " B";
  }
}

TEST(Digest, HexRoundTrip) {
  const tc::Digest d = tc::sha256("roundtrip");
  EXPECT_EQ(tc::Digest::from_hex(d.hex()), d);
}

TEST(Digest, FromHexRejectsBadInput) {
  EXPECT_THROW((void)tc::Digest::from_hex("abc"), std::invalid_argument);
  std::string bad(64, 'g');
  EXPECT_THROW((void)tc::Digest::from_hex(bad), std::invalid_argument);
}

TEST(Sha256Doubles, SensitiveToEveryBit) {
  std::vector<double> xs{1.0, 2.0, 3.0};
  const auto d1 = tc::sha256_doubles(xs);
  xs[1] = std::nextafter(2.0, 3.0);  // one ULP
  EXPECT_NE(tc::sha256_doubles(xs), d1);
}

TEST(Manifest, DigestIndependentOfInsertionOrder) {
  tc::Manifest a;
  a.name = "exp";
  a.set("alpha", 1.5).set("beta", std::int64_t{2});
  tc::Manifest b;
  b.name = "exp";
  b.set("beta", std::int64_t{2}).set("alpha", 1.5);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Manifest, DigestSensitiveToEveryField) {
  tc::Manifest base;
  base.name = "exp";
  base.seed = 1;
  base.set("k", 10.0);
  const auto d = base.digest();

  tc::Manifest renamed = base;
  renamed.name = "exp2";
  EXPECT_NE(renamed.digest(), d);

  tc::Manifest reseeded = base;
  reseeded.seed = 2;
  EXPECT_NE(reseeded.digest(), d);

  tc::Manifest retuned = base;
  retuned.set("k", 11.0);
  EXPECT_NE(retuned.digest(), d);
}

TEST(Manifest, CanonicalStringIsInjectiveOnFieldBoundaries) {
  // "ab"+"c" vs "a"+"bc" must not collide thanks to length prefixes.
  tc::Manifest a;
  a.name = "ab";
  a.description = "c";
  tc::Manifest b;
  b.name = "a";
  b.description = "bc";
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Manifest, GettersParseValues) {
  tc::Manifest m;
  m.set("pi", 3.5).set("n", std::int64_t{42}).set("tag", "hello");
  EXPECT_DOUBLE_EQ(m.get_double("pi", 0.0), 3.5);
  EXPECT_EQ(m.get_int("n", 0), 42);
  EXPECT_EQ(m.get("tag").value(), "hello");
  EXPECT_EQ(m.get_double("missing", -1.0), -1.0);
  EXPECT_FALSE(m.get("missing").has_value());
}

TEST(Journal, AppendAndVerifyIntact) {
  tc::Journal journal;
  tc::Manifest m;
  m.name = "run";
  for (int i = 0; i < 5; ++i) {
    tc::RunRecord rec;
    rec.manifest_digest = m.digest();
    rec.metrics["accuracy"] = 0.9 + 0.01 * i;
    journal.append(rec);
  }
  EXPECT_EQ(journal.size(), 5u);
  EXPECT_FALSE(journal.verify().has_value());
}

TEST(Journal, TamperingIsDetectedAtTheRightIndex) {
  tc::Journal journal;
  tc::Manifest m;
  m.name = "run";
  for (int i = 0; i < 6; ++i) {
    tc::RunRecord rec;
    rec.manifest_digest = m.digest();
    rec.metrics["loss"] = 1.0 / (i + 1);
    journal.append(rec);
  }
  journal.tamper_with_record(3, "edited after the fact");
  const auto broken = journal.verify();
  ASSERT_TRUE(broken.has_value());
  EXPECT_EQ(*broken, 3u);
}

TEST(Journal, HeadChangesWithEveryAppend) {
  tc::Journal journal;
  const auto genesis = journal.head();
  tc::RunRecord rec;
  const auto h1 = journal.append(rec);
  EXPECT_NE(h1, genesis);
  const auto h2 = journal.append(rec);
  EXPECT_NE(h2, h1);  // same record, different chain position
}

TEST(Journal, RunsOfFiltersByManifest) {
  tc::Journal journal;
  tc::Manifest a;
  a.name = "a";
  tc::Manifest b;
  b.name = "b";
  tc::RunRecord ra;
  ra.manifest_digest = a.digest();
  tc::RunRecord rb;
  rb.manifest_digest = b.digest();
  journal.append(ra);
  journal.append(rb);
  journal.append(ra);
  EXPECT_EQ(journal.runs_of(a.digest()), (std::vector<std::size_t>{0, 2}));
}

TEST(Compare, ToleranceAcceptsWithinBand) {
  tc::Tolerance tol{0.01, 0.0};
  EXPECT_TRUE(tol.accepts(1.0, 1.005));
  EXPECT_FALSE(tol.accepts(1.0, 1.05));
  tc::Tolerance rel{0.0, 0.1};
  EXPECT_TRUE(rel.accepts(100.0, 109.0));
  EXPECT_FALSE(rel.accepts(100.0, 120.0));
}

TEST(Compare, NanHandling) {
  tc::Tolerance tol{1.0, 1.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(tol.accepts(nan, nan));
  EXPECT_FALSE(tol.accepts(1.0, nan));
}

TEST(Compare, UlpDistance) {
  EXPECT_EQ(tc::ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(tc::ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(tc::ulp_distance(0.0, -0.0), 0u);
  EXPECT_GT(tc::ulp_distance(1.0, 2.0), 1000u);
}

TEST(Compare, ReportListsMissingAndDivergent) {
  const std::map<std::string, double> reference{{"acc", 0.9}, {"loss", 0.1}};
  const std::map<std::string, double> measured{{"acc", 0.5}, {"extra", 1.0}};
  const auto report = tc::compare_metrics(reference, measured);
  EXPECT_FALSE(report.reproduced());
  EXPECT_EQ(report.mismatches.size(), 3u);  // acc diverges, loss missing, extra
}

TEST(Compare, ReproducedWithinTolerance) {
  const std::map<std::string, double> reference{{"acc", 0.9}};
  const std::map<std::string, double> measured{{"acc", 0.9001}};
  const std::map<std::string, tc::Tolerance> tols{{"acc", {0.001, 0.0}}};
  const auto report = tc::compare_metrics(reference, measured, tols);
  EXPECT_TRUE(report.reproduced());
  EXPECT_NE(report.summary().find("reproduced"), std::string::npos);
}

TEST(Environment, CaptureIsSelfConsistent) {
  const auto env = tc::capture_environment();
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_GE(env.cpp_standard, 202002L);
  EXPECT_EQ(env.pointer_bits, sizeof(void *) * 8);
  EXPECT_EQ(env.digest(), tc::capture_environment().digest());
  EXPECT_NE(env.describe().find("compiler"), std::string::npos);
}

TEST(Provenance, LineageIsDependencyOrdered) {
  tc::ProvenanceGraph g;
  g.add_artifact("dataset", tc::sha256("d"));
  g.add_artifact("weights", tc::sha256("w"), {"dataset"});
  g.add_artifact("table", tc::sha256("t"), {"weights", "dataset"});
  const auto lineage = g.lineage("table");
  ASSERT_EQ(lineage.size(), 3u);
  EXPECT_EQ(lineage.front(), "dataset");
  EXPECT_EQ(lineage.back(), "table");
}

TEST(Provenance, RejectsUnknownParentAndDuplicates) {
  tc::ProvenanceGraph g;
  g.add_artifact("a", tc::sha256("a"));
  EXPECT_THROW(g.add_artifact("b", tc::sha256("b"), {"nope"}),
               std::invalid_argument);
  EXPECT_THROW(g.add_artifact("a", tc::sha256("x")), std::invalid_argument);
}

TEST(Provenance, SinksAreResultArtifacts) {
  tc::ProvenanceGraph g;
  g.add_artifact("raw", tc::sha256("r"));
  g.add_artifact("clean", tc::sha256("c"), {"raw"});
  g.add_artifact("fig1", tc::sha256("f1"), {"clean"});
  g.add_artifact("fig2", tc::sha256("f2"), {"clean"});
  EXPECT_EQ(g.sinks(), (std::vector<std::string>{"fig1", "fig2"}));
}

TEST(Provenance, VerifyLineageFindsChangedArtifact) {
  tc::ProvenanceGraph g;
  g.add_artifact("raw", tc::sha256("r"));
  g.add_artifact("fig", tc::sha256("f"), {"raw"});
  const auto broken = g.verify_lineage(
      "fig", [&](const std::string &name) -> std::optional<tc::Digest> {
        if (name == "raw") return tc::sha256("r-CHANGED");
        return g.contains(name) ? std::optional(g.digest_of(name))
                                : std::nullopt;
      });
  EXPECT_EQ(broken, (std::vector<std::string>{"raw"}));
}

TEST(Provenance, ToDotContainsAllNodes) {
  tc::ProvenanceGraph g;
  g.add_artifact("x", tc::sha256("x"));
  g.add_artifact("y", tc::sha256("y"), {"x"});
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("\"x\""), std::string::npos);
  EXPECT_NE(dot.find("\"x\" -> \"y\""), std::string::npos);
}

// --- Journal export / import -----------------------------------------------

namespace {

tc::Journal sample_journal() {
  tc::Journal journal;
  tc::Manifest m;
  m.name = "exported-exp";
  m.seed = 3;
  m.set("alpha", 0.5);
  for (int i = 0; i < 4; ++i) {
    tc::RunRecord rec;
    rec.manifest_digest = m.digest();
    rec.metrics["accuracy"] = 0.8 + 0.01 * i;
    rec.metrics["loss"] = 1.0 / (1 + i);
    rec.artifacts["weights"] = tc::sha256("weights" + std::to_string(i));
    rec.duration_seconds = 1.25 * i;
    rec.notes = i == 2 ? "warm cache" : "";
    journal.append(rec);
  }
  return journal;
}

}  // namespace

TEST(JournalIo, RoundTripPreservesEverything) {
  const tc::Journal original = sample_journal();
  const std::string text = tc::export_journal(original);
  const tc::ImportResult imported = tc::import_journal(text);
  ASSERT_TRUE(imported.ok) << imported.error;
  ASSERT_EQ(imported.journal.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(imported.journal.record(i).digest(), original.record(i).digest());
    EXPECT_EQ(imported.journal.chain_hash(i), original.chain_hash(i));
  }
  EXPECT_EQ(imported.journal.head(), original.head());
  EXPECT_FALSE(imported.journal.verify().has_value());
}

TEST(JournalIo, EditedMetricIsRejected) {
  std::string text = tc::export_journal(sample_journal());
  // Flip one hex digit inside a recorded metric value (hex-float encoding
  // keeps lengths stable for same-magnitude edits; replace "0x1." mantissa
  // digit instead of appending).
  const auto pos = text.find("0x1.");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 4] = text[pos + 4] == 'a' ? 'b' : 'a';
  const tc::ImportResult imported = tc::import_journal(text);
  EXPECT_FALSE(imported.ok);
  EXPECT_NE(imported.error.find("chain verification failed"),
            std::string::npos);
}

TEST(JournalIo, TruncationIsRejected) {
  const std::string text = tc::export_journal(sample_journal());
  const tc::ImportResult imported =
      tc::import_journal(std::string_view(text).substr(0, text.size() / 2));
  EXPECT_FALSE(imported.ok);
}

TEST(JournalIo, TrailingGarbageIsRejected) {
  std::string text = tc::export_journal(sample_journal());
  text += "extra";
  const tc::ImportResult imported = tc::import_journal(text);
  EXPECT_FALSE(imported.ok);
  EXPECT_NE(imported.error.find("trailing"), std::string::npos);
}

TEST(JournalIo, BadHeaderIsRejected) {
  EXPECT_FALSE(tc::import_journal("not a journal\n").ok);
  EXPECT_FALSE(tc::import_journal("").ok);
}

TEST(JournalIo, EmptyJournalRoundTrips) {
  tc::Journal empty;
  const auto imported = tc::import_journal(tc::export_journal(empty));
  ASSERT_TRUE(imported.ok) << imported.error;
  EXPECT_EQ(imported.journal.size(), 0u);
}

TEST(ManifestParse, RoundTripsWithDigest) {
  tc::Manifest m;
  m.name = "roundtrip";
  m.description = "with: tricky 7:chars\nand newlines";
  m.seed = 0xDEADBEEF;
  m.code_version = "1.0.0";
  m.set("alpha", 1.5).set("n", std::int64_t{-3}).set("tag", "x");
  const auto parsed = tc::Manifest::from_canonical_string(m.canonical_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->digest(), m.digest());
  EXPECT_EQ(parsed->name, m.name);
  EXPECT_EQ(parsed->seed, m.seed);
  EXPECT_DOUBLE_EQ(parsed->get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(parsed->get_int("n", 0), -3);
}

TEST(ManifestParse, RejectsMalformedInput) {
  EXPECT_FALSE(tc::Manifest::from_canonical_string("").has_value());
  EXPECT_FALSE(tc::Manifest::from_canonical_string("manifest-v2\n").has_value());
  tc::Manifest m;
  m.name = "x";
  std::string text = m.canonical_string();
  EXPECT_FALSE(
      tc::Manifest::from_canonical_string(text + "trailing").has_value());
  EXPECT_FALSE(tc::Manifest::from_canonical_string(
                   std::string_view(text).substr(0, text.size() - 1))
                   .has_value());
}

TEST(ManifestParse, RejectsNonCanonicalKeyOrder) {
  // Hand-build a v1 string with keys out of order: must be rejected, or an
  // attacker could ship two different texts with the same digest claim.
  const std::string text =
      "manifest-v1\n1:x0:0:0:1:2\n1:b1:11:a1:2";  // b before a
  EXPECT_FALSE(tc::Manifest::from_canonical_string(text).has_value());
}
