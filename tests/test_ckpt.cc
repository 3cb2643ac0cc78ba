/**
 * @file
 * Checkpoint/restore engine tests: the crash-consistent snapshot
 * file format (envelope validation, provenance strictness, every
 * single-bit flip refused), generation-set fallback past a damaged
 * newest file (torn, flipped, truncated, bad magic, empty — damage is
 * always detected and the previous generation wins, never a silent
 * divergence), the golden corpus round-trip (interrupted + resumed ==
 * uninterrupted, bit for bit), and the watchdog's bounded
 * pending-event snapshot under repeated trips (the ASan
 * leak/determinism loop).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/build_info.hh"
#include "ckpt/codec.hh"
#include "ckpt/snapshot.hh"
#include "des/simulation.hh"
#include "fault/watchdog.hh"
#include "verify/roundtrip.hh"
#include "verify/scenario_run.hh"

using namespace xui;

namespace
{

std::string
tmpPath(const std::string &leaf)
{
    return testing::TempDir() + "xui_ckpt_" + leaf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

void
writeFileRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
}

ckpt::Snapshot
sampleSnapshot(const std::string &payload)
{
    ckpt::Snapshot s;
    s.tag = "test";
    s.payload = payload;
    return s;
}

// ----- snapshot file engine -----------------------------------------

TEST(SnapshotFile, SaveLoadRoundTrip)
{
    const std::string path = tmpPath("roundtrip.ckpt");
    ckpt::Snapshot in = sampleSnapshot("hello snapshot payload");
    in.seq = 42;
    ckpt::SaveResult sr = ckpt::saveSnapshot(path, in);
    ASSERT_TRUE(sr.ok) << sr.error;

    ckpt::Snapshot out;
    ASSERT_EQ(ckpt::loadSnapshot(path, out), ckpt::LoadStatus::Ok);
    EXPECT_EQ(out.payload, in.payload);
    EXPECT_EQ(out.tag, "test");
    EXPECT_EQ(out.seq, 42u);
    // Provenance is stamped by the save path, not the caller.
    EXPECT_EQ(out.gitSha, ckpt::kBuildGitSha);
    EXPECT_EQ(out.buildType, ckpt::kBuildType);
    std::filesystem::remove(path);
}

TEST(SnapshotFile, CleanSaveLeavesNoTmpSibling)
{
    const std::string path = tmpPath("tmpcheck.ckpt");
    ASSERT_TRUE(ckpt::saveSnapshot(path, sampleSnapshot("x")).ok);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::filesystem::remove(path);
}

TEST(SnapshotFile, MissingFileReportsMissing)
{
    ckpt::Snapshot out;
    EXPECT_EQ(ckpt::loadSnapshot(tmpPath("nonexistent.ckpt"), out),
              ckpt::LoadStatus::Missing);
}

TEST(SnapshotFile, VersionMismatchRefused)
{
    const std::string path = tmpPath("version.ckpt");
    ASSERT_TRUE(ckpt::saveSnapshot(path, sampleSnapshot("v")).ok);
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = '\xee'; // low byte of the u32 format version
    writeFileRaw(path, bytes);
    ckpt::Snapshot out;
    EXPECT_EQ(ckpt::loadSnapshot(path, out),
              ckpt::LoadStatus::VersionMismatch);
    std::filesystem::remove(path);
}

TEST(SnapshotFile, ProvenanceMismatchRefusedUnlessWaived)
{
    const std::string path = tmpPath("provenance.ckpt");
    ASSERT_TRUE(ckpt::saveSnapshot(path, sampleSnapshot("p")).ok);
    // Forge a snapshot from a "different binary" by rewriting the
    // git SHA header field in place (same length, so every other
    // offset — including the digest-protected payload — is intact).
    std::string bytes = readFile(path);
    const std::string sha = ckpt::kBuildGitSha;
    ASSERT_FALSE(sha.empty());
    std::size_t at = bytes.find(sha);
    ASSERT_NE(at, std::string::npos);
    bytes.replace(at, sha.size(), std::string(sha.size(), 'z'));
    writeFileRaw(path, bytes);

    ckpt::Snapshot out;
    EXPECT_EQ(ckpt::loadSnapshot(path, out),
              ckpt::LoadStatus::ProvenanceMismatch);
    // The waiver exists for forensics, not for normal restores.
    EXPECT_EQ(ckpt::loadSnapshot(path, out, false),
              ckpt::LoadStatus::Ok);
    EXPECT_EQ(out.payload, "p");
    std::filesystem::remove(path);
}

/** Byte offset of the u64 `seq` field in a snapshot tagged `tag`. */
std::size_t
seqOffset(const std::string &tag)
{
    ckpt::Writer w;
    w.bytes(ckpt::kMagic, sizeof(ckpt::kMagic));
    w.u32(ckpt::kFormatVersion);
    w.str(ckpt::kBuildGitSha);
    w.str(ckpt::kBuildType);
    w.str(tag);
    return w.take().size();
}

/**
 * No single-bit flip anywhere in the file — header or payload — may
 * load as Ok under strict provenance: the digest covers tag, seq,
 * payload size and payload, and the rest of the header is checked by
 * value or fails the parse.
 */
TEST(SnapshotFile, EverySingleBitFlipRefused)
{
    const std::string path = tmpPath("bitflip.ckpt");
    ckpt::Snapshot in = sampleSnapshot("flip me");
    in.seq = 7;
    ASSERT_TRUE(ckpt::saveSnapshot(path, in).ok);
    const std::string clean = readFile(path);
    ASSERT_FALSE(clean.empty());

    for (std::size_t i = 0; i < clean.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bytes = clean;
            bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
            writeFileRaw(path, bytes);
            ckpt::Snapshot out;
            EXPECT_NE(ckpt::loadSnapshot(path, out),
                      ckpt::LoadStatus::Ok)
                << "flip of bit " << bit << " in byte " << i
                << " loaded clean";
        }
    }
    std::filesystem::remove(path);
}

TEST(GenerationSet, LoadLatestPicksHighestSeq)
{
    const std::string base = tmpPath("gens.ckpt");
    ckpt::GenerationSet gens(base);
    for (int i = 1; i <= 6; ++i)
        ASSERT_TRUE(
            gens.save(sampleSnapshot("gen" + std::to_string(i))).ok);

    ckpt::Snapshot out;
    auto lo = gens.loadLatest(out);
    EXPECT_EQ(lo.status, ckpt::LoadStatus::Ok);
    EXPECT_EQ(lo.corruptSkipped, 0u);
    EXPECT_EQ(out.payload, "gen6");
    EXPECT_EQ(out.seq, 6u);
    gens.removeAll();
}

/**
 * Storage damage to the newest generation, applied to the file on
 * disk after a clean save: each case must be detected on load and
 * the previous generation restored in its place.
 */
TEST(GenerationSet, CorruptNewestFallsBackToPreviousGeneration)
{
    struct Damage
    {
        const char *name;
        std::function<void(std::string &)> apply;
    };
    const std::string payload = "newest";
    const Damage kDamage[] = {
        {"torn half", [](std::string &b) { b.resize(b.size() / 2); }},
        {"payload bit flip",
         [](std::string &b) {
             b.back() = static_cast<char>(b.back() ^ 0x40);
         }},
        {"truncated after the header",
         [&](std::string &b) { b.resize(b.size() - payload.size()); }},
        {"bad magic", [](std::string &b) { b[0] = '?'; }},
        {"zero length", [](std::string &b) { b.clear(); }},
    };
    for (const Damage &d : kDamage) {
        SCOPED_TRACE(d.name);
        const std::string base = tmpPath("gens_fb.ckpt");
        ckpt::GenerationSet gens(base);
        ASSERT_TRUE(gens.save(sampleSnapshot("good")).ok);
        ASSERT_TRUE(gens.save(sampleSnapshot(payload)).ok);

        // Damage the newest generation behind the engine's back.
        const std::string newest = gens.slotPath(2);
        std::string bytes = readFile(newest);
        ASSERT_GT(bytes.size(), payload.size());
        d.apply(bytes);
        writeFileRaw(newest, bytes);

        ckpt::Snapshot out;
        auto lo = gens.loadLatest(out);
        EXPECT_EQ(lo.status, ckpt::LoadStatus::Ok);
        EXPECT_EQ(lo.corruptSkipped, 1u);
        EXPECT_EQ(out.payload, "good");
        gens.removeAll();
    }
}

/**
 * A flipped seq must not let an older generation outrank the newest:
 * the digest covers seq, so the damaged slot is skipped as corrupt.
 */
TEST(GenerationSet, SeqFlipInOlderGenerationSkippedAsCorrupt)
{
    const std::string base = tmpPath("gens_seq.ckpt");
    ckpt::GenerationSet gens(base);
    ASSERT_TRUE(gens.save(sampleSnapshot("old-state")).ok);
    ASSERT_TRUE(gens.save(sampleSnapshot("new-state")).ok);

    // Top bit-0 of the older slot's little-endian seq: 1 -> 2^56 + 1.
    const std::string older = gens.slotPath(1);
    std::string bytes = readFile(older);
    const std::size_t at = seqOffset("test") + 7;
    ASSERT_LT(at, bytes.size());
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
    writeFileRaw(older, bytes);

    ckpt::Snapshot out;
    auto lo = gens.loadLatest(out);
    EXPECT_EQ(lo.status, ckpt::LoadStatus::Ok);
    EXPECT_EQ(lo.corruptSkipped, 1u);
    EXPECT_EQ(out.payload, "new-state");
    EXPECT_EQ(out.seq, 2u);
    gens.removeAll();
}

TEST(GenerationSet, AllCorruptReportsCorruptNotOk)
{
    const std::string base = tmpPath("gens_bad.ckpt");
    ckpt::GenerationSet gens(base);
    ASSERT_TRUE(gens.save(sampleSnapshot("a")).ok);
    ASSERT_TRUE(gens.save(sampleSnapshot("b")).ok);
    for (std::uint64_t seq = 1; seq <= 2; ++seq)
        writeFileRaw(gens.slotPath(seq), "XUICKPT\ngarbage");

    ckpt::Snapshot out;
    auto lo = gens.loadLatest(out);
    EXPECT_NE(lo.status, ckpt::LoadStatus::Ok);
    EXPECT_EQ(lo.corruptSkipped, 2u);
    gens.removeAll();
}

// ----- golden corpus round-trip -------------------------------------

TEST(CorpusRoundTrip, SampleRowsBitIdentical)
{
    for (std::uint64_t seed : {1, 7}) {
        for (DeliveryStrategy s :
             {DeliveryStrategy::Flush, DeliveryStrategy::Tracked}) {
            RoundTripReport rep =
                checkRoundTrip(goldenCorpusConfig(seed, s), 0);
            EXPECT_TRUE(rep.ok) << rep.message;
            EXPECT_TRUE(rep.bitIdentical) << rep.message;
            EXPECT_EQ(rep.referenceDigest, rep.resumedDigest);
        }
    }
}

TEST(CorpusRoundTrip, OnDiskEngineRowBitIdentical)
{
    RoundTripReport rep = checkRoundTrip(
        goldenCorpusConfig(2, DeliveryStrategy::Drain), 0,
        tmpPath("corpus_row.ckpt"));
    EXPECT_TRUE(rep.ok) << rep.message;
    EXPECT_TRUE(rep.bitIdentical) << rep.message;
}

TEST(CorpusRoundTrip, SweepAgreesAcrossJobs)
{
    CorpusRoundTripOptions ro;
    ro.seeds = 2; // 6 rows: enough to exercise the fan-out
    ro.snapshotDir = testing::TempDir();
    ro.jobs = 1;
    CorpusRoundTripSummary s1 = runCorpusRoundTrip(ro);
    ro.jobs = 2;
    CorpusRoundTripSummary s2 = runCorpusRoundTrip(ro);
    EXPECT_TRUE(s1.ok());
    EXPECT_EQ(s1.rows, 6u);
    EXPECT_EQ(s1.passed, s2.passed);
    EXPECT_EQ(s1.failures, s2.failures);
}

// ----- watchdog pending-event snapshot ------------------------------

TEST(WatchdogSnapshot, BoundedTopKMatchesSortedPrefix)
{
    Simulation sim{1};
    EventQueue &q = sim.queue();
    // Park events at scattered, deliberately unsorted times.
    for (Cycles t : {900, 17, 450, 3, 3, 888, 21, 4, 700, 5, 2, 60})
        q.scheduleAt(1000 + t, [] {});

    auto full = q.pendingSnapshot(0);
    auto top = q.pendingSnapshot(8);
    ASSERT_EQ(full.size(), 12u);
    ASSERT_EQ(top.size(), 8u);
    for (std::size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].when, full[i].when);
        EXPECT_EQ(top[i].seq, full[i].seq);
    }
    for (std::size_t i = 1; i < full.size(); ++i) {
        const bool sorted =
            full[i - 1].when < full[i].when ||
            (full[i - 1].when == full[i].when &&
             full[i - 1].seq < full[i].seq);
        EXPECT_TRUE(sorted) << "unsorted at index " << i;
    }
}

/**
 * A watchdog can trip over and over on the same wedged queue; each
 * trip must produce a bounded, sorted snapshot and leak nothing (this
 * test is what ASan chews on).
 */
TEST(WatchdogSnapshot, HundredTripsBoundedAndLeakFree)
{
    Simulation sim{1};
    EventQueue &q = sim.queue();
    std::function<void()> churn = [&] { q.scheduleAfter(1, churn); };
    q.scheduleAfter(1, churn);
    for (int i = 0; i < 64; ++i)
        q.scheduleAt(1'000'000 + i, [] {});

    for (int trip = 0; trip < 100; ++trip) {
        fault::Watchdog dog(q, 50);
        try {
            dog.runUntil(2'000'000);
            FAIL() << "trip " << trip
                   << ": expected StuckSimulation";
        } catch (const fault::StuckSimulation &e) {
            EXPECT_LE(e.pending().size(), 8u);
            EXPECT_GE(e.pendingCount(), 64u);
            for (std::size_t i = 1; i < e.pending().size(); ++i) {
                const auto &a = e.pending()[i - 1];
                const auto &b = e.pending()[i];
                EXPECT_TRUE(a.when < b.when ||
                            (a.when == b.when && a.seq < b.seq));
            }
        }
    }
}

} // namespace
