/**
 * @file
 * Crash-consistent snapshot files with versioned, provenance-stamped
 * headers and generation rotation.
 *
 * A snapshot is an opaque payload (built by the caller with
 * ckpt::Writer) wrapped in a self-validating envelope:
 *
 *   "XUICKPT\n" | u32 formatVersion | str gitSha | str buildType |
 *   str tag | u64 seq | u64 payloadSize | u64 digest |
 *   payload bytes
 *
 * Crash consistency is the classic POSIX recipe: write to a
 * temporary sibling, fsync, rename over the final path. A reader
 * therefore never observes a half-written final file from a crashed
 * writer; damage done to the file afterwards (flaky storage, a torn
 * copy, a stray bit flip) is the loader's to catch. The FNV-1a digest
 * covers tag, seq, payload size and payload, the version and the
 * provenance strings are checked by value, and the header parse is
 * bounds-checked, so a single-bit flip anywhere in the file loads as
 * something other than LoadStatus::Ok.
 *
 * GenerationSet rotates saves across `keep` sibling paths so a
 * corrupt newest generation falls back to the newest *valid* one
 * instead of losing the run. Restore provenance is strict by
 * default: a snapshot produced by a different binary (git SHA or
 * build type mismatch) is refused rather than risking silent
 * divergence, because bit-identical resume is the whole contract.
 */

#ifndef XUI_CKPT_SNAPSHOT_HH
#define XUI_CKPT_SNAPSHOT_HH

#include <cstdint>
#include <string>

#include "ckpt/codec.hh"

namespace xui::ckpt
{

/** Envelope format version; bump on any layout change. */
constexpr std::uint32_t kFormatVersion = 2;

/** Leading magic, newline-terminated so `head -c8` identifies it. */
constexpr char kMagic[8] = {'X', 'U', 'I', 'C', 'K', 'P', 'T', '\n'};

/** Parsed snapshot envelope + payload. */
struct Snapshot
{
    std::string gitSha;
    std::string buildType;
    /** Free-form producer tag (e.g. scenario name). */
    std::string tag;
    /** Monotonic save sequence number (newest-valid selection). */
    std::uint64_t seq = 0;
    std::string payload;
};

enum class LoadStatus : std::uint8_t
{
    Ok,
    /** File absent or unreadable. */
    Missing,
    /** Torn/truncated/bit-flipped envelope or digest mismatch. */
    Corrupt,
    /** Valid envelope from an incompatible format version. */
    VersionMismatch,
    /** Valid envelope from a different binary (SHA/build type). */
    ProvenanceMismatch,
};

const char *loadStatusName(LoadStatus s);

/** Result of one save attempt. */
struct SaveResult
{
    bool ok = false;
    std::string error;
};

/**
 * Serialize `snap` (provenance fields are overwritten with this
 * binary's) and write it crash-consistently to `path`.
 */
SaveResult saveSnapshot(const std::string &path, const Snapshot &snap);

/**
 * Read and validate a snapshot. On anything but LoadStatus::Ok,
 * `out` is untouched. `requireProvenance` (default) refuses
 * snapshots from a different git SHA or build type.
 */
LoadStatus loadSnapshot(const std::string &path, Snapshot &out,
                        bool requireProvenance = true);

/**
 * Rotating set of `keep` snapshot generations under one base path
 * (files "<base>.gen0" .. "<base>.gen<keep-1>"). save() round-robins
 * by sequence number; loadLatest() scans every slot and restores the
 * valid snapshot with the highest seq, counting corrupt slots it
 * had to skip — a damaged newest generation falls back to the
 * previous valid one.
 */
class GenerationSet
{
  public:
    explicit GenerationSet(std::string base, unsigned keep = 4)
        : base_(std::move(base)), keep_(keep ? keep : 1)
    {}

    /** Path of the slot a given sequence number rotates into. */
    std::string slotPath(std::uint64_t seq) const;

    /** Save the next generation (assigns and bumps the seq). */
    SaveResult save(Snapshot snap);

    struct LoadOutcome
    {
        LoadStatus status = LoadStatus::Missing;
        /** Slots holding undecodable/mismatched snapshots. */
        unsigned corruptSkipped = 0;
    };

    /** Restore the newest valid generation across all slots. */
    LoadOutcome loadLatest(Snapshot &out,
                           bool requireProvenance = true) const;

    /** Next sequence number a save() would use. */
    std::uint64_t nextSeq() const { return nextSeq_; }
    unsigned keep() const { return keep_; }

    /** Remove every slot file (test hygiene). */
    void removeAll() const;

  private:
    std::string base_;
    unsigned keep_;
    std::uint64_t nextSeq_ = 1;
};

} // namespace xui::ckpt

#endif // XUI_CKPT_SNAPSHOT_HH
