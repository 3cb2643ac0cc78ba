#include "ckpt/snapshot.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "ckpt/build_info.hh"
#include "stats/digest.hh"

namespace xui::ckpt
{

const char *loadStatusName(LoadStatus s)
{
    switch (s) {
    case LoadStatus::Ok:
        return "ok";
    case LoadStatus::Missing:
        return "missing";
    case LoadStatus::Corrupt:
        return "corrupt";
    case LoadStatus::VersionMismatch:
        return "version_mismatch";
    case LoadStatus::ProvenanceMismatch:
        return "provenance_mismatch";
    }
    return "?";
}

namespace
{

/**
 * Digest of every envelope field a flip could silently move without
 * failing the parse: tag, seq, payload size and payload. The version
 * and provenance strings are checked by value, so they stay out.
 */
std::uint64_t envelopeDigest(const std::string &tag, std::uint64_t seq,
                             const std::string &payload)
{
    Fnv1a d;
    d.update(tag.size());
    d.update(tag.data(), tag.size());
    d.update(seq);
    d.update(payload.size());
    d.update(payload.data(), payload.size());
    return d.value();
}

std::string encodeEnvelope(const Snapshot &snap)
{
    Writer w;
    w.bytes(kMagic, sizeof(kMagic));
    w.u32(kFormatVersion);
    w.str(kBuildGitSha);
    w.str(kBuildType);
    w.str(snap.tag);
    w.u64(snap.seq);
    w.u64(snap.payload.size());
    w.u64(envelopeDigest(snap.tag, snap.seq, snap.payload));
    w.bytes(snap.payload.data(), snap.payload.size());
    return w.take();
}

bool writeFile(const std::string &path, const std::string &bytes,
               std::string *error)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        if (error)
            *error = path + ": open: " + std::strerror(errno);
        return false;
    }
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t wrote =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = path + ": write: " + std::strerror(errno);
            ::close(fd);
            return false;
        }
        off += static_cast<std::size_t>(wrote);
    }
    bool synced = ::fsync(fd) == 0;
    if (!synced && error)
        *error = path + ": fsync: " + std::strerror(errno);
    ::close(fd);
    return synced;
}

} // namespace

SaveResult saveSnapshot(const std::string &path, const Snapshot &snap)
{
    SaveResult res;
    std::string bytes = encodeEnvelope(snap);

    // Crash-consistent: tmp sibling + fsync + rename.
    std::string tmp = path + ".tmp";
    if (!writeFile(tmp, bytes, &res.error)) {
        ::remove(tmp.c_str());
        return res;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        res.error = path + ": rename: " + std::strerror(errno);
        ::remove(tmp.c_str());
        return res;
    }
    res.ok = true;
    return res;
}

LoadStatus loadSnapshot(const std::string &path, Snapshot &out,
                        bool requireProvenance)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return LoadStatus::Missing;
    std::string bytes;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, got);
    bool readOk = std::ferror(f) == 0;
    std::fclose(f);
    if (!readOk)
        return LoadStatus::Missing;

    Reader r(bytes);
    char magic[sizeof(kMagic)];
    if (!r.bytes(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return LoadStatus::Corrupt;
    std::uint32_t version = 0;
    if (!r.u32(version))
        return LoadStatus::Corrupt;
    if (version != kFormatVersion)
        return LoadStatus::VersionMismatch;

    Snapshot snap;
    std::uint64_t payloadSize = 0;
    std::uint64_t digest = 0;
    if (!r.str(snap.gitSha) || !r.str(snap.buildType) ||
        !r.str(snap.tag) || !r.u64(snap.seq) ||
        !r.u64(payloadSize) || !r.u64(digest))
        return LoadStatus::Corrupt;
    if (payloadSize != r.remaining())
        return LoadStatus::Corrupt;
    snap.payload.assign(bytes.data() + (bytes.size() - r.remaining()),
                        r.remaining());
    if (envelopeDigest(snap.tag, snap.seq, snap.payload) != digest)
        return LoadStatus::Corrupt;

    if (requireProvenance &&
        (snap.gitSha != kBuildGitSha || snap.buildType != kBuildType))
        return LoadStatus::ProvenanceMismatch;

    out = std::move(snap);
    return LoadStatus::Ok;
}

std::string GenerationSet::slotPath(std::uint64_t seq) const
{
    return base_ + ".gen" + std::to_string(seq % keep_);
}

SaveResult GenerationSet::save(Snapshot snap)
{
    snap.seq = nextSeq_++;
    return saveSnapshot(slotPath(snap.seq), snap);
}

GenerationSet::LoadOutcome
GenerationSet::loadLatest(Snapshot &out,
                          bool requireProvenance) const
{
    LoadOutcome outcome;
    Snapshot best;
    bool haveBest = false;
    for (unsigned slot = 0; slot < keep_; ++slot) {
        Snapshot snap;
        LoadStatus st = loadSnapshot(base_ + ".gen" +
                                         std::to_string(slot),
                                     snap, requireProvenance);
        if (st == LoadStatus::Ok) {
            if (!haveBest || snap.seq > best.seq) {
                best = std::move(snap);
                haveBest = true;
            }
        } else if (st != LoadStatus::Missing) {
            ++outcome.corruptSkipped;
            // Remember the most specific failure so a set that is
            // all-corrupt reports Corrupt, not Missing.
            outcome.status = st;
        }
    }
    if (haveBest) {
        out = std::move(best);
        outcome.status = LoadStatus::Ok;
    }
    return outcome;
}

void GenerationSet::removeAll() const
{
    for (unsigned slot = 0; slot < keep_; ++slot) {
        std::string path = base_ + ".gen" + std::to_string(slot);
        ::remove(path.c_str());
        ::remove((path + ".tmp").c_str());
    }
}

} // namespace xui::ckpt
