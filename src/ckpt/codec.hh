/**
 * @file
 * Byte codec for the snapshot engine: a little-endian, bounds-checked
 * Writer/Reader pair every serializable component implements
 * `save(Writer &)` / `load(Reader &)` against.
 *
 * Header-only and dependency-free on purpose: uarch/intr/verify
 * components include it without linking the snapshot file engine, so
 * the layering (ckpt's file code sits just above stats) stays
 * acyclic.
 *
 * The format is deliberately dumb — fixed-width little-endian
 * integers, length-prefixed byte strings, no varints, no field tags.
 * Crash consistency and corruption detection live a layer up
 * (snapshot.hh: content digest + format version in the file header),
 * so the codec only has to be unambiguous and bounds-safe: every
 * Reader getter fails sticky on underrun instead of reading past the
 * buffer, which is what makes feeding it a torn or bit-flipped
 * payload safe.
 */

#ifndef XUI_CKPT_CODEC_HH
#define XUI_CKPT_CODEC_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace xui::ckpt
{

/** Append-only little-endian byte sink. */
class Writer
{
  public:
    void u8(std::uint8_t v)
    {
        out_.push_back(static_cast<char>(v));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    void u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void bytes(const void *data, std::size_t n)
    {
        out_.append(static_cast<const char *>(data), n);
    }

    /** Length-prefixed string. */
    void str(const std::string &s)
    {
        u64(s.size());
        out_.append(s);
    }

    /** Length-prefixed vector of 64-bit words. */
    void vecU64(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        for (std::uint64_t x : v)
            u64(x);
    }

    const std::string &data() const { return out_; }
    std::string take() { return std::move(out_); }
    std::size_t size() const { return out_.size(); }

  private:
    std::string out_;
};

/** Bounds-checked reader over a byte buffer (not owned). */
class Reader
{
  public:
    Reader(const char *data, std::size_t n) : p_(data), n_(n) {}

    explicit Reader(const std::string &s)
        : Reader(s.data(), s.size())
    {}

    bool u8(std::uint8_t &v)
    {
        if (!need(1))
            return false;
        v = static_cast<std::uint8_t>(p_[pos_++]);
        return true;
    }

    bool b(bool &v)
    {
        std::uint8_t raw = 0;
        if (!u8(raw) || raw > 1)
            return fail();
        v = raw != 0;
        return true;
    }

    bool u16(std::uint16_t &v)
    {
        if (!need(2))
            return false;
        v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(
                     static_cast<std::uint8_t>(p_[pos_++]))
                 << (8 * i);
        return true;
    }

    bool u32(std::uint32_t &v)
    {
        if (!need(4))
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(p_[pos_++]))
                 << (8 * i);
        return true;
    }

    bool u64(std::uint64_t &v)
    {
        if (!need(8))
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(p_[pos_++]))
                 << (8 * i);
        return true;
    }

    bool bytes(void *out, std::size_t n)
    {
        if (!need(n))
            return false;
        std::memcpy(out, p_ + pos_, n);
        pos_ += n;
        return true;
    }

    bool str(std::string &s)
    {
        std::uint64_t len = 0;
        if (!u64(len) || len > n_ - pos_)
            return fail();
        s.assign(p_ + pos_, static_cast<std::size_t>(len));
        pos_ += static_cast<std::size_t>(len);
        return true;
    }

    bool vecU64(std::vector<std::uint64_t> &v)
    {
        std::uint64_t len = 0;
        // Each element costs 8 bytes; an impossible length is a
        // corrupt stream, not an allocation request.
        if (!u64(len) || len > (n_ - pos_) / 8)
            return fail();
        v.resize(static_cast<std::size_t>(len));
        for (auto &x : v)
            if (!u64(x))
                return false;
        return true;
    }

    /** Sticky failure flag: once an underrun happens, stays false. */
    bool ok() const { return ok_; }

    bool atEnd() const { return pos_ == n_; }
    std::size_t remaining() const { return n_ - pos_; }

    /** Mark the stream malformed (component-level invariants). */
    bool fail()
    {
        ok_ = false;
        return false;
    }

  private:
    bool need(std::size_t n)
    {
        if (!ok_ || n_ - pos_ < n)
            return fail();
        return true;
    }

    const char *p_;
    std::size_t n_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace xui::ckpt

#endif // XUI_CKPT_CODEC_HH
