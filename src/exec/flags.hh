/**
 * @file
 * The one argv parser of every bench and tool: a declarative flag
 * table.
 *
 * A binary declares each flag it honours exactly once — name,
 * metavar, one help line, target, and check — and FlagSet derives
 * the parse, the value check, the error message, and the usage text
 * from that one declaration:
 *
 *   bench::Options opts;
 *   exec::FlagSet flags;
 *   flags.flag("--quick", "shorter runs", opts.quick)
 *       .uint("--seed", "N", "base RNG seed", opts.seed);
 *   flags.parse(argc, argv);
 *
 * `-h`/`--help` (usage on stdout, exit 0) and `--version` (build
 * provenance, exit 0) are built in. Anything else — an undeclared
 * flag, a missing value, a value its check rejects, a missing or
 * surplus positional — prints a message and the usage to stderr and
 * exits 2, so a flag a binary does not read can never be accepted
 * and silently ignored.
 *
 * Numeric checks are strict: unsigned values are non-empty digit
 * strings that fit 64 bits (no sign, whitespace, or suffix).
 */

#ifndef XUI_EXEC_FLAGS_HH
#define XUI_EXEC_FLAGS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace xui::exec
{

/**
 * Strict `--jobs N` parsing: accepts only a non-empty all-digit
 * value in [1, 1024]. Rejects 0 (use auto-detection by omitting the
 * flag instead), signs, suffixes, and overflow.
 * @return false on malformed input (`out` untouched).
 */
bool parseJobs(const char *text, unsigned &jobs);

/** One binary's flag table (see file comment). */
class FlagSet
{
  public:
    /** Applies a flag's value: "" on success, else the message. */
    using Apply = std::function<std::string(const char *value)>;

    /** A switch: present sets `target` to true. */
    FlagSet &flag(const char *name, const char *help, bool &target);

    /** Any string value (a name, a directory, a schedule). */
    FlagSet &text(const char *name, const char *metavar,
                  const char *help, std::string &target);

    /** A file path (metavar FILE). */
    FlagSet &file(const char *name, const char *help,
                  std::string &target);

    /** An unsigned integer in [lo, hi] (hi capped at T's max). */
    template <typename T>
    FlagSet &
    uint(const char *name, const char *metavar, const char *help,
         T &target, std::uint64_t lo = 0,
         std::uint64_t hi = std::numeric_limits<T>::max())
    {
        return uintImpl(name, metavar, help, lo, hi,
                        std::numeric_limits<T>::max(),
                        [&target](std::uint64_t v) {
                            target = static_cast<T>(v);
                        });
    }

    /** A finite double in (0, 1e12). */
    FlagSet &positive(const char *name, const char *metavar,
                      const char *help, double &target);

    /** A finite double >= 0. */
    FlagSet &nonNegative(const char *name, const char *metavar,
                         const char *help, double &target);

    /** `--jobs N`: sweep worker threads, checked by parseJobs(). */
    FlagSet &jobs(unsigned &target);

    /** A value checked and stored by `apply`. */
    FlagSet &custom(const char *name, const char *metavar,
                    const char *help, Apply apply);

    /** A required positional argument, in declaration order. */
    FlagSet &positional(const char *metavar, std::string &target);

    /** The usage text: synopsis plus one line per flag. */
    std::string usage(const char *prog) const;

    /**
     * Parse argv[1..argc). Returns only when every argument was
     * accepted; exits 0 after --help/--version and 2 on any error.
     */
    void parse(int argc, char **argv) const;

  private:
    struct Flag
    {
        std::string name;
        /** Empty for a switch (takes no value). */
        std::string metavar;
        std::string help;
        /** What a missing value lacks: "a value" or "a file". */
        const char *needs;
        Apply apply;
    };
    struct Positional
    {
        std::string metavar;
        std::string *target;
    };

    FlagSet &add(const char *name, const char *metavar,
                 const char *help, const char *needs, Apply apply);
    FlagSet &uintImpl(const char *name, const char *metavar,
                      const char *help, std::uint64_t lo,
                      std::uint64_t hi, std::uint64_t typeMax,
                      std::function<void(std::uint64_t)> store);
    /** Print `message` and the usage to stderr, exit 2. */
    [[noreturn]] void fail(const char *prog,
                           const std::string &message) const;

    std::vector<Flag> flags_;
    std::vector<Positional> positionals_;
};

} // namespace xui::exec

#endif // XUI_EXEC_FLAGS_HH
