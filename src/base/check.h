// Assertion support for PLATINUM.
//
// Simulator invariants are enforced with PLAT_CHECK in all build modes: a
// coherence-protocol violation must abort the experiment rather than produce
// a silently wrong measurement. PLAT_DCHECK compiles out in NDEBUG builds and
// guards hot-path invariants.
//
// A passing PLAT_CHECK costs one compare and branch. Everything a failure
// needs — the message stream, its formatting, the abort — lives out of line
// in check.cc behind cold functions, so checks on the per-reference path do
// not stop the compiler from inlining it (docs/PERFORMANCE.md).
#ifndef SRC_BASE_CHECK_H_
#define SRC_BASE_CHECK_H_

#include <cstdint>
#include <ostream>
#include <string>

namespace platinum::base {

// Formats the failure message and aborts. Never returns.
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& message);

namespace internal {

// Streams optional context for a failed check; only ever constructed once
// the check has failed.
class CheckMessageBuilder {
 public:
  [[gnu::cold]] CheckMessageBuilder(const char* file, int line, const char* expr);
  [[noreturn, gnu::cold]] ~CheckMessageBuilder();

  CheckMessageBuilder(const CheckMessageBuilder&) = delete;
  CheckMessageBuilder& operator=(const CheckMessageBuilder&) = delete;

  template <typename T>
  CheckMessageBuilder& operator<<(const T& value) {
    stream() << value;
    return *this;
  }

 private:
  [[gnu::cold]] std::ostream& stream();

  const char* file_;
  int line_;
  const char* expr_;
  // Allocated by the constructor, so the builder is four words on the
  // caller's frame; never freed, because the destructor aborts.
  std::ostringstream* stream_;
};

}  // namespace internal
}  // namespace platinum::base

#define PLAT_CHECK(condition)                                                  \
  for (; !(condition);)                                                        \
  ::platinum::base::internal::CheckMessageBuilder(__FILE__, __LINE__, #condition)

#define PLAT_CHECK_EQ(a, b) PLAT_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define PLAT_CHECK_NE(a, b) PLAT_CHECK((a) != (b))
#define PLAT_CHECK_LT(a, b) PLAT_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define PLAT_CHECK_LE(a, b) PLAT_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define PLAT_CHECK_GE(a, b) PLAT_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "
#define PLAT_CHECK_GT(a, b) PLAT_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "

#ifdef NDEBUG
#define PLAT_DCHECK(condition) \
  for (; false && !(condition);) ::platinum::base::internal::CheckMessageBuilder("", 0, "")
#else
#define PLAT_DCHECK(condition) PLAT_CHECK(condition)
#endif

#endif  // SRC_BASE_CHECK_H_
