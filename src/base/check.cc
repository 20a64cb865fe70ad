#include "src/base/check.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace platinum::base {

void CheckFailed(const char* file, int line, const char* expr, const std::string& message) {
  std::fprintf(stderr, "PLAT_CHECK failed at %s:%d: %s %s\n", file, line, expr, message.c_str());
  std::fflush(stderr);
  std::abort();
}

namespace internal {

CheckMessageBuilder::CheckMessageBuilder(const char* file, int line, const char* expr)
    : file_(file), line_(line), expr_(expr), stream_(new std::ostringstream) {}

CheckMessageBuilder::~CheckMessageBuilder() {
  CheckFailed(file_, line_, expr_, stream_->str());
}

std::ostream& CheckMessageBuilder::stream() { return *stream_; }

}  // namespace internal
}  // namespace platinum::base
