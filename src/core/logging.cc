#include "core/logging.hh"

#include <cstdio>

namespace trust::core {

namespace detail {

void
die(const char *kind, const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "[%s] %s:%d: %s\n", kind, file, line, msg.c_str());
    std::abort();
}

} // namespace detail

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "[warn] %s\n", msg.c_str());
}

} // namespace trust::core
