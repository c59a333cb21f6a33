#pragma once

// POSIX write helpers shared inside treu_ckpt (format.cpp defines them).

#include <cstdint>
#include <span>
#include <string>

namespace treu::ckpt::detail {

/// fsync the directory holding `path`, making a rename or create durable.
void fsync_parent_dir(const std::string &path);

/// write(2) every byte, retrying on EINTR. False on any other error.
[[nodiscard]] bool write_all(int fd, std::span<const std::uint8_t> bytes);

}  // namespace treu::ckpt::detail
