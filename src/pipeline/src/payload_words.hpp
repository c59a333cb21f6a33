#pragma once

// The word grammar of registry.log and rollout.journal payloads: words
// split on single spaces, `key=value` fields, unsigned decimals.

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>
#include <vector>

namespace treu::pipeline::detail {

inline std::vector<std::string_view> words(std::string_view payload) {
  std::vector<std::string_view> out;
  for (std::size_t sp; (sp = payload.find(' ')) != std::string_view::npos;) {
    out.push_back(payload.substr(0, sp));
    payload.remove_prefix(sp + 1);
  }
  out.push_back(payload);
  return out;
}

inline std::optional<std::uint64_t> parse_u64(std::string_view digits) {
  std::uint64_t value = 0;
  const char *end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// The non-empty value of `<key>=<value>`, or nullopt.
inline std::optional<std::string_view> field(std::string_view word,
                                             std::string_view key) {
  if (word.size() <= key.size() + 1 || !word.starts_with(key) ||
      word[key.size()] != '=') {
    return std::nullopt;
  }
  return word.substr(key.size() + 1);
}

inline std::optional<std::uint64_t> u64_field(std::string_view word,
                                              std::string_view key) {
  const auto value = field(word, key);
  return value ? parse_u64(*value) : std::nullopt;
}

}  // namespace treu::pipeline::detail
