#include "treu/core/manifest.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>

namespace treu::core {
namespace {

// Self-delimiting field encoding: "<len>:<bytes>" (netstring-style), which
// makes the canonical string injective over field values.
void emit(std::string &out, std::string_view field) {
  out += std::to_string(field.size());
  out += ':';
  out += field;
}

// Doubles serialize as hex floats: bit-exact and locale-independent.
std::string format_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

Manifest &Manifest::set(std::string key, std::string value) {
  params[std::move(key)] = std::move(value);
  return *this;
}

Manifest &Manifest::set(std::string key, double value) {
  return set(std::move(key), format_double(value));
}

Manifest &Manifest::set(std::string key, std::int64_t value) {
  return set(std::move(key), std::to_string(value));
}

std::optional<std::string> Manifest::get(std::string_view key) const {
  const auto it = params.find(std::string(key));
  if (it == params.end()) return std::nullopt;
  return it->second;
}

double Manifest::get_double(std::string_view key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  // Accept both hex-float (our own encoding) and decimal.
  return std::strtod(v->c_str(), nullptr);
}

std::int64_t Manifest::get_int(std::string_view key,
                               std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::int64_t out = fallback;
  std::from_chars(v->data(), v->data() + v->size(), out);
  return out;
}

std::string Manifest::canonical_string() const {
  std::string out = "manifest-v1\n";
  emit(out, name);
  emit(out, description);
  emit(out, std::to_string(seed));
  emit(out, code_version);
  emit(out, std::to_string(params.size()));
  for (const auto &[k, v] : params) {  // std::map: already sorted by key
    emit(out, k);
    emit(out, v);
  }
  return out;
}

std::optional<Manifest> Manifest::from_canonical_string(std::string_view text) {
  constexpr std::string_view kHeader = "manifest-v1\n";
  if (text.substr(0, kHeader.size()) != kHeader) return std::nullopt;
  std::size_t pos = kHeader.size();

  const auto field = [&]() -> std::optional<std::string> {
    std::size_t len = 0;
    bool any = false;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      len = len * 10 + static_cast<std::size_t>(text[pos] - '0');
      ++pos;
      any = true;
      if (len > text.size()) return std::nullopt;
    }
    if (!any || pos >= text.size() || text[pos] != ':') return std::nullopt;
    ++pos;
    if (pos + len > text.size()) return std::nullopt;
    std::string value(text.substr(pos, len));
    pos += len;
    return value;
  };
  const auto parse_u64 = [](const std::string &s) -> std::optional<std::uint64_t> {
    std::uint64_t out = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    return out;
  };

  Manifest m;
  const auto name = field();
  const auto description = field();
  const auto seed_text = field();
  const auto version = field();
  const auto count_text = field();
  if (!name || !description || !seed_text || !version || !count_text) {
    return std::nullopt;
  }
  m.name = *name;
  m.description = *description;
  const auto seed = parse_u64(*seed_text);
  const auto count = parse_u64(*count_text);
  if (!seed || !count) return std::nullopt;
  m.seed = *seed;
  m.code_version = *version;
  std::string last_key;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto key = field();
    const auto value = field();
    if (!key || !value) return std::nullopt;
    if (i > 0 && !(*key > last_key)) return std::nullopt;  // canonical order
    last_key = *key;
    m.params.emplace(*key, *value);
  }
  if (pos != text.size()) return std::nullopt;  // trailing bytes
  return m;
}

Digest Manifest::digest() const { return sha256(canonical_string()); }

std::string RunRecord::canonical_string() const {
  std::string out = "run-v1\n";
  emit(out, manifest_digest.hex());
  emit(out, format_double(duration_seconds));
  emit(out, notes);
  emit(out, std::to_string(metrics.size()));
  for (const auto &[k, v] : metrics) {
    emit(out, k);
    emit(out, format_double(v));
  }
  emit(out, std::to_string(artifacts.size()));
  for (const auto &[k, d] : artifacts) {
    emit(out, k);
    emit(out, d.hex());
  }
  return out;
}

Digest RunRecord::digest() const { return sha256(canonical_string()); }

Digest Journal::genesis() { return sha256("treu-journal-v1"); }

Digest Journal::append(RunRecord record) {
  chain_.push_back(chain_next(head(), record.digest()));
  records_.push_back(std::move(record));
  return chain_.back();
}

Digest Journal::head() const {
  return chain_.empty() ? genesis() : chain_.back();
}

std::optional<std::size_t> Journal::verify() const {
  Digest prev = genesis();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!(chain_next(prev, records_[i].digest()) == chain_[i])) return i;
    prev = chain_[i];
  }
  return std::nullopt;
}

std::vector<std::size_t> Journal::runs_of(const Digest &manifest) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].manifest_digest == manifest) out.push_back(i);
  }
  return out;
}

void Journal::tamper_with_record(std::size_t i, const std::string &notes) {
  records_.at(i).notes = notes;
}

}  // namespace treu::core
