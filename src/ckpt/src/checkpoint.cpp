#include "treu/ckpt/checkpoint.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "treu/obs/obs.hpp"

namespace treu::ckpt {
namespace {

constexpr const char *kMetaSection = "meta";
constexpr const char *kParamsSection = "params";
constexpr const char *kOptimizerSection = "optimizer";
constexpr const char *kRngSection = "rng";

void write_matrix(ByteWriter &w, const tensor::Matrix &m) {
  w.u64(m.rows());
  w.u64(m.cols());
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t *>(m.data()),
      m.size() * sizeof(double)));
}

std::optional<tensor::Matrix> read_matrix(ByteReader &r) {
  const auto rows = r.u64();
  const auto cols = r.u64();
  if (!rows || !cols) return std::nullopt;
  const auto n = static_cast<std::size_t>(*rows) *
                 static_cast<std::size_t>(*cols);
  const auto raw = r.bytes(n * sizeof(double));
  if (!raw) return std::nullopt;
  tensor::Matrix m(static_cast<std::size_t>(*rows),
                   static_cast<std::size_t>(*cols));
  std::memcpy(m.data(), raw->data(), raw->size());
  return m;
}

}  // namespace

TrainingCheckpoint TrainingCheckpoint::capture(
    std::span<nn::Param *const> params, const nn::Optimizer *opt,
    const core::Rng *rng, std::uint64_t step, std::uint64_t epoch) {
  TrainingCheckpoint ckpt;
  ckpt.step = step;
  ckpt.epoch = epoch;
  ckpt.params.reserve(params.size());
  for (const nn::Param *p : params) ckpt.params.push_back(p->value);
  if (opt != nullptr) {
    ckpt.optimizer_kind = opt->kind();
    ckpt.optimizer_state = opt->save_state();
  }
  if (rng != nullptr) ckpt.rng = rng->state();
  return ckpt;
}

void TrainingCheckpoint::restore(std::span<nn::Param *const> target_params,
                                 nn::Optimizer *opt,
                                 core::Rng *rng_out) const {
  if (target_params.size() != params.size()) {
    throw std::invalid_argument(
        "TrainingCheckpoint::restore: parameter count mismatch (model " +
        std::to_string(target_params.size()) + ", checkpoint " +
        std::to_string(params.size()) + ")");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const tensor::Matrix &src = params[i];
    const tensor::Matrix &dst = target_params[i]->value;
    if (src.rows() != dst.rows() || src.cols() != dst.cols()) {
      throw std::invalid_argument(
          "TrainingCheckpoint::restore: shape mismatch at parameter " +
          std::to_string(i) + " (model " + std::to_string(dst.rows()) + "x" +
          std::to_string(dst.cols()) + ", checkpoint " +
          std::to_string(src.rows()) + "x" + std::to_string(src.cols()) +
          ")");
    }
  }
  if (opt != nullptr) {
    if (opt->kind() != optimizer_kind) {
      throw std::invalid_argument(
          "TrainingCheckpoint::restore: optimizer kind mismatch (live '" +
          opt->kind() + "', checkpoint '" + optimizer_kind + "')");
    }
    // Validate the optimizer state before any mutation: load_state throws
    // on malformed input, and the params must not be half-written then.
    opt->load_state(optimizer_state);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    target_params[i]->value = params[i];
  }
  if (rng_out != nullptr) *rng_out = core::Rng::from_state(rng);
}

core::Digest TrainingCheckpoint::weight_digest() const {
  // Byte-for-byte the encoding of nn::weight_digest so the checkpoint's
  // identity equals the live model's weight_hash() after a faithful load.
  core::Sha256 h;
  h.update("weights-v1");
  for (const tensor::Matrix &m : params) {
    const std::size_t r = m.rows();
    const std::size_t c = m.cols();
    h.update_value(r);
    h.update_value(c);
    h.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(m.data()),
        m.size() * sizeof(double)));
  }
  return h.finish();
}

std::size_t TrainingCheckpoint::parameter_count() const noexcept {
  std::size_t n = 0;
  for (const tensor::Matrix &m : params) n += m.size();
  return n;
}

std::vector<std::uint8_t> TrainingCheckpoint::encode() const {
  std::vector<Section> sections;
  {
    ByteWriter w;
    w.u64(step);
    w.u64(epoch);
    w.str(optimizer_kind);
    sections.push_back({kMetaSection, w.take()});
  }
  {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(params.size()));
    for (const tensor::Matrix &m : params) write_matrix(w, m);
    sections.push_back({kParamsSection, w.take()});
  }
  {
    ByteWriter w;
    w.u64(optimizer_state.size());
    for (const double v : optimizer_state) w.f64(v);
    sections.push_back({kOptimizerSection, w.take()});
  }
  {
    ByteWriter w;
    w.u64(rng.seed);
    w.u64(rng.stream);
    w.u64(rng.counter);
    w.u32(rng.buf_pos);
    sections.push_back({kRngSection, w.take()});
  }
  return encode_sections(sections);
}

LoadResult decode_checkpoint(std::span<const std::uint8_t> bytes) {
  LoadResult result;
  DecodeResult container = decode_sections(bytes);
  if (!container.ok()) {
    result.failure = container.failure;
    result.error = container.error;
    return result;
  }
  const auto torn = [&](std::string why) {
    result.checkpoint.reset();
    result.failure = DecodeFailure::Torn;
    result.error = std::move(why);
    return result;
  };
  const auto find = [&](const char *name) -> const Section * {
    for (const Section &s : container.sections) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };

  TrainingCheckpoint ckpt;
  const Section *meta = find(kMetaSection);
  if (meta == nullptr) return torn("missing meta section");
  {
    ByteReader r(meta->payload);
    const auto step = r.u64();
    const auto epoch = r.u64();
    auto kind = r.str();
    if (!step || !epoch || !kind || r.remaining() != 0) {
      return torn("malformed meta section");
    }
    ckpt.step = *step;
    ckpt.epoch = *epoch;
    ckpt.optimizer_kind = std::move(*kind);
  }
  const Section *params = find(kParamsSection);
  if (params == nullptr) return torn("missing params section");
  {
    ByteReader r(params->payload);
    const auto count = r.u32();
    if (!count) return torn("malformed params section");
    ckpt.params.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto m = read_matrix(r);
      if (!m) return torn("malformed params section");
      ckpt.params.push_back(std::move(*m));
    }
    if (r.remaining() != 0) return torn("malformed params section");
  }
  const Section *opt = find(kOptimizerSection);
  if (opt == nullptr) return torn("missing optimizer section");
  {
    ByteReader r(opt->payload);
    const auto count = r.u64();
    if (!count) return torn("malformed optimizer section");
    ckpt.optimizer_state.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      const auto v = r.f64();
      if (!v) return torn("malformed optimizer section");
      ckpt.optimizer_state.push_back(*v);
    }
    if (r.remaining() != 0) return torn("malformed optimizer section");
  }
  const Section *rng = find(kRngSection);
  if (rng == nullptr) return torn("missing rng section");
  {
    ByteReader r(rng->payload);
    const auto seed = r.u64();
    const auto stream = r.u64();
    const auto counter = r.u64();
    const auto buf_pos = r.u32();
    if (!seed || !stream || !counter || !buf_pos || r.remaining() != 0) {
      return torn("malformed rng section");
    }
    ckpt.rng = core::RngState{*seed, *stream, *counter, *buf_pos};
  }
  result.checkpoint = std::move(ckpt);
  return result;
}

AtomicWriteResult save_checkpoint_file(const std::string &path,
                                       const TrainingCheckpoint &ckpt,
                                       fault::FileInjector *injector,
                                       core::Digest *file_digest) {
  TREU_OBS_SPAN(save_span, "ckpt.save");
  TREU_OBS_SCOPED_LATENCY_US(save_timer, "ckpt.save_us");
  const std::vector<std::uint8_t> bytes = ckpt.encode();
  if (file_digest != nullptr) *file_digest = core::sha256(bytes);
  const AtomicWriteResult result = atomic_write_file(path, bytes, injector);
  if (result.committed) {
    TREU_OBS_COUNTER_ADD("ckpt.writes_total", 1);
    TREU_OBS_COUNTER_ADD("ckpt.bytes_written", bytes.size());
  } else {
    TREU_OBS_COUNTER_ADD("ckpt.write_failures_total", 1);
  }
  TREU_OBS_FR_EVENT(CkptSave, 0, ckpt.step,
                    result.committed ? bytes.size() : 0);
  return result;
}

LoadResult load_checkpoint_file(const std::string &path) {
  TREU_OBS_SPAN(load_span, "ckpt.load");
  const auto bytes = read_file(path);
  if (!bytes) {
    LoadResult result;
    result.failure = DecodeFailure::Torn;
    result.error = "cannot read " + path;
    TREU_OBS_FR_EVENT(CkptLoad, 0, 0, 0);
    return result;
  }
  LoadResult result = decode_checkpoint(*bytes);
  TREU_OBS_FR_EVENT(CkptLoad, 0, result.ok() ? result.checkpoint->step : 0,
                    bytes->size());
  return result;
}

}  // namespace treu::ckpt
